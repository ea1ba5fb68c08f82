"""Checkpoint persistence and resume-after-interruption tests."""

import json

import pytest

from repro.sweep.campaign import execute_campaign
from repro.sweep.checkpoint import CampaignCheckpoint, CheckpointMismatch
from repro.sweep.events import PointCompleted
from repro.sweep.runners import SerialRunner
from repro.sweep.spec import smoke_spec


class InterruptedRun(RuntimeError):
    """Raised by the crashing runner to simulate a killed campaign."""


class CrashingRunner(SerialRunner):
    """A serial runner that dies after ``crash_after`` completed points."""

    def __init__(self, crash_after: int) -> None:
        self.crash_after = crash_after
        self.completed = 0

    def run(self, points, keep_results=False):
        sink = self.event_sink

        def counting(event):
            # Die before the checkpoint observes the next completion.
            if isinstance(event, PointCompleted):
                if self.completed >= self.crash_after:
                    raise InterruptedRun(f"killed after {self.completed} points")
                self.completed += 1
            sink(event)

        self.event_sink = counting
        try:
            return super().run(points, keep_results=keep_results)
        finally:
            self.event_sink = sink


class CountingRunner(SerialRunner):
    """A serial runner that counts how many points it actually evaluates."""

    def __init__(self) -> None:
        self.evaluated = 0

    def run(self, points, keep_results=False):
        self.evaluated += len(points)
        return super().run(points, keep_results=keep_results)


@pytest.fixture()
def spec():
    return smoke_spec(iterations=2)


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_without_reevaluation(self, spec, tmp_path):
        """The acceptance scenario: kill mid-way, restart, nothing runs twice."""
        path = str(tmp_path / "campaign.jsonl")
        total = spec.size
        crash_after = total // 2

        with pytest.raises(InterruptedRun):
            execute_campaign(spec, checkpoint=path, runner=CrashingRunner(crash_after))

        # The checkpoint holds exactly the completed prefix.
        persisted = CampaignCheckpoint(path).load(spec)
        assert len(persisted) == crash_after

        counting = CountingRunner()
        resumed = execute_campaign(spec, checkpoint=path, runner=counting)
        assert counting.evaluated == total - crash_after
        assert resumed.evaluated == total - crash_after
        assert resumed.resumed == crash_after

        uninterrupted = execute_campaign(spec)
        assert resumed.to_json() == uninterrupted.to_json()

    def test_complete_checkpoint_resumes_everything(self, spec, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        first = execute_campaign(spec, checkpoint=path)
        counting = CountingRunner()
        second = execute_campaign(spec, checkpoint=path, runner=counting)
        assert first.evaluated == spec.size
        assert counting.evaluated == 0
        assert second.resumed == spec.size
        assert second.to_json() == first.to_json()

    def test_truncated_tail_line_is_dropped(self, spec, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        execute_campaign(spec, checkpoint=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "record", "key": "truncat')  # hard-kill artefact
        store = CampaignCheckpoint(path)
        records = store.load(spec)
        assert len(records) == spec.size
        assert store.dropped_lines == 1

    def test_resume_after_truncated_tail_does_not_glue_records(self, spec, tmp_path):
        """A fragment from a hard kill must not swallow the next appended record."""
        path = str(tmp_path / "campaign.jsonl")
        execute_campaign(spec, checkpoint=path)
        # Simulate a kill mid-append: drop the finished marker (a killed
        # campaign never writes one), then drop the last record's full line
        # and leave a partial one without a trailing newline.
        with open(path, encoding="utf-8") as fh:
            lines = [l for l in fh.read().splitlines() if '"kind": "finished"' not in l]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        first_resume = execute_campaign(spec, checkpoint=path)
        assert first_resume.evaluated == 1  # only the truncated point re-runs

        second_resume = execute_campaign(spec, checkpoint=path)
        assert second_resume.evaluated == 0
        assert second_resume.resumed == spec.size

    def test_fingerprint_mismatch_is_refused(self, spec, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        execute_campaign(spec, checkpoint=path)
        other = smoke_spec(iterations=5)  # different campaign, same file
        with pytest.raises(CheckpointMismatch):
            execute_campaign(other, checkpoint=path)

    def test_header_written_once(self, spec, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        execute_campaign(spec, checkpoint=path)
        execute_campaign(spec, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            kinds = [json.loads(line)["kind"] for line in fh if line.strip()]
        assert kinds.count("header") == 1
        assert kinds.count("record") == spec.size

    def test_append_requires_open(self, tmp_path):
        store = CampaignCheckpoint(str(tmp_path / "x.jsonl"))
        with pytest.raises(RuntimeError):
            store.append(None)

    def test_missing_file_loads_empty(self, spec, tmp_path):
        store = CampaignCheckpoint(str(tmp_path / "missing.jsonl"))
        assert store.load(spec) == {}

    def test_parallel_resume_matches_serial(self, spec, tmp_path):
        """A checkpoint written serially is consumed by a parallel run."""
        path = str(tmp_path / "campaign.jsonl")
        crash_after = 5
        with pytest.raises(InterruptedRun):
            execute_campaign(spec, checkpoint=path, runner=CrashingRunner(crash_after))
        resumed = execute_campaign(spec, checkpoint=path, jobs=2)
        assert resumed.resumed == crash_after
        assert resumed.to_json() == execute_campaign(spec).to_json()
