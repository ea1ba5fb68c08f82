"""Checkpoint compaction, campaign diffing and the --follow tailer."""

import io
import json
import os
import threading
import time

import pytest

from repro.sweep.__main__ import main
from repro.sweep.campaign import diff_canonical_rows, execute_campaign
from repro.sweep.checkpoint import CampaignCheckpoint
from repro.sweep.follow import WorkerThroughput, follow_checkpoint
from repro.sweep.spec import smoke_spec


@pytest.fixture()
def spec():
    return smoke_spec(iterations=1)


def checkpoint_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestCompaction:
    def test_compaction_drops_superseded_records(self, spec, tmp_path):
        path = str(tmp_path / "c.jsonl")
        result = execute_campaign(spec, checkpoint=path)
        # Simulate a history of retries: re-append two stale records and a
        # corrupt fragment.
        store = CampaignCheckpoint(path)
        with open(path, "a", encoding="utf-8") as fh:
            for record in result.records[:2]:
                payload = record.to_json_dict()
                payload["kind"] = "record"
                fh.write(json.dumps(payload, sort_keys=True) + "\n")
            fh.write('{"kind": "record", "key": "trunc')
        stats = store.compact()
        assert stats.kept == spec.size
        assert stats.dropped_records == 2
        assert stats.dropped_lines == 1
        kinds = [p["kind"] for p in checkpoint_lines(path)]
        assert kinds.count("header") == 1
        assert kinds.count("record") == spec.size

    def test_compaction_keeps_the_latest_record_per_key(self, spec, tmp_path):
        path = str(tmp_path / "latest.jsonl")
        result = execute_campaign(spec, checkpoint=path)
        stale = result.records[0].to_json_dict()
        stale["kind"] = "record"
        stale["cycles"] = 999_999_999  # a newer (here: doctored) re-evaluation
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(stale, sort_keys=True) + "\n")
        CampaignCheckpoint(path).compact()
        records = CampaignCheckpoint(path).load()
        assert records[result.records[0].key].cycles == 999_999_999

    def test_fingerprint_survives_and_resume_still_works(self, spec, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        execute_campaign(spec, checkpoint=path)
        header_before = CampaignCheckpoint(path).read_header()
        CampaignCheckpoint(path).compact()
        header_after = CampaignCheckpoint(path).read_header()
        assert header_after == header_before
        assert header_after["fingerprint"] == spec.fingerprint()
        resumed = execute_campaign(spec, checkpoint=path)
        assert resumed.evaluated == 0 and resumed.resumed == spec.size

    def test_compaction_is_idempotent(self, spec, tmp_path):
        path = str(tmp_path / "twice.jsonl")
        execute_campaign(spec, checkpoint=path)
        CampaignCheckpoint(path).compact()
        first = open(path, "rb").read()
        stats = CampaignCheckpoint(path).compact()
        assert stats.dropped_records == 0
        assert open(path, "rb").read() == first

    def test_compaction_refuses_an_open_checkpoint(self, spec, tmp_path):
        store = CampaignCheckpoint(str(tmp_path / "open.jsonl"))
        store.open_for_append(spec)
        with pytest.raises(RuntimeError):
            store.compact()
        store.close()

    def test_compacting_a_missing_file_is_a_noop(self, tmp_path):
        stats = CampaignCheckpoint(str(tmp_path / "missing.jsonl")).compact()
        assert stats.kept == 0

    def test_compact_cli(self, spec, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        execute_campaign(spec, checkpoint=path)
        assert main(["compact", path]) == 0
        assert "kept 18 record(s)" in capsys.readouterr().out


class TestCampaignDiff:
    def test_identical_campaigns_diff_clean(self, spec):
        a = execute_campaign(spec, jobs=1)
        b = execute_campaign(spec, jobs=2)
        diff = a.diff(b)
        assert diff.identical
        assert diff.unchanged == spec.size
        assert "identical" in diff.format()

    def test_added_and_removed_points(self, spec):
        full = execute_campaign(spec)
        smaller = execute_campaign(smoke_spec(iterations=1, name="small"))
        # Different spec name => different keys: everything differs.
        diff = full.diff(smaller)
        assert len(diff.added) == spec.size
        assert len(diff.removed) == smaller.size
        assert not diff.identical

    def test_changed_points_report_their_fields(self, spec):
        result = execute_campaign(spec)
        rows = result.canonical_rows()
        doctored = [dict(row) for row in rows]
        doctored[0]["cycles"] = doctored[0]["cycles"] + 1
        diff = result.diff(doctored)
        assert len(diff.changed) == 1
        new_row, old_row = diff.changed[0]
        assert diff.changed_fields(new_row, old_row) == ["cycles"]
        assert "cycles" in diff.format()

    def test_diff_accepts_row_lists(self, spec):
        result = execute_campaign(spec)
        assert result.diff(result.canonical_rows()).identical

    def test_diff_cli_identical_and_different(self, spec, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        execute_campaign(spec, checkpoint=a)
        execute_campaign(spec, checkpoint=b)
        assert main(["diff", a, b]) == 0
        other = str(tmp_path / "other.jsonl")
        execute_campaign(smoke_spec(iterations=2), checkpoint=other)
        assert main(["diff", a, other]) == 1
        out = capsys.readouterr().out
        assert "identical" in out and "campaign diff" in out


class TestFollow:
    def test_follow_a_completed_checkpoint_exits_cleanly(self, spec, tmp_path):
        path = str(tmp_path / "done.jsonl")
        execute_campaign(spec, checkpoint=path)
        stream = io.StringIO()
        assert follow_checkpoint(path, idle_timeout=2.0, stream=stream) == 0
        out = stream.getvalue()
        assert "points/s" in out and "ETA" in out
        assert f"campaign complete: {spec.size} points" in out

    def test_follow_tails_a_live_checkpoint(self, spec, tmp_path):
        """The acceptance scenario: attach first, watch records stream in."""
        path = str(tmp_path / "live.jsonl")

        def produce():
            time.sleep(0.3)
            execute_campaign(spec, checkpoint=path)

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            stream = io.StringIO()
            code = follow_checkpoint(
                path, poll_seconds=0.05, idle_timeout=30.0, stream=stream
            )
        finally:
            producer.join()
        assert code == 0
        out = stream.getvalue()
        assert f"{spec.size}/{spec.size} points" in out
        assert "points/s" in out and "ETA" in out

    def test_follow_gives_up_on_an_idle_incomplete_checkpoint(self, spec, tmp_path):
        path = str(tmp_path / "stuck.jsonl")

        class Stall(RuntimeError):
            pass

        from repro.sweep.runners import SerialRunner

        class StallingRunner(SerialRunner):
            def run(self, points, keep_results=False):
                done = super().run(points[:3], keep_results=keep_results)
                raise Stall("killed mid-campaign")

        with pytest.raises(Stall):
            execute_campaign(spec, checkpoint=path, runner=StallingRunner())
        stream = io.StringIO()
        code = follow_checkpoint(
            path, poll_seconds=0.02, idle_timeout=0.2, stream=stream
        )
        assert code == 2
        assert "giving up" in stream.getvalue()

    def test_follow_cli_flag_and_subcommand(self, spec, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        execute_campaign(spec, checkpoint=path)
        assert main(["--follow", path, "--follow-timeout", "2"]) == 0
        assert main(["follow", path, "--timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("campaign complete") == 2


class TestAdaptiveStrategyCompletion:
    """Follow must trust the finished marker, not record counts, for
    adaptive strategies (halving writes more records than total_points,
    random fewer)."""

    def test_follow_completes_a_random_strategy_checkpoint(self, spec, tmp_path):
        from repro.sweep.strategies import RandomSearch

        path = str(tmp_path / "random.jsonl")
        result = execute_campaign(
            spec, checkpoint=path, strategy=RandomSearch(samples=5)
        )
        assert result.size == 5  # fewer records than the 18-point expansion
        stream = io.StringIO()
        assert follow_checkpoint(path, idle_timeout=2.0, stream=stream) == 0
        assert "campaign complete" in stream.getvalue()

    def test_follow_completes_a_halving_checkpoint(self, spec, tmp_path):
        from repro.sweep.strategies import SuccessiveHalving

        path = str(tmp_path / "halving.jsonl")
        result = execute_campaign(
            spec, checkpoint=path, strategy=SuccessiveHalving(eta=2)
        )
        assert result.size > spec.size  # both rungs are checkpointed
        stream = io.StringIO()
        assert follow_checkpoint(path, idle_timeout=2.0, stream=stream) == 0

    def test_follow_does_not_trust_counts_for_adaptive_strategies(self, spec, tmp_path):
        """Rung 0 of halving reaches total_points while rung 1 still runs;
        without the finished marker the follower must keep waiting."""
        from repro.sweep.strategies import SuccessiveHalving

        path = str(tmp_path / "unfinished.jsonl")
        execute_campaign(spec, checkpoint=path, strategy=SuccessiveHalving(eta=2))
        # Strip the finished marker: the file now looks like a halving
        # campaign killed between rung 1 completions.
        with open(path, encoding="utf-8") as fh:
            lines = [l for l in fh if '"kind": "finished"' not in l]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        stream = io.StringIO()
        assert follow_checkpoint(path, idle_timeout=0.2, stream=stream) == 2
        assert "giving up" in stream.getvalue()

    def test_compaction_preserves_the_finished_marker(self, spec, tmp_path):
        from repro.sweep.strategies import RandomSearch

        path = str(tmp_path / "compacted.jsonl")
        execute_campaign(spec, checkpoint=path, strategy=RandomSearch(samples=5))
        CampaignCheckpoint(path).compact()
        stream = io.StringIO()
        assert follow_checkpoint(path, idle_timeout=2.0, stream=stream) == 0

    def test_crashed_campaign_writes_no_finished_marker(self, spec, tmp_path):
        from repro.sweep.runners import SerialRunner

        class Crash(RuntimeError):
            pass

        class CrashingRunner(SerialRunner):
            def run(self, points, keep_results=False):
                super().run(points[:2], keep_results=keep_results)
                raise Crash()

        path = str(tmp_path / "crashed.jsonl")
        with pytest.raises(Crash):
            execute_campaign(spec, checkpoint=path, runner=CrashingRunner())
        kinds = [p["kind"] for p in checkpoint_lines(path)]
        assert "finished" not in kinds


class TestFollowerResync:
    """The stale-offset bugfixes: truncation/rewrite detection and torn-tail
    salvage instead of silent stalls."""

    def test_tailer_resyncs_after_truncation(self, spec, tmp_path):
        from repro.sweep.follow import _CHECKPOINT, _Follower

        path = str(tmp_path / "trunc.jsonl")
        execute_campaign(spec, checkpoint=path)
        tailer = _Follower(path, _CHECKPOINT)
        tailer.poll()
        assert tailer.count == spec.size
        # Truncate to the header plus three records: the offset now points
        # beyond EOF — the pre-fix tailer would stall here forever.
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:4])
        tailer.poll()
        assert tailer.resyncs == 1
        assert tailer.count == 3
        assert not tailer.finished

    def test_tailer_resyncs_after_compaction(self, spec, tmp_path):
        from repro.sweep.follow import _CHECKPOINT, _Follower

        path = str(tmp_path / "resync.jsonl")
        result = execute_campaign(spec, checkpoint=path)
        # Superseded duplicates make the file strictly longer than its
        # compacted form, the shape a long-lived campaign accumulates.
        with open(path, "a", encoding="utf-8") as fh:
            for record in result.records[:4]:
                payload = record.to_json_dict()
                payload["kind"] = "record"
                fh.write(json.dumps(payload, sort_keys=True) + "\n")
        tailer = _Follower(path, _CHECKPOINT)
        tailer.poll()
        assert tailer.count == spec.size
        CampaignCheckpoint(path).compact()
        tailer.poll()
        assert tailer.resyncs == 1
        assert tailer.count == spec.size  # count accuracy survives the rewrite
        assert tailer.complete

    def test_tailer_resyncs_when_a_rewrite_regrows_past_the_old_offset(
        self, spec, tmp_path
    ):
        """Compact reproduces the header byte-identically and the resumed
        campaign can regrow the file beyond the stale offset before the next
        poll — only the inode betrays the atomic rename."""
        from repro.sweep.follow import _CHECKPOINT, _Follower

        path = str(tmp_path / "regrow.jsonl")
        result = execute_campaign(spec, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        records = [l for l in lines if '"kind": "record"' in l]
        # Stage mid-campaign: header + 10 records + heavy duplicate churn.
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([lines[0]] + records[:10] + records[:10] * 3)
        tailer = _Follower(path, _CHECKPOINT)
        tailer.poll()
        assert tailer.count == 10
        stale_offset = tailer.offset
        CampaignCheckpoint(path).compact()
        # The campaign resumes and appends well past the follower's offset.
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(records[10:] + records * 3)
        assert os.path.getsize(path) > stale_offset  # size check is blind here
        tailer.poll()
        assert tailer.resyncs == 1
        assert tailer.count == spec.size

    def test_follow_survives_a_mid_tail_compact(self, spec, tmp_path):
        """The acceptance scenario: compact runs between polls; the follower
        prints a resync notice and still reaches an accurate N/N."""
        path = str(tmp_path / "midtail.jsonl")
        result = execute_campaign(spec, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        live_lines = lines[: 1 + spec.size - 3]  # header + all but 3 records
        tail_lines = lines[1 + spec.size - 3 :]
        # Stage a still-running campaign: superseded duplicates, no finish.
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(live_lines)
            for record in result.records[:4]:
                payload = record.to_json_dict()
                payload["kind"] = "record"
                fh.write(json.dumps(payload, sort_keys=True) + "\n")

        steps = {"n": 0}

        def fake_sleep(_seconds):
            steps["n"] += 1
            if steps["n"] == 1:
                CampaignCheckpoint(path).compact()
            elif steps["n"] == 2:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.writelines(tail_lines)

        stream = io.StringIO()
        code = follow_checkpoint(
            path, poll_seconds=0.01, idle_timeout=5.0, stream=stream, sleep=fake_sleep
        )
        out = stream.getvalue()
        assert code == 0
        assert "checkpoint rewritten, re-syncing" in out
        assert f"campaign complete: {spec.size} points" in out

    def test_torn_record_line_reports_incomplete_not_a_hang(self, spec, tmp_path):
        """A writer killed mid-record leaves an unparseable tail: follow must
        report the campaign incomplete with exit code 2, not sit at N-1/N."""
        path = str(tmp_path / "torn.jsonl")
        execute_campaign(spec, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            lines = [l for l in fh if '"kind": "finished"' not in l]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1].rstrip("\n")[: len(lines[-1]) // 2])  # torn mid-JSON
        stream = io.StringIO()
        code = follow_checkpoint(path, poll_seconds=0.02, idle_timeout=0.2, stream=stream)
        out = stream.getvalue()
        assert code == 2
        assert f"{spec.size - 1}/{spec.size}" in out
        assert "campaign incomplete" in out and "giving up" in out

    def test_torn_finished_marker_is_salvaged(self, spec, tmp_path):
        """A finished marker missing only its newline still completes the
        campaign: the tailer re-reads the tail before giving up."""
        from repro.sweep.strategies import RandomSearch

        # Random strategy: counts prove nothing, only the marker can
        # complete the campaign — so a salvaged tail is load-bearing.
        path = str(tmp_path / "salvage.jsonl")
        execute_campaign(spec, checkpoint=path, strategy=RandomSearch(samples=5))
        content = open(path, encoding="utf-8").read()
        assert content.endswith("\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[:-1])  # the writer died before the last newline
        stream = io.StringIO()
        code = follow_checkpoint(path, poll_seconds=0.02, idle_timeout=0.2, stream=stream)
        out = stream.getvalue()
        assert code == 0
        assert "salvaged torn trailing line" in out
        assert "campaign complete: 5 points" in out


class TestConcurrentCompaction:
    def test_compact_refuses_a_checkpoint_another_store_holds_open(self, spec, tmp_path):
        """The cross-process guard: compacting under a live appender would
        divert its appends to an unlinked inode."""
        pytest.importorskip("fcntl")
        path = str(tmp_path / "live.jsonl")
        execute_campaign(spec, checkpoint=path)
        appender = CampaignCheckpoint(path)
        appender.open_for_append(spec)
        try:
            with pytest.raises(RuntimeError, match="running campaign"):
                CampaignCheckpoint(path).compact()
        finally:
            appender.close()
        # Released: compaction now succeeds.
        assert CampaignCheckpoint(path).compact().kept == spec.size

    def test_two_campaigns_cannot_append_to_one_checkpoint(self, spec, tmp_path):
        pytest.importorskip("fcntl")
        path = str(tmp_path / "contended.jsonl")
        first = CampaignCheckpoint(path)
        first.open_for_append(spec)
        try:
            second = CampaignCheckpoint(path)
            with pytest.raises(RuntimeError, match="already open"):
                second.open_for_append(spec)
        finally:
            first.close()


class TestWorkerThroughput:
    def test_folds_completions_by_worker(self):
        workers = {}
        WorkerThroughput.fold_completion(
            workers, {"worker": 7, "started_ts": 2.0, "finished_ts": 3.0}
        )
        WorkerThroughput.fold_completion(
            workers, {"worker": 7, "started_ts": 1.0, "finished_ts": 2.5}
        )
        WorkerThroughput.fold_completion(workers, {"started_ts": 0.0})  # unstamped
        assert list(workers) == [7]
        stats = workers[7]
        assert (stats.points, stats.first_ts, stats.last_ts) == (2, 1.0, 3.0)
        assert stats.span_seconds == 2.0
        assert stats.points_per_second == 1.0

    def test_start_only_widens_backwards(self):
        stats = WorkerThroughput(worker=1, first_ts=5.0)
        stats.fold_start(6.0)
        stats.fold_start(None)
        assert stats.first_ts == 5.0
        stats.fold_start(4.0)
        assert stats.first_ts == 4.0

    def test_no_rate_without_a_positive_span(self):
        assert WorkerThroughput(worker=1, points=3).points_per_second is None
        flat = WorkerThroughput(worker=1, points=3, first_ts=2.0, last_ts=2.0)
        assert flat.span_seconds == 0.0 and flat.points_per_second is None
