"""Durable event-log persistence, deterministic replay and worker attribution."""

import io
import json
import os
import re

import pytest

from repro.api import Workbench
from repro.sweep.__main__ import main
from repro.sweep.campaign import execute_campaign
from repro.sweep.eventlog import (
    EVENT_LOG_FORMAT,
    CampaignReplay,
    EventLogMismatch,
    EventLogObserver,
    default_event_log_path,
)
from repro.sweep.events import (
    CampaignFinished,
    CampaignStarted,
    PointCompleted,
    PointResumed,
    PointStarted,
    ProgressReporter,
    RunEvent,
)
from repro.sweep.follow import follow_campaign, follow_event_log
from repro.sweep.spec import smoke_spec


@pytest.fixture()
def spec():
    return smoke_spec(iterations=1)


def log_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestEventLogWriting:
    def test_header_is_fingerprint_guarded_and_versioned(self, spec, tmp_path):
        path = str(tmp_path / "log.events.jsonl")
        execute_campaign(spec, event_log=path)
        header = log_lines(path)[0]
        assert header["kind"] == "header"
        assert header["log"] == "events"
        assert header["format"] == EVENT_LOG_FORMAT
        assert header["fingerprint"] == spec.fingerprint()
        assert header["total_points"] == spec.size
        assert header["strategy"] == "grid"

    def test_every_event_lands_with_seq_and_ts(self, spec, tmp_path):
        path = str(tmp_path / "log.events.jsonl")
        checkpoint = str(tmp_path / "cp.jsonl")
        execute_campaign(spec, checkpoint=checkpoint, event_log=path)
        events = [p for p in log_lines(path) if p["kind"] != "header"]
        kinds = [p["kind"] for p in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("point_started") == spec.size
        assert kinds.count("point_completed") == spec.size
        assert "checkpoint_flushed" not in kinds
        assert [p["seq"] for p in events] == list(range(1, len(events) + 1))
        assert all(isinstance(p["ts"], float) for p in events)

    def test_point_events_carry_worker_attribution(self, spec, tmp_path):
        path = str(tmp_path / "attr.events.jsonl")
        execute_campaign(spec, event_log=path, jobs=2)
        payloads = log_lines(path)
        starts = {
            p["data"]["key"]: p["data"]
            for p in payloads
            if p["kind"] == "point_started"
        }
        completions = [p["data"]["record"] for p in payloads if p["kind"] == "point_completed"]
        assert len(completions) == spec.size
        for record in completions:
            start = starts[record["key"]]
            meta = record["meta"]
            # The start was re-emitted from the worker's own begin stamp.
            assert start["worker"] == meta["worker"]
            assert start["ts"] == meta["started_ts"]
            assert start["seq"] == meta["worker_seq"]
            assert meta["finished_ts"] >= meta["started_ts"]

    def test_fingerprint_mismatch_is_refused(self, spec, tmp_path):
        path = str(tmp_path / "guard.events.jsonl")
        execute_campaign(spec, event_log=path)
        other = smoke_spec(iterations=2)  # different space, different fingerprint
        with pytest.raises(EventLogMismatch, match="refusing"):
            execute_campaign(other, event_log=path)
        # The refused campaign appended nothing.
        kinds = [p["kind"] for p in log_lines(path)]
        assert kinds.count("campaign_started") == 1

    def test_resume_appends_a_second_session(self, spec, tmp_path):
        log = str(tmp_path / "resume.events.jsonl")
        checkpoint = str(tmp_path / "resume.jsonl")
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        payloads = log_lines(log)
        kinds = [p["kind"] for p in payloads]
        assert kinds.count("header") == 1  # one file, one guard
        assert kinds.count("campaign_started") == 2
        assert kinds.count("point_resumed") == spec.size
        # seq stays monotonic across appended sessions.
        seqs = [p["seq"] for p in payloads if p["kind"] != "header"]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_torn_trailing_line_is_terminated_on_reopen(self, spec, tmp_path):
        log = str(tmp_path / "torn.events.jsonl")
        checkpoint = str(tmp_path / "torn.jsonl")
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "point_sta')  # a killed writer's fragment
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        # The fragment was newline-terminated (readers drop it as corrupt)
        # and the second session's lines parse cleanly after it.
        from repro.sweep.checkpoint import iter_jsonl

        kinds = [p["kind"] for p in iter_jsonl(log)]
        assert kinds.count("campaign_started") == 2
        assert kinds[-1] == "campaign_finished"

    def test_two_campaigns_cannot_append_to_one_event_log(self, spec, tmp_path):
        pytest.importorskip("fcntl")
        path = str(tmp_path / "locked.events.jsonl")
        first = EventLogObserver(path)
        first.open(name=spec.name, fingerprint=spec.fingerprint())
        try:
            second = EventLogObserver(path)
            with pytest.raises(RuntimeError, match="already open"):
                second.open(name=spec.name, fingerprint=spec.fingerprint())
        finally:
            first.close()
        # Released: a fresh session appends normally.
        execute_campaign(spec, event_log=path)
        assert [p["kind"] for p in log_lines(path)][-1] == "campaign_finished"

    def test_mismatch_releases_the_checkpoint_lock(self, spec, tmp_path):
        """A refused event log must not leave the checkpoint flocked: the
        corrected retry (and compaction) must succeed in-process."""
        from repro.sweep.checkpoint import CampaignCheckpoint

        log = str(tmp_path / "other.events.jsonl")
        execute_campaign(smoke_spec(iterations=2), event_log=log)
        checkpoint = str(tmp_path / "c.jsonl")
        with pytest.raises(EventLogMismatch):
            execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        # Neither file is wedged by the failed attempt.
        result = execute_campaign(
            spec, checkpoint=checkpoint, event_log=str(tmp_path / "ok.events.jsonl")
        )
        assert result.evaluated == spec.size
        CampaignCheckpoint(checkpoint).compact()

    def test_canonical_json_is_identical_with_and_without_event_log(self, spec, tmp_path):
        bare = execute_campaign(spec)
        logged = execute_campaign(spec, event_log=str(tmp_path / "c.events.jsonl"))
        assert bare.to_json() == logged.to_json()
        assert logged.event_log_path is not None
        assert "event log:" in logged.format()


class TestPayloadRoundTrip:
    def test_typed_events_survive_the_round_trip(self, spec, tmp_path):
        path = str(tmp_path / "types.events.jsonl")
        checkpoint = str(tmp_path / "types.jsonl")
        result = execute_campaign(spec, checkpoint=checkpoint, event_log=path)
        events = list(CampaignReplay(path).events())
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        assert events[0].fingerprint == spec.fingerprint()
        completed = [e for e in events if isinstance(e, PointCompleted)]
        assert sorted(e.record.key for e in completed) == sorted(
            r.key for r in result.records
        )
        # Record payloads round-trip canonically.
        by_key = {r.key: r for r in result.records}
        for event in completed:
            assert event.record.canonical() == by_key[event.record.key].canonical()
        started = [e for e in events if isinstance(e, PointStarted)]
        assert all(e.worker is not None and e.ts is not None for e in started)

    def test_unknown_kinds_are_skipped_not_fatal(self, spec, tmp_path):
        path = str(tmp_path / "fwd.events.jsonl")
        execute_campaign(spec, event_log=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "from_the_future", "seq": 10**6, "ts": 0.0}) + "\n")
        stats = CampaignReplay(path).replay()
        assert stats.skipped == 1
        assert stats.finished
        assert RunEvent.from_json("from_the_future", {}) is None


class TestCampaignReplay:
    def test_replay_is_deterministic(self, spec, tmp_path):
        """The satellite contract: two replays yield byte-identical output."""
        path = str(tmp_path / "det.events.jsonl")
        execute_campaign(spec, event_log=path, jobs=2)

        def replay_once():
            replay = CampaignReplay(path)
            stream = io.StringIO()
            reporter = ProgressReporter(
                stream=stream, min_interval=0.0, clock=replay.clock
            )
            stats = replay.replay(reporter)
            assert stats.finished
            return stream.getvalue()

        first, second = replay_once(), replay_once()
        assert first == second
        assert f"{spec.size}/{spec.size} points" in first

    def test_replay_reproduces_the_live_final_progress_line(self, spec, tmp_path):
        """The acceptance contract: the replayed reporter ends exactly where
        the live one did."""
        path = str(tmp_path / "live.events.jsonl")
        live = io.StringIO()
        execute_campaign(
            spec,
            event_log=path,
            observers=[ProgressReporter(stream=live, min_interval=0.0)],
        )
        replay = CampaignReplay(path)
        replayed = io.StringIO()
        replay.replay(
            ProgressReporter(stream=replayed, min_interval=0.0, clock=replay.clock)
        )
        assert (
            live.getvalue().splitlines()[-1] == replayed.getvalue().splitlines()[-1]
        )
        assert "campaign finished" in live.getvalue().splitlines()[-1]

    def test_replay_counts_sessions_and_completion(self, spec, tmp_path):
        log = str(tmp_path / "sessions.events.jsonl")
        checkpoint = str(tmp_path / "sessions.jsonl")
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        replay = CampaignReplay(log)
        events = []
        stats = replay.replay(events.append)
        assert stats.campaigns == 2
        assert stats.finished
        assert stats.events == len(events)
        assert sum(1 for e in events if isinstance(e, PointResumed)) == spec.size

    def test_replay_refuses_a_wrong_fingerprint(self, spec, tmp_path):
        path = str(tmp_path / "fp.events.jsonl")
        execute_campaign(spec, event_log=path)
        assert CampaignReplay(path, fingerprint=spec.fingerprint()).replay().finished
        with pytest.raises(EventLogMismatch):
            CampaignReplay(path, fingerprint="not-this-campaign")

    def test_replay_refuses_a_checkpoint_file(self, spec, tmp_path):
        checkpoint = str(tmp_path / "cp.jsonl")
        execute_campaign(spec, checkpoint=checkpoint)
        with pytest.raises(EventLogMismatch, match="not an event log"):
            CampaignReplay(checkpoint)

    def test_replay_of_an_unfinished_log_reports_incomplete(self, spec, tmp_path):
        path = str(tmp_path / "crash.events.jsonl")
        execute_campaign(spec, event_log=path)
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as fh:  # drop campaign_finished
            fh.writelines(l for l in lines if '"campaign_finished"' not in l)
        stats = CampaignReplay(path).replay()
        assert not stats.finished
        assert "INCOMPLETE" in stats.format()


class TestFollowEventLog:
    def test_follow_shows_starts_in_flight_and_worker_rates(self, spec, tmp_path):
        path = str(tmp_path / "f.events.jsonl")
        execute_campaign(spec, event_log=path, jobs=2)
        stream = io.StringIO()
        assert follow_event_log(path, idle_timeout=2.0, stream=stream) == 0
        out = stream.getvalue()
        assert "in flight" in out
        assert f"campaign complete: {spec.size} points" in out
        assert "worker " in out and "point(s)" in out
        per_worker = re.findall(r"worker \d+: (\d+) point\(s\)", out)
        assert per_worker, "a pool campaign must attribute work to workers"
        assert sum(map(int, per_worker)) == spec.size

    def test_follow_campaign_prefers_the_sidecar_event_log(self, spec, tmp_path):
        checkpoint = str(tmp_path / "c.jsonl")
        execute_campaign(
            spec, checkpoint=checkpoint, event_log=default_event_log_path(checkpoint)
        )
        stream = io.StringIO()
        assert follow_campaign(checkpoint, idle_timeout=2.0, stream=stream) == 0
        assert "following events" in stream.getvalue()

    def test_follow_campaign_ignores_a_stale_sidecar(self, spec, tmp_path):
        """A campaign re-run *without* --event-log must not be shadowed by
        an old sidecar: the newer checkpoint wins."""
        checkpoint = str(tmp_path / "c.jsonl")
        sidecar = default_event_log_path(checkpoint)
        execute_campaign(spec, checkpoint=checkpoint, event_log=sidecar)
        # The re-run resumes the checkpoint but logs no events; make the
        # sidecar unambiguously older than the refreshed checkpoint.
        old = os.path.getmtime(sidecar) - 100
        os.utime(sidecar, (old, old))
        execute_campaign(spec, checkpoint=checkpoint)
        stream = io.StringIO()
        assert follow_campaign(checkpoint, idle_timeout=2.0, stream=stream) == 0
        assert "following events" not in stream.getvalue()

    def test_follow_campaign_falls_back_to_legacy_checkpoints(self, spec, tmp_path):
        checkpoint = str(tmp_path / "legacy.jsonl")
        execute_campaign(spec, checkpoint=checkpoint)
        stream = io.StringIO()
        assert follow_campaign(checkpoint, idle_timeout=2.0, stream=stream) == 0
        out = stream.getvalue()
        assert "following events" not in out
        assert f"campaign complete: {spec.size} points" in out

    def test_follow_event_log_gives_up_on_a_crashed_campaign(self, spec, tmp_path):
        path = str(tmp_path / "crashed.events.jsonl")
        execute_campaign(spec, event_log=path)
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                l
                for l in lines
                if '"campaign_finished"' not in l and '"point_completed"' not in l
            )
        stream = io.StringIO()
        assert follow_event_log(path, idle_timeout=0.2, stream=stream) == 2
        assert "campaign incomplete" in stream.getvalue()


def insert_after(path, lines, index):
    """Insert raw JSON lines after the ``index``-th line of a log."""
    with open(path, encoding="utf-8") as fh:
        existing = fh.readlines()
    existing[index + 1 : index + 1] = [json.dumps(line) + "\n" for line in lines]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(existing)


#: Lines of a known kind that cannot build their event.
MALFORMED = [
    {"kind": "point_started", "seq": 999, "ts": 1.0, "data": {"key": "x"}},
    {"kind": "point_completed", "seq": 1000, "ts": 1.0, "data": "oops"},
    {"kind": "point_failed", "seq": 1001, "ts": 1.0, "data": {"record": 5}},
]


class TestDamagedAndLegacyLogs:
    def test_replay_skips_malformed_lines_of_known_kinds(self, spec, tmp_path, capsys):
        log = str(tmp_path / "damaged.events.jsonl")
        assert main(["--event-log", log]) == 0
        insert_after(log, MALFORMED, 3)
        stats = CampaignReplay(log).replay()
        assert stats.skipped == len(MALFORMED)
        assert stats.finished and stats.failed == 0
        capsys.readouterr()
        # Exit codes follow the campaign alone: finished and clean is 0.
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert f"campaign finished: {spec.size} evaluated" in out
        assert f"{len(MALFORMED)} undecodable line(s) skipped" in out

    def test_follow_ignores_malformed_lines_of_known_kinds(self, spec, tmp_path):
        log = str(tmp_path / "damaged.events.jsonl")
        execute_campaign(spec, event_log=log)
        insert_after(log, MALFORMED, 3)
        stream = io.StringIO()
        assert follow_event_log(log, idle_timeout=2.0, stream=stream) == 0
        out = stream.getvalue()
        assert f"campaign complete: {spec.size} points" in out
        assert "0 in flight" in out
        assert "1 in flight" not in out  # no phantom start of key "x"

    def test_legacy_checkpoint_flushed_lines_replay_the_same(self, spec, tmp_path, capsys):
        """Logs written while the checkpointer still published a
        ``checkpoint_flushed`` event after every append replay to the same
        progress lines and exit code; those lines count as skipped."""
        checkpoint = str(tmp_path / "legacy.jsonl")
        log = default_event_log_path(checkpoint)
        execute_campaign(spec, checkpoint=checkpoint, event_log=log)
        lines = log_lines(log)
        legacy, flushed = [], 0
        for payload in lines:
            legacy.append(payload)
            if payload["kind"] == "point_completed":
                flushed += 1
                legacy.append(
                    {
                        "kind": "checkpoint_flushed",
                        "ts": payload["ts"] + 1e-4,
                        "data": {
                            "path": checkpoint,
                            "key": payload["data"]["record"]["key"],
                            "flushed": flushed,
                        },
                    }
                )
        for seq, payload in enumerate(legacy[1:], start=1):
            payload["seq"] = seq
        legacy_log = str(tmp_path / "legacy-format.events.jsonl")
        with open(legacy_log, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(p, sort_keys=True) + "\n" for p in legacy)

        def replay_output(path):
            capsys.readouterr()
            code = main(["replay", path])
            out = capsys.readouterr().out.splitlines()
            return code, out[:-1], out[-1]

        code, progress, summary = replay_output(log)
        legacy_code, legacy_progress, legacy_summary = replay_output(legacy_log)
        assert legacy_code == code == 0
        assert legacy_progress == progress
        assert any(
            f"campaign finished: {spec.size} evaluated" in line for line in progress
        )
        assert legacy_summary.endswith("campaign finished")
        assert f"{spec.size} undecodable line(s) skipped" in legacy_summary
        assert CampaignReplay(legacy_log).replay().skipped == spec.size


class TestWorkbenchIntegration:
    def test_with_event_log_builder_step(self, spec, tmp_path):
        path = str(tmp_path / "wb.events.jsonl")
        wb = Workbench()
        result = wb.sweep(spec).with_event_log(path).run()
        assert result.event_log_path == path
        assert CampaignReplay(path).replay().finished

    def test_run_accepts_a_prepared_observer(self, spec, tmp_path):
        path = str(tmp_path / "obs.events.jsonl")
        result = Workbench().run(spec, event_log=EventLogObserver(path))
        assert result.event_log_path == path
        assert os.path.getsize(path) > 0


class TestEventLogCLI:
    def test_event_log_flag_writes_the_sidecar(self, spec, tmp_path, capsys):
        checkpoint = str(tmp_path / "cli.jsonl")
        assert main(["--checkpoint", checkpoint, "--event-log"]) == 0
        sidecar = default_event_log_path(checkpoint)
        assert os.path.exists(sidecar)
        assert "event log:" in capsys.readouterr().out

    def test_bare_event_log_flag_requires_a_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["--event-log"])

    def test_replay_subcommand(self, spec, tmp_path, capsys):
        log = str(tmp_path / "replay.events.jsonl")
        assert main(["--event-log", log]) == 0
        capsys.readouterr()
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out
        assert "finished" in out and "replayed" in out

    def test_replay_subcommand_flags_incomplete_logs(self, spec, tmp_path, capsys):
        log = str(tmp_path / "incomplete.events.jsonl")
        assert main(["--event-log", log]) == 0
        lines = open(log, encoding="utf-8").read().splitlines(keepends=True)
        with open(log, "w", encoding="utf-8") as fh:
            fh.writelines(l for l in lines if '"campaign_finished"' not in l)
        assert main(["replay", log, "--quiet"]) == 2
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_follow_subcommand_reads_event_logs(self, spec, tmp_path, capsys):
        log = str(tmp_path / "fcli.events.jsonl")
        assert main(["--event-log", log, "--jobs", "2"]) == 0
        assert main(["follow", log, "--timeout", "2"]) == 0
        assert "campaign complete" in capsys.readouterr().out
