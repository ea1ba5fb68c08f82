"""Event-stream tests: the event registry, ordering guarantees, observer
failure isolation and serial-vs-parallel event-count parity."""

import io

import pytest

from repro.sweep.campaign import execute_campaign
from repro.sweep.checkpoint import iter_jsonl
from repro.sweep.events import (
    _EVENT_TYPES,
    CampaignFinished,
    CampaignStarted,
    EventBus,
    EventLog,
    PointCompleted,
    PointFailed,
    PointResumed,
    PointRetried,
    PointStarted,
    PoolRestarted,
    ProgressReporter,
    RunEvent,
    RunObserver,
    WorkerLost,
)
from repro.sweep.record import PointRecord
from repro.sweep.spec import smoke_spec
from repro.sweep.strategies import SuccessiveHalving


@pytest.fixture()
def spec():
    return smoke_spec(iterations=1)


def run_logged(spec, extra_observers=(), **kwargs):
    log = EventLog()
    result = execute_campaign(spec, observers=[log, *extra_observers], **kwargs)
    return result, log


# One instance of every built-in event kind, paired with the ``data`` object
# the event log has always written for it (the on-disk format is fixed).
RECORD_DATA = {
    "key": "k1",
    "label": "smoke-11x11",
    "backend": "analytic",
    "system": "smache",
    "iterations": 2,
    "rung": 1,
    "cycles": 1234,
    "dram_words_read": 10,
    "dram_words_written": 5,
    "dram_bytes": 60,
    "operations": 500,
    "total_bits": 4096,
    "fmax_mhz": 250.0,
    "extra": {"stall": 1.5},
    "meta": {"worker": 7, "wall_seconds": 0.01},
}
FAILURE_DATA = {
    "key": "k2",
    "label": "bad",
    "backend": "analytic",
    "system": "smache",
    "iterations": 0,
    "rung": 0,
    "cycles": None,
    "dram_words_read": None,
    "dram_words_written": None,
    "dram_bytes": None,
    "operations": None,
    "total_bits": None,
    "fmax_mhz": None,
    "extra": {},
    "meta": {"status": "failed", "error": "boom", "attempts": 2},
}
RECORD = PointRecord.from_json_dict(RECORD_DATA)
FAILURE = PointRecord.failure(
    key="k2", label="bad", backend="analytic", system="smache", error="boom", attempts=2
)
EXAMPLES = [
    (
        CampaignStarted(
            name="smoke",
            fingerprint="abc",
            total_points=18,
            jobs=2,
            strategy="grid",
            checkpoint_path="c.jsonl",
        ),
        {
            "name": "smoke",
            "fingerprint": "abc",
            "total_points": 18,
            "jobs": 2,
            "strategy": "grid",
            "checkpoint_path": "c.jsonl",
        },
    ),
    (
        PointStarted(key="k1", label="smoke-11x11", rung=1, worker=7, ts=1.5, seq=3),
        {"key": "k1", "label": "smoke-11x11", "rung": 1, "worker": 7, "ts": 1.5, "seq": 3},
    ),
    (PointCompleted(record=RECORD), {"record": RECORD_DATA}),
    (PointResumed(record=RECORD), {"record": RECORD_DATA}),
    (
        PointRetried(
            key="k1",
            label="smoke-11x11",
            rung=1,
            attempt=2,
            error="flaky",
            delay_s=0.25,
            reason="deadline",
            worker=7,
        ),
        {
            "key": "k1",
            "label": "smoke-11x11",
            "rung": 1,
            "attempt": 2,
            "error": "flaky",
            "delay_s": 0.25,
            "reason": "deadline",
            "worker": 7,
        },
    ),
    (PointFailed(record=FAILURE), {"record": FAILURE_DATA}),
    (
        WorkerLost(worker=7, inflight=3, error="killed"),
        {"worker": 7, "inflight": 3, "error": "killed"},
    ),
    (
        PoolRestarted(restarts=1, jobs=2, reason="broken pool"),
        {"restarts": 1, "jobs": 2, "reason": "broken pool"},
    ),
    (
        CampaignFinished(
            name="smoke",
            total_points=18,
            evaluated=17,
            resumed=0,
            wall_seconds=1.25,
            failed=1,
        ),
        {
            "name": "smoke",
            "total_points": 18,
            "evaluated": 17,
            "resumed": 0,
            "wall_seconds": 1.25,
            "failed": 1,
        },
    ),
]


class TestEventRegistry:
    def test_examples_cover_every_built_in_kind(self):
        built_in = {
            kind
            for kind, cls in _EVENT_TYPES.items()
            if cls.__module__ == "repro.sweep.events"
        }
        assert {event.kind for event, _data in EXAMPLES} == built_in
        assert "checkpoint_flushed" not in _EVENT_TYPES

    @pytest.mark.parametrize(
        "event, data", EXAMPLES, ids=[event.kind for event, _data in EXAMPLES]
    )
    def test_round_trip_keeps_the_logged_data(self, event, data):
        assert _EVENT_TYPES[event.kind] is type(event)
        assert event.to_json() == data
        assert RunEvent.from_json(event.kind, event.to_json()) == event

    def test_unknown_and_malformed_lines_decode_to_none(self):
        assert RunEvent.from_json("from_the_future", {}) is None
        assert RunEvent.from_json(["not", "a", "kind"], {}) is None
        assert RunEvent.from_json("point_started", {"key": "x"}) is None  # no label
        assert RunEvent.from_json("point_started", "oops") is None
        assert RunEvent.from_json("point_completed", {}) is None
        assert RunEvent.from_json("point_completed", {"record": 5}) is None
        # Unknown keys are ignored, so old readers survive new fields.
        started = RunEvent.from_json("point_started", {"key": "k", "label": "l", "new": 1})
        assert started == PointStarted(key="k", label="l")

    @pytest.mark.parametrize("base", [RunEvent, PointStarted])
    def test_a_subclass_without_its_own_kind_is_refused(self, base):
        with pytest.raises(TypeError, match="must declare its own kind"):

            class Tagless(base):
                pass

    def test_a_duplicate_kind_is_refused(self):
        with pytest.raises(TypeError, match="already registered by PointStarted"):

            class Impostor(RunEvent):
                kind = "point_started"

        assert _EVENT_TYPES["point_started"] is PointStarted


class TestOrderingGuarantees:
    def test_campaign_events_bracket_the_stream(self, spec):
        _result, log = run_logged(spec)
        kinds = log.kinds()
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("campaign_started") == 1
        assert kinds.count("campaign_finished") == 1

    def test_campaign_started_carries_the_plan(self, spec):
        _result, log = run_logged(spec, jobs=1)
        started = log.events[0]
        assert isinstance(started, CampaignStarted)
        assert started.total_points == spec.size
        assert started.fingerprint == spec.fingerprint()
        assert started.strategy == "grid"

    def test_point_started_precedes_its_completion(self, spec):
        for jobs in (1, 2):
            _result, log = run_logged(spec, jobs=jobs)
            started_at = {}
            for index, event in enumerate(log.events):
                if isinstance(event, PointStarted):
                    started_at.setdefault(event.key, index)
                elif isinstance(event, PointCompleted):
                    assert started_at[event.record.key] < index

    def test_completion_is_durable_first(self, spec, tmp_path):
        """The checkpointer is subscribed ahead of every user observer, so
        a PointCompleted a user observer receives is already on disk."""
        for jobs in (1, 2):
            path = str(tmp_path / f"durable-{jobs}.jsonl")
            on_disk_when_seen = []

            class Probe(RunObserver):
                def on_point_completed(self, event):
                    keys = {
                        p.get("key") for p in iter_jsonl(path) if p.get("kind") == "record"
                    }
                    on_disk_when_seen.append(event.record.key in keys)

            execute_campaign(spec, checkpoint=path, jobs=jobs, observers=[Probe()])
            assert on_disk_when_seen == [True] * spec.size, jobs

    def test_finished_event_matches_the_result(self, spec):
        result, log = run_logged(spec)
        finished = log.events[-1]
        assert isinstance(finished, CampaignFinished)
        assert finished.evaluated == result.evaluated == spec.size
        assert finished.resumed == result.resumed == 0
        assert finished.total_points == spec.size


class TestEventCountParity:
    """A serial and a parallel run publish the same event counts."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fresh_run_parity(self, spec, jobs):
        _serial_result, serial = run_logged(spec, jobs=1)
        _parallel_result, parallel = run_logged(spec, jobs=jobs)
        for kind in (
            "campaign_started",
            "point_started",
            "point_completed",
            "point_resumed",
            "campaign_finished",
        ):
            assert serial.count(kind) == parallel.count(kind), kind
        assert serial.count("point_started") == spec.size
        assert serial.count("point_completed") == spec.size
        # Completion *keys* agree too; only their order may differ.
        completed = lambda log: sorted(
            e.record.key for e in log.events if isinstance(e, PointCompleted)
        )
        assert completed(serial) == completed(parallel)

    def test_resumed_run_emits_point_resumed_instead(self, spec, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        execute_campaign(spec, checkpoint=path)
        result, log = run_logged(spec, checkpoint=path, jobs=2)
        assert result.evaluated == 0
        assert log.count("point_completed") == 0
        assert log.count("point_started") == 0
        assert log.count("point_resumed") == spec.size
        resumed = [e for e in log.events if isinstance(e, PointResumed)]
        assert all(e.record.cycles is not None for e in resumed)

    def test_multi_rung_parity(self, spec):
        _s, serial = run_logged(spec, jobs=1, strategy=SuccessiveHalving(eta=2))
        _p, parallel = run_logged(spec, jobs=2, strategy=SuccessiveHalving(eta=2))
        assert serial.count("point_completed") == parallel.count("point_completed")
        assert serial.count("point_started") == parallel.count("point_started")


class FailingObserver(RunObserver):
    """Raises on every completion after ``allow`` successes."""

    def __init__(self, allow: int = 0) -> None:
        self.allow = allow
        self.seen = 0

    def on_point_completed(self, event):
        self.seen += 1
        if self.seen > self.allow:
            raise RuntimeError(f"observer exploded at event {self.seen}")


class TestObserverIsolation:
    def test_failing_observer_does_not_abort_the_campaign(self, spec):
        failing = FailingObserver(allow=2)
        log = EventLog()
        result = execute_campaign(spec, observers=[failing, log])
        assert result.size == spec.size
        assert len(result.observer_errors) == spec.size - 2
        assert all(err.observer is failing for err in result.observer_errors)
        # The observer registered after the failing one missed nothing.
        assert log.count("point_completed") == spec.size

    def test_failing_observer_does_not_change_the_canonical_result(self, spec):
        clean = execute_campaign(spec)
        dirty = execute_campaign(spec, observers=[FailingObserver()])
        assert dirty.to_json() == clean.to_json()
        assert dirty.observer_errors  # but the failures were recorded

    def test_plain_callable_observers_are_isolated_too(self, spec):
        calls = []

        def good(event):
            calls.append(event.kind)

        def bad(event):
            raise ValueError("callable observer down")

        result = execute_campaign(spec, observers=[bad, good])
        assert len(calls) == len(result.observer_errors)
        assert calls[0] == "campaign_started" and calls[-1] == "campaign_finished"

    def test_report_mentions_observer_errors(self, spec):
        result = execute_campaign(spec, observers=[FailingObserver()])
        assert "observer errors" in result.format()


class TestEventBusDispatch:
    def test_reentrant_publish_is_queued_not_interleaved(self):
        class Echo(RunObserver):
            """Publishes a follow-up event while the first is in flight."""

            def __init__(self, bus):
                self.bus = bus

            def on_point_started(self, event):
                self.bus.publish(PointCompleted(record=None))

        bus = EventBus()
        echo = Echo(bus)
        first, second = EventLog(), EventLog()
        bus.subscribe(first)
        bus.subscribe(echo)
        bus.subscribe(second)
        bus.publish(PointStarted(key="k", label="k"))
        # Every observer saw the same total order: the reentrant event was
        # delivered after the triggering event reached *all* observers.
        assert first.kinds() == ["point_started", "point_completed"]
        assert second.kinds() == ["point_started", "point_completed"]

    def test_critical_observer_failures_propagate(self):
        bus = EventBus()

        class Critical(RunObserver):
            def on_point_started(self, event):
                raise RuntimeError("critical down")

        bus.subscribe(Critical(), critical=True)
        with pytest.raises(RuntimeError, match="critical down"):
            bus.publish(PointStarted(key="k", label="k"))

    def test_unknown_events_fall_through_run_observer(self):
        class Quiet(RunObserver):
            pass

        Quiet().on_event(RunEvent())  # no handler, no error


class TestProgressReporter:
    def test_reports_counts_rate_and_eta(self, spec):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        execute_campaign(spec, observers=[reporter])
        out = stream.getvalue()
        assert f"{spec.size}/{spec.size} points" in out
        assert "points/s" in out and "ETA" in out
        assert "campaign started" in out and "campaign finished" in out

    def test_counts_resumed_points(self, spec, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        execute_campaign(spec, checkpoint=path)
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        execute_campaign(spec, checkpoint=path, observers=[reporter])
        assert reporter.resumed == spec.size
        assert reporter.evaluated == 0
        assert f"{spec.size} resumed" in stream.getvalue()

    def test_throttling_suppresses_intermediate_lines(self, spec):
        stream = io.StringIO()
        # An hour between updates: only unthrottled lines may print.
        reporter = ProgressReporter(stream=stream, min_interval=3600.0)
        execute_campaign(spec, observers=[reporter])
        progress_lines = [
            line for line in stream.getvalue().splitlines() if "points/s" in line
        ]
        # First update and the forced final update.
        assert len(progress_lines) <= 2


class TestLegacyRunnerContract:
    """A PR-2-era custom runner that only *returns* records (publishing no
    events) must still checkpoint, aggregate and report correctly."""

    def make_runner(self):
        from repro.sweep.runners import Runner, SerialRunner, _evaluate_point

        class ReturnOnlyRunner(Runner):
            jobs = 1

            def run(self, points, on_result=None, keep_results=False):
                return [_evaluate_point(p, keep_result=keep_results) for p in points]

        return ReturnOnlyRunner()

    def test_returned_records_are_folded_into_the_event_stream(self, spec):
        log = EventLog()
        result = execute_campaign(spec, runner=self.make_runner(), observers=[log])
        assert result.size == spec.size
        assert result.evaluated == spec.size
        assert log.count("point_completed") == spec.size
        reference = execute_campaign(spec)
        assert result.to_json() == reference.to_json()

    def test_legacy_runner_still_checkpoints_and_resumes(self, spec, tmp_path):
        path = str(tmp_path / "legacy.jsonl")
        first = execute_campaign(spec, runner=self.make_runner(), checkpoint=path)
        assert first.evaluated == spec.size
        resumed = execute_campaign(spec, runner=self.make_runner(), checkpoint=path)
        assert resumed.evaluated == 0 and resumed.resumed == spec.size


class TestSessionWideProgressReset:
    def test_reporter_counters_reset_per_campaign(self, spec):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval=0.0)
        execute_campaign(spec, observers=[reporter])
        execute_campaign(spec, observers=[reporter])
        assert reporter.completed == spec.size  # not 2x: second campaign reset
        out = stream.getvalue()
        assert f"{2 * spec.size}/{spec.size}" not in out
        assert out.count("campaign finished") == 2
