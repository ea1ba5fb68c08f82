"""The runners' analytic fast lane must be invisible in canonical output.

Runs of consecutive ``analytic`` points are priced in one vectorized call
(:mod:`repro.pipeline.analytic_batch`).  The scalar reference is the same
campaign with :class:`ScalarAnalytic` registered as ``analytic``: a subclass,
so the lane steps aside and every point goes through ``evaluate``, which
prices it with the independent literal model of ``analytic_oracle``.  The
contract tested here: canonical campaign JSON is byte-identical either way
(serial and pooled), every point still gets exactly one ``PointStarted`` and
one ``PointCompleted``, batch attribution lands in ``meta``, and the lane
steps aside for mixed-backend spans, singleton runs, and stand-in backends
registered under ``analytic``.
"""

from contextlib import contextmanager

import pytest

from repro.api import Workbench
from repro.pipeline import StencilProblem, register_backend
from repro.pipeline.backends import _BACKENDS, AnalyticBackend, Backend, get_backend
from repro.sweep.events import PointCompleted, PointStarted
from repro.sweep.record import canonical_json
from repro.sweep.runners import ProcessPoolRunner, SerialRunner, _split_spans
from repro.sweep.spec import SweepSpec, smoke_spec
from repro.sweep.strategies import SuccessiveHalving
from tests.pipeline import analytic_oracle


@pytest.fixture(scope="module")
def points():
    return smoke_spec(iterations=2).expand()


class ScalarAnalytic(AnalyticBackend):
    """The oracle model through the base class's per-point loop, never the engine."""

    evaluate_many = Backend.evaluate_many

    def evaluate(self, design, request):
        return analytic_oracle.evaluate(design, request)


@contextmanager
def scalar_analytic():
    """Register :class:`ScalarAnalytic` as ``analytic`` for a ``with`` block."""
    real = _BACKENDS["analytic"]
    register_backend("analytic", ScalarAnalytic)
    try:
        yield
    finally:
        register_backend("analytic", real)


def scalar_reference(runner, points, **kwargs):
    """Run with the lane out of the way: the per-point scalar loop."""
    with scalar_analytic():
        return runner.run(points, **kwargs)


class TestByteIdentity:
    def test_serial_fast_lane_matches_scalar(self, points):
        scalar = scalar_reference(SerialRunner(), points)
        fast = SerialRunner().run(points)
        assert canonical_json(fast) == canonical_json(scalar)

    def test_pool_fast_lane_matches_scalar(self, points):
        scalar = scalar_reference(SerialRunner(), points)
        fast = ProcessPoolRunner(jobs=2).run(points)
        assert canonical_json(fast) == canonical_json(scalar)

    def test_records_stay_in_input_order(self, points):
        records = SerialRunner().run(points)
        assert [r.key for r in records] == [p.key() for p in points]

    def test_halving_campaign_matches_scalar(self):
        spec = SweepSpec(
            name="halving-lane",
            base=StencilProblem.paper_example(11, 11),
            grid_sizes=((11, 11), (13, 13), (15, 15), (17, 17)),
            iterations=1,
        )
        with scalar_analytic():
            scalar = Workbench().run(
                spec, strategy=SuccessiveHalving(eta=2, verify_backend="analytic")
            )
        fast = Workbench().run(
            spec, strategy=SuccessiveHalving(eta=2, verify_backend="analytic")
        )
        assert canonical_json(fast.records) == canonical_json(scalar.records)


class TestBatchAttribution:
    def test_serial_meta_carries_batch_stamps(self, points):
        records = SerialRunner().run(points)
        sizes = {r.meta["batch_size"] for r in records}
        assert sizes == {len(points)}
        assert [r.meta["batch_index"] for r in records] == list(range(len(points)))
        # Attribution stamps are still per point.
        seqs = [r.meta["worker_seq"] for r in records]
        assert seqs == sorted(seqs)
        assert all("started_ts" in r.meta and "finished_ts" in r.meta for r in records)

    def test_pool_meta_carries_batch_stamps(self, points):
        # Cost-balanced chunking may isolate a heavy point into a singleton
        # chunk, which correctly stays scalar — but most points ride the lane.
        records = ProcessPoolRunner(jobs=2).run(points)
        batched = [r for r in records if "batch_size" in r.meta]
        assert len(batched) > len(records) // 2
        for record in batched:
            assert record.meta["batch_size"] >= 2
            assert 0 <= record.meta["batch_index"] < record.meta["batch_size"]

    def test_scalar_path_has_no_batch_stamps(self, points):
        records = scalar_reference(SerialRunner(), points[:3])
        assert all("batch_size" not in r.meta for r in records)


class TestEvents:
    def test_one_start_and_one_completion_per_point(self, points):
        events = []
        runner = SerialRunner()
        runner.event_sink = events.append
        runner.run(points)
        started = [e for e in events if isinstance(e, PointStarted)]
        completed = [e for e in events if isinstance(e, PointCompleted)]
        assert len(started) == len(points)
        assert len(completed) == len(points)
        assert [e.key for e in started] == [p.key() for p in points]
        assert [e.record.key for e in completed] == [p.key() for p in points]
        # Start events carry real attribution from the begin stamps.
        assert all(e.worker is not None and e.ts is not None for e in started)

    def test_pool_replays_faithful_starts(self, points):
        events = []
        runner = ProcessPoolRunner(jobs=2)
        runner.event_sink = events.append
        runner.run(points)
        started = [e for e in events if isinstance(e, PointStarted)]
        completed = [e for e in events if isinstance(e, PointCompleted)]
        assert sorted(e.key for e in started) == sorted(p.key() for p in points)
        assert len(completed) == len(points)
        assert all(e.worker is not None and e.seq is not None for e in started)

    def test_event_sink_sees_every_record(self, points):
        events = []
        runner = SerialRunner()
        runner.event_sink = events.append
        runner.run(points)
        seen = [e.record for e in events if isinstance(e, PointCompleted)]
        assert [r.key for r in seen] == [p.key() for p in points]


class TestLaneBoundaries:
    def test_mixed_backend_spans(self):
        """``analytic``/``cost`` alternation cuts the lane into scalar runs."""
        spec = SweepSpec(
            name="mixed",
            base=StencilProblem.paper_example(11, 11),
            grid_sizes=((11, 11), (13, 13)),
            backends=("analytic", "cost"),
            iterations=1,
        )
        points = spec.expand()
        spans = _split_spans(points)
        # Backends expand innermost: every analytic run has length 1, so the
        # whole list stays scalar.
        assert all(kind == "scalar" for kind, _ in spans)
        records = SerialRunner().run(points)
        assert [r.key for r in records] == [p.key() for p in points]
        assert all("batch_size" not in r.meta for r in records)

    def test_mixed_system_batch_stays_vectorized(self):
        """smache/baseline pairs are one span: grouping happens in the engine."""
        spec = SweepSpec(
            name="systems",
            base=StencilProblem.paper_example(11, 11),
            grid_sizes=((11, 11), (13, 13)),
            systems=("smache", "baseline"),
            iterations=1,
        )
        points = spec.expand()
        spans = _split_spans(points)
        assert [(kind, len(span)) for kind, span in spans] == [("batch", 4)]
        fast = SerialRunner().run(points)
        scalar = scalar_reference(SerialRunner(), points)
        assert canonical_json(fast) == canonical_json(scalar)

    def test_singleton_analytic_run_stays_scalar(self, points):
        spans = _split_spans(points[:1])
        assert spans == [("scalar", [points[0]])]

    def test_stand_in_backend_disables_the_lane(self, points):
        """A test double registered as ``analytic`` must be called per point."""
        calls = []

        class CountingBackend(AnalyticBackend):
            def evaluate(self, design, request):
                calls.append(design)
                return super().evaluate(design, request)

        real = type(get_backend("analytic"))
        register_backend("analytic", CountingBackend)
        try:
            assert _split_spans(points) == [("scalar", list(points))]
            SerialRunner().run(points[:3])
            assert len(calls) == 3
        finally:
            register_backend("analytic", real)


class TestKeepResults:
    def test_serial_keeps_prediction_artifacts(self, points):
        records = SerialRunner().run(points[:4], keep_results=True)
        for record in records:
            assert record.result is not None
            assert record.result.cycles == record.cycles
            assert "prediction" in record.result.artifacts

    def test_pool_strips_artifacts(self, points):
        records = ProcessPoolRunner(jobs=2).run(points[:4], keep_results=True)
        for record in records:
            assert record.result is not None
            assert record.result.artifacts == {}

    def test_slim_records_by_default(self, points):
        records = SerialRunner().run(points[:4])
        assert all(r.result is None for r in records)
