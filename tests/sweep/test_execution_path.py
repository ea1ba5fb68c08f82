"""The runners' one execution path, with and without a retry policy.

Serial runs, the pool's one-job fallback and pool workers all drive the same
evaluation loop.  Pinned here: with no policy the first evaluation error
propagates with its original type; under a policy the analytic fast lane
still runs; a batch that raises costs no attempt; and, for random transient
fault schedules over mixed-backend point lists, canonical bytes, record
order and the one-start-per-attempt event rule hold serial and pooled.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec, RetryPolicy, inject_faults
from repro.pipeline.backends import (
    _BACKENDS,
    _INSTANCES,
    AnalyticBackend,
    Backend,
    register_backend,
)
from repro.sweep.campaign import execute_campaign
from repro.sweep.events import PointCompleted, PointFailed, PointRetried, PointStarted
from repro.sweep.record import canonical_json
from repro.sweep.runners import ProcessPoolRunner, SerialRunner
from repro.sweep.spec import smoke_spec

RUNNERS = {
    "serial": lambda policy=None: SerialRunner(retry_policy=policy),
    "pool": lambda policy=None: ProcessPoolRunner(jobs=2, retry_policy=policy),
}

SMOKE = smoke_spec(iterations=1).expand()

#: Analytic runs interleaved with ``cost`` points: sub-lists mix batch and
#: scalar spans.
MIXED = [
    point
    for index, analytic in enumerate(SMOKE)
    for point in (
        [analytic, dataclasses.replace(analytic, backend="cost")]
        if index % 3 == 2
        else [analytic]
    )
]


def policy():
    return RetryPolicy(max_attempts=2, base_delay_s=0.001, jitter=0.0)


class Boom(Backend):
    """A backend whose every evaluation hits a deterministic bug."""

    name = "boom"

    def evaluate(self, design, request):
        raise ValueError("deterministic bug")


@pytest.fixture
def boom():
    register_backend("boom", Boom)
    try:
        yield "boom"
    finally:
        _BACKENDS.pop("boom", None)
        _INSTANCES.pop("boom", None)


class TestNoPolicyFailsFast:
    @pytest.mark.parametrize("kind", sorted(RUNNERS))
    def test_first_error_propagates_with_its_type(self, boom, kind):
        points = list(SMOKE)
        points[5] = dataclasses.replace(points[5], backend=boom)
        with pytest.raises(ValueError, match="deterministic bug"):
            RUNNERS[kind]().run(points)


class TestFastLaneUnderPolicy:
    @pytest.mark.parametrize("kind", sorted(RUNNERS))
    def test_records_carry_batch_stamps(self, kind):
        records = RUNNERS[kind](policy()).run(SMOKE)
        # Cost-balanced chunking may leave a singleton pool chunk scalar.
        batched = [r for r in records if "batch_size" in r.meta]
        assert len(batched) > len(records) // 2
        assert canonical_json(records) == canonical_json(SerialRunner().run(SMOKE))

    @pytest.mark.parametrize("retry_policy", [None, policy()], ids=["no-policy", "policy"])
    def test_raising_batch_costs_no_attempt(self, monkeypatch, retry_policy):
        spec = smoke_spec(iterations=1)
        clean = execute_campaign(spec)
        real = AnalyticBackend.evaluate_many
        raised = []

        def raise_once(self, items, with_artifacts=True):
            if not raised:
                raised.append(len(items))
                raise RuntimeError("transient batch failure")
            return real(self, items, with_artifacts=with_artifacts)

        monkeypatch.setattr(AnalyticBackend, "evaluate_many", raise_once)
        result = execute_campaign(spec, retry_policy=retry_policy)
        assert raised == [spec.size]
        assert result.to_json() == clean.to_json()
        assert not any("attempts" in r.meta for r in result.records)


def attempts_by_key(events):
    """Per point key, its event kinds in delivery order."""
    kinds = {}
    for event in events:
        if isinstance(event, PointStarted):
            key, kind = event.key, "started"
        elif isinstance(event, PointRetried):
            key, kind = event.key, "retried"
        elif isinstance(event, (PointCompleted, PointFailed)):
            key, kind = event.record.key, "finished"
        else:
            continue
        kinds.setdefault(key, []).append(kind)
    return kinds


@settings(max_examples=25, deadline=None)
@given(
    indices=st.sets(st.integers(0, len(MIXED) - 1), min_size=1, max_size=8),
    probability=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_random_transient_faults_keep_the_clean_bytes(indices, probability, seed):
    points = [MIXED[i] for i in sorted(indices)]
    clean = canonical_json(SerialRunner().run(points))
    plan = FaultPlan(
        faults=(FaultSpec(action="fail", probability=probability, attempts_below=2),),
        seed=seed,
    )
    for kind in sorted(RUNNERS):
        runner = RUNNERS[kind](policy())
        events = []
        runner.event_sink = events.append
        with inject_faults(plan):
            records = runner.run(points)
        assert [r.key for r in records] == [p.key() for p in points]
        assert canonical_json(records) == clean
        for kinds in attempts_by_key(events).values():
            retries = kinds.count("retried")
            assert kinds == ["started", "retried"] * retries + ["started", "finished"]
