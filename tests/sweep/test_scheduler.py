"""The pool's point scheduler, transition by transition.

``_Scheduler`` is driven here with a fake executor whose futures the test
resolves by hand, so crash blame, probation, quarantine, deadline expiry
and pool replacement are pinned without real processes.  Two real-pool
regressions close the file: a deadline counts from the moment a chunk
starts (queued work never expires), and a probation point never waits out
an abandoned straggler.
"""

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy, inject_faults
from repro.sweep.campaign import execute_campaign
from repro.sweep.events import (
    PointCompleted,
    PointFailed,
    PointRetried,
    PointStarted,
    PoolRestarted,
    WorkerLost,
)
from repro.sweep.runners import (
    PointError,
    ProcessPoolRunner,
    SerialRunner,
    _Scheduler,
)
from repro.sweep.spec import smoke_spec

POINTS = smoke_spec(iterations=1).expand()[:4]
RECORDS = {record.key: record for record in SerialRunner().run(POINTS)}
A, B, C, D = POINTS


class FakeFuture:
    def __init__(self, args):
        self.points, _, _, _, self.attempt = args
        self.outcome = None

    def result(self):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


class FakePool:
    def __init__(self):
        self.futures = []
        self.shut_down = False

    def submit(self, fn, args):
        future = FakeFuture(args)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class Harness:
    """A scheduler over fake pools, recording every event it emits."""

    def __init__(self, policy, jobs=2, chunks=()):
        self.pools = []
        self.events = []
        self.scheduler = _Scheduler(
            policy, self.events.append, run_index=1, jobs=jobs, spawn=self.spawn
        )
        self.scheduler.queue.extend([list(chunk) for chunk in chunks])

    def spawn(self):
        self.pools.append(FakePool())
        return self.pools[-1]

    def running(self):
        """The in-flight futures, in submission order."""
        return list(self.scheduler.slots)

    def land(self, future, outcome):
        future.outcome = outcome
        self.scheduler.collect([future])

    def crash(self):
        """Break the pool under every in-flight future; collect one."""
        futures = self.running()
        for future in futures:
            future.outcome = BrokenProcessPool("worker died")
        self.scheduler.collect(futures[:1])

    def expire_all(self):
        for slot in self.scheduler.slots.values():
            slot.deadline = 0.0
        self.scheduler.expire()

    def of(self, kind):
        return [e for e in self.events if isinstance(e, kind)]


def policy(max_attempts=3, deadline_s=None):
    return RetryPolicy(
        max_attempts=max_attempts, base_delay_s=0.0, jitter=0.0, deadline_s=deadline_s
    )


def record(point):
    return [RECORDS[point.key()]]


class TestSubmission:
    def test_the_executor_only_holds_running_work(self):
        h = Harness(policy(), jobs=2, chunks=[[A], [B], [C], [D]])
        h.scheduler.fill()
        assert [f.points for f in h.running()] == [[A], [B]]
        h.land(h.running()[0], record(A))
        h.scheduler.fill()
        assert [f.points for f in h.running()] == [[B], [C]]

    def test_an_abandoned_chunk_keeps_its_worker(self):
        h = Harness(policy(deadline_s=0.5), jobs=2, chunks=[[A], [B], [C]])
        h.scheduler.fill()
        straggler, running = h.running()
        h.scheduler.slots[straggler].deadline = 0.0
        h.scheduler.expire()
        h.scheduler.fill()
        # A's straggler still holds its worker: its retry waits for B's.
        assert h.running() == [straggler, running]
        h.land(running, record(B))
        h.scheduler.fill()
        assert [f.points for f in h.running()] == [[A], [A]]
        assert [f.attempt for f in h.running()] == [1, 2]
        assert list(h.scheduler.queue) == [[C]]


class TestPoolBreak:
    @pytest.mark.parametrize("max_attempts", [1, 2, 3, 4])
    def test_co_blame_reaches_probation_at_max_attempts_minus_one(self, max_attempts):
        h = Harness(policy(max_attempts), jobs=2, chunks=[[A], [B]])
        threshold = max(1, max_attempts - 1)
        for breaks in range(1, threshold + 1):
            h.scheduler.fill()
            assert not h.scheduler.probation
            h.crash()
            assert h.scheduler.blames == {A.key(): breaks, B.key(): breaks}
        assert [p for p, _ in h.scheduler.probation] == [A, B]
        assert len(h.of(WorkerLost)) == threshold
        assert [e.restarts for e in h.of(PoolRestarted)] == list(range(1, threshold + 1))
        assert {e.reason for e in h.of(PointRetried)} == {"worker-lost"}
        # Probation points run alone, one at a time, on their next attempt.
        h.scheduler.fill()
        [solo] = h.running()
        assert solo.points == [A] and solo.attempt == threshold + 1
        assert h.scheduler.slots[solo].solo

    def test_solo_crash_is_quarantined(self):
        h = Harness(policy(max_attempts=2), jobs=2, chunks=[[A], [B]])
        h.scheduler.fill()
        h.crash()
        h.scheduler.fill()
        h.crash()
        [failed] = h.of(PointFailed)
        assert failed.record.key == A.key()
        assert "repeatedly crashed" in failed.record.error
        assert failed.record.meta["attempts"] == 2
        # B, co-blamed once, still gets its own solo run.
        h.scheduler.fill()
        [solo] = h.running()
        assert solo.points == [B] and h.scheduler.slots[solo].solo

    def test_solo_success_clears_blames(self):
        h = Harness(policy(max_attempts=2), jobs=2, chunks=[[A], [B]])
        h.scheduler.fill()
        h.crash()
        h.scheduler.fill()
        h.land(h.running()[0], record(A))
        assert A.key() not in h.scheduler.blames
        assert B.key() in h.scheduler.blames
        assert h.scheduler.resolved[A.key()] is RECORDS[A.key()]
        # The start is replayed from the record's own stamp.
        started = [e for e in h.of(PointStarted) if e.key == A.key()]
        assert started[0].worker == RECORDS[A.key()].meta["worker"]

    def test_without_a_policy_a_broken_pool_re_raises(self):
        h = Harness(None, jobs=2, chunks=[[A], [B]])
        h.scheduler.fill()
        with pytest.raises(BrokenProcessPool):
            h.crash()
        assert not h.of(WorkerLost) and not h.of(PoolRestarted)


class TestDeadlines:
    def test_expiry_reissues_under_budget_and_fails_at_budget(self):
        h = Harness(policy(max_attempts=2, deadline_s=0.5), jobs=2, chunks=[[A]])
        h.scheduler.fill()
        h.expire_all()
        [retried] = h.of(PointRetried)
        assert (retried.key, retried.attempt, retried.reason) == (A.key(), 1, "deadline")
        h.scheduler.fill()
        retry = h.running()[-1]
        assert retry.points == [A] and retry.attempt == 2
        h.expire_all()
        [failed] = h.of(PointFailed)
        assert failed.record.error == "point deadline 0.5s exceeded"
        assert failed.record.meta["attempts"] == 2

    def test_all_slots_abandoned_replaces_the_pool(self):
        h = Harness(policy(deadline_s=0.5), jobs=2, chunks=[[A], [B], [C]])
        h.scheduler.fill()
        h.expire_all()
        h.scheduler.fill()
        [restart] = h.of(PoolRestarted)
        assert restart.reason == "2 worker(s) stuck past deadline"
        assert len(h.pools) == 2 and h.pools[0].shut_down
        # The re-issued points run on the fresh pool.
        assert [f.points for f in h.pools[1].futures] == [[A], [B]]
        assert all(f.attempt == 2 for f in h.pools[1].futures)

    def test_probation_does_not_wait_for_an_abandoned_chunk(self):
        h = Harness(policy(max_attempts=2, deadline_s=0.5), jobs=2, chunks=[[A], [B]])
        h.scheduler.fill()
        h.crash()  # A and B both on probation
        h.scheduler.fill()
        h.expire_all()  # A's solo run hangs: failed at budget, still running
        assert h.scheduler.probation
        h.scheduler.fill()
        restart = h.of(PoolRestarted)[-1]
        assert "probation" in restart.reason
        [solo] = h.running()
        assert solo.points == [B] and h.scheduler.slots[solo].solo

    def test_a_late_straggler_is_ignored(self):
        # Four workers: the two stragglers do not wedge the pool.
        h = Harness(policy(deadline_s=0.5), jobs=4, chunks=[[A], [B]])
        h.scheduler.fill()
        straggler_a, straggler_b = h.running()
        h.expire_all()
        h.scheduler.fill()
        retry_a, retry_b = h.running()[2:]
        h.land(retry_a, record(A))
        # A's straggler lands after A resolved; B's brings a failed attempt
        # whose point was already re-issued.  Neither changes anything.
        h.land(straggler_a, record(A))
        h.land(straggler_b, [PointError("TimeoutError: late", 1, True, {"worker": 1})])
        assert [e.record.key for e in h.of(PointCompleted)] == [A.key()]
        assert [e.reason for e in h.of(PointRetried)] == ["deadline", "deadline"]
        assert h.running() == [retry_b] and not h.scheduler.retry_heap


class TestRealPool:
    def test_queued_chunks_never_expire(self):
        """Every point takes 0.2 s against a 0.5 s deadline: no retries."""
        plan = FaultPlan(faults=(FaultSpec(action="hang", seconds=0.2),))
        events = []
        with inject_faults(plan):
            result = execute_campaign(
                smoke_spec(iterations=1),
                jobs=2,
                retry_policy=RetryPolicy(base_delay_s=0.01, jitter=0.0, deadline_s=0.5),
                observers=[events.append],
            )
        assert result.failed == 0 and result.evaluated == 18
        assert not [e for e in events if isinstance(e, PointRetried)]

    def test_probation_never_waits_out_a_hang(self):
        hang_s = 10.0
        plan = FaultPlan(
            faults=(
                FaultSpec(action="hang", label="smoke-11x11-h-reach-0", seconds=hang_s),
                FaultSpec(action="crash", label="smoke-11x11-h-reach-4", attempts_below=3),
            )
        )
        events = []
        start = time.monotonic()
        with inject_faults(plan):
            result = execute_campaign(
                smoke_spec(iterations=1),
                runner=ProcessPoolRunner(jobs=2, chunksize=1),
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.01, jitter=0.0, deadline_s=0.5
                ),
                observers=[events.append],
            )
        elapsed = time.monotonic() - start
        assert result.failed == 2
        assert elapsed < hang_s / 2
        reasons = [e.reason for e in events if isinstance(e, PoolRestarted)]
        assert any("probation" in reason for reason in reasons)
