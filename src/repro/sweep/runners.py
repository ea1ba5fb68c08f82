"""Pluggable sweep executors: in-process serial and process-pool parallel.

Both runners share one contract: ``run(points)`` evaluates every
:class:`~repro.sweep.spec.SweepPoint` and returns one
:class:`~repro.sweep.record.PointRecord` per point, **in input order**.

There is **one evaluation loop**, :func:`_evaluate_points`, run by the
serial runner, by the pool's one-job fallback and by every pool worker
(through :func:`_evaluate_chunk`, the one worker entry point).  It cuts its
points into spans (:func:`_split_spans`): maximal runs of consecutive
``analytic`` points — the common case, the spec expands backends innermost —
take the **analytic fast lane**, compiled via
:func:`~repro.pipeline.compile.compile_batch` and priced in a single
vectorized call (:mod:`repro.pipeline.analytic_batch`), bitwise-equal per
point to the scalar path and stamped with ``batch_size`` / ``batch_index``
in ``meta``; everything else is evaluated per point.  A batch that raises
costs no attempt: its points fall back to per-point evaluation as that same
attempt, each its own failure domain.  Canonical campaign output is
byte-identical to the per-point path.

Failures are decided at the failure site inside that loop.  With no
:class:`~repro.faults.policy.RetryPolicy` installed (the
:attr:`Runner.retry_policy` seam, set by the campaign engine) execution is
**fail-fast**: the first evaluation error propagates with its original
exception type, serial or pooled.  Under a policy a failed attempt becomes a
:class:`PointError` marker instead, classified where the exception type
exists.  There is **one point scheduler**, :class:`_Scheduler`, on the
parent side: serial and pooled runs settle every outcome through it
(deliver, or retry with deterministic backoff, or fail at budget), and the
pool also lets it respawn a broken pool, quarantine points that repeatedly
crash it, and abandon and re-issue stragglers past the policy deadline.
The pool executor only ever holds running work — at most ``jobs`` chunks,
abandoned stragglers included — so **a deadline counts from the moment a
chunk starts**, never from a wait in a queue: ``deadline_s`` times the
chunk's point count.

Runners participate in the campaign event stream: when a
:attr:`Runner.event_sink` is installed (the campaign engine points it at its
:class:`~repro.sweep.events.EventBus`), every attempt publishes exactly one
:class:`~repro.sweep.events.PointStarted` before its
:class:`~repro.sweep.events.PointCompleted`,
:class:`~repro.sweep.events.PointRetried` or
:class:`~repro.sweep.events.PointFailed` — always from the parent process,
so observers never cross a process boundary.  Starts carry true attribution
(worker pid, wall-clock begin timestamp, worker-local sequence number) from
a begin stamp taken by the evaluating process: the in-process path
publishes it live, the pool ships it back inside the record's ``meta``
(``worker``/``started_ts``/``finished_ts``/``worker_seq``) or the failure
marker and replays it — *never* at submit time, so event order and ETAs
reflect actual execution.

The :class:`ProcessPoolRunner` shards the point list into contiguous chunks
and ships whole chunks to workers.  Three things make this fast:

* evaluation happens entirely in the worker — including :func:`compile`,
  which dominates broad analytic sweeps — so the parent only unpickles slim
  records;
* pool workers live for the whole run and keep their module-global plan
  cache warm, and chunking keeps points that share a compiled design (e.g.
  the smache/baseline pair of one problem) on the same worker;
* by default chunk boundaries are **cost-aware**: chunks are cut so each
  carries a similar predicted compile cost (proportional to grid cells, see
  :func:`point_cost_weight`) instead of a similar point *count*, so one
  million-cell problem no longer straggles a worker that also drew a dozen
  cheap points.  An explicit ``chunksize`` restores fixed-size sharding.

Each record's ``meta`` carries the worker pid and that worker's cumulative
plan-cache counters, so :class:`~repro.sweep.campaign.CampaignResult` can
report cache behaviour across the whole pool.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults.context import clear_point_context, set_point_context
from repro.faults.policy import RetryPolicy
from repro.pipeline.backends import AnalyticBackend, get_backend
from repro.pipeline.cache import CacheInfo, plan_cache
from repro.pipeline.compile import compile as compile_problem
from repro.pipeline.compile import compile_batch
from repro.sweep.events import (
    EventSink,
    PointCompleted,
    PointFailed,
    PointRetried,
    PointStarted,
    PoolRestarted,
    RunEvent,
    WorkerLost,
)
from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepPoint


def _cache_meta(baseline: Optional[CacheInfo] = None) -> Dict[str, int]:
    """Plan-cache counters relative to ``baseline`` (absolute when None)."""
    info = plan_cache.cache_info()
    hits, misses = info.hits, info.misses
    if baseline is not None:
        hits -= baseline.hits
        misses -= baseline.misses
    return {"cache_hits": hits, "cache_misses": misses, "cache_size": info.currsize}


#: Worker-local evaluation counter (reset when the pid changes: a forked
#: worker inherits the parent's value, but its own sequence starts at 0).
_WORKER_SEQ = 0
_SEQ_PID: Optional[int] = None


def _begin_stamp() -> Dict[str, Any]:
    """Attribution stamps taken when an evaluation actually begins.

    Stamped *in the evaluating process* (pool worker or the in-process
    loop), shipped back inside ``PointRecord.meta`` and re-emitted as
    :class:`PointStarted` attribution — the durable record of who ran what,
    when.
    """
    global _WORKER_SEQ, _SEQ_PID
    pid = os.getpid()
    if _SEQ_PID != pid:
        _SEQ_PID = pid
        _WORKER_SEQ = 0
    _WORKER_SEQ += 1
    # repro: allow[determinism] attribution stamp — lands in record.meta, never in canonical bytes
    return {"worker": pid, "started_ts": time.time(), "worker_seq": _WORKER_SEQ}


def _evaluate_point(
    point: SweepPoint,
    keep_result: bool,
    cache_baseline: Optional[CacheInfo] = None,
    strip_artifacts: bool = False,
    run_index: int = 0,
    stamp: Optional[Dict[str, Any]] = None,
    attempt: int = 1,
) -> PointRecord:
    """Evaluate one point against this process's warm plan cache.

    The point's identity (key, label, attempt) is published to the
    per-process fault context for the duration of the backend call, so a
    fault-injection harness (:mod:`repro.faults.inject`) can key its
    schedule on exactly which evaluation is in flight.
    """
    if stamp is None:
        stamp = _begin_stamp()
    set_point_context(point.key(), point.display_label, attempt)
    try:
        t0 = time.perf_counter()
        design = compile_problem(point.problem)
        t1 = time.perf_counter()
        result = get_backend(point.backend).evaluate(design, point.request)
        t2 = time.perf_counter()
    finally:
        clear_point_context()
    if keep_result and strip_artifacts:
        # Live simulation objects do not belong on the wire; metrics, the
        # design and the output grid survive the process boundary.
        result = replace(result, artifacts={})
    meta = {
        "wall_seconds": t2 - t0,
        # Backend time alone, excluding (possibly cold) compilation — what
        # e.g. the E5 speedup column compares between backends.
        "eval_seconds": t2 - t1,
        "run": run_index,
        **stamp,
        "finished_ts": time.time(),  # repro: allow[determinism] attribution stamp in meta only
    }
    if result.perf:
        # Backend performance telemetry (the simulate backend's scheduler
        # counters) rides in meta: visible to PointCompleted observers and
        # checkpoints, excluded from the canonical determinism contract.
        meta.update(result.perf)
    if attempt > 1:
        # Only retried successes carry the counter, so clean-run meta is
        # byte-identical with and without a retry policy installed.
        meta["attempts"] = attempt
    meta.update(_cache_meta(cache_baseline))
    return PointRecord.from_result(
        point.key(),
        point.display_label,
        result,
        rung=point.rung,
        meta=meta,
        keep_result=keep_result,
    )


# --------------------------------------------------------------------------- #
# analytic fast lane
# --------------------------------------------------------------------------- #
#: Minimum consecutive analytic points for the vectorized lane; single points
#: stay on the scalar reference path.
_MIN_BATCH = 2


def _fast_lane_ready() -> bool:
    """Whether batched pricing may replace the scalar loop in this process.

    Requires the ``analytic`` registry slot to hold exactly
    :class:`AnalyticBackend` — not a subclass or stand-in; either may
    override ``evaluate``, which the lane would silently bypass.
    """
    try:
        return type(get_backend("analytic")) is AnalyticBackend
    except KeyError:
        return False


def _split_spans(points: Sequence[SweepPoint]) -> List[Tuple[str, List[SweepPoint]]]:
    """Cut a point list into ``('batch', run)`` / ``('scalar', run)`` spans.

    Maximal runs of at least :data:`_MIN_BATCH` consecutive analytic points
    become batch spans — the spec expands backends innermost, so analytic
    campaigns arrive as one long run per chunk; everything else (other
    backends, lone analytic points) stays on the per-point reference path.
    """
    points = list(points)
    if not points or not _fast_lane_ready():
        return [("scalar", points)] if points else []
    spans: List[Tuple[str, List[SweepPoint]]] = []
    run: List[SweepPoint] = []
    run_analytic = False

    def close() -> None:
        if run:
            kind = "batch" if run_analytic and len(run) >= _MIN_BATCH else "scalar"
            spans.append((kind, list(run)))
            run.clear()

    for point in points:
        analytic = point.backend == "analytic"
        if run and analytic != run_analytic:
            close()
        run_analytic = analytic
        run.append(point)
    close()
    return spans


def _price_analytic_span(
    points: Sequence[SweepPoint],
    keep_results: bool,
    cache_baseline: Optional[CacheInfo],
    strip_artifacts: bool,
    run_index: int,
    stamps: Sequence[Dict[str, Any]],
) -> List[PointRecord]:
    """Price one contiguous analytic span in a single vectorized call.

    Compilation goes through :func:`compile_batch` (one plan-cache miss plus
    N−1 hits for a shared design), pricing through the registered backend's
    :meth:`~repro.pipeline.backends.Backend.evaluate_many`.  Each record gets
    the caller's per-point begin stamp plus batch attribution
    (``batch_size``/``batch_index``) in ``meta``; timing meta carries each
    point's share of the batch wall clock, keeping per-point throughput
    readings comparable with the scalar path.
    """
    t0 = time.perf_counter()
    designs = compile_batch([p.problem for p in points])
    t1 = time.perf_counter()
    results = get_backend("analytic").evaluate_many(
        [(design, point.request) for design, point in zip(designs, points)],
        with_artifacts=keep_results and not strip_artifacts,
    )
    t2 = time.perf_counter()
    eval_share = (t2 - t1) / len(points)
    wall_share = (t2 - t0) / len(points)
    finished_ts = time.time()  # repro: allow[determinism] attribution stamp in meta only
    cache_counters = _cache_meta(cache_baseline)
    records = []
    for index, (point, result) in enumerate(zip(points, results)):
        meta = {
            "wall_seconds": wall_share,
            "eval_seconds": eval_share,
            "run": run_index,
            **stamps[index],
            "finished_ts": finished_ts,
            "batch_size": len(points),
            "batch_index": index,
        }
        meta.update(cache_counters)
        records.append(
            PointRecord.from_result(
                point.key(),
                point.display_label,
                result,
                rung=point.rung,
                meta=meta,
                keep_result=keep_results,
            )
        )
    return records


# --------------------------------------------------------------------------- #
# the evaluation loop
# --------------------------------------------------------------------------- #
@dataclass
class PointError:
    """A failed evaluation attempt, shipped from worker to parent.

    Exceptions themselves do not reliably survive pickling, so under a
    policy the loop never re-raises: it classifies the failure *where the
    exception type exists* and yields this slim marker in the record's
    place.  Retry scheduling stays entirely parent-side.
    """

    error: str  #: "ExceptionType: message"
    attempt: int  #: the attempt that failed (1-based)
    retryable: bool  #: the evaluating process's policy verdict
    stamp: Dict[str, Any]  #: the attempt's begin stamp


#: What the loop yields per point: its record, or its failed attempt.
Outcome = Union[PointRecord, PointError]

#: Observer of each attempt's begin stamp, called as its evaluation begins.
StartHook = Callable[[SweepPoint, Dict[str, Any]], None]


def _evaluate_points(
    points: Sequence[SweepPoint],
    keep_results: bool,
    cache_baseline: Optional[CacheInfo],
    strip_artifacts: bool,
    run_index: int,
    policy: Optional[RetryPolicy],
    attempt: int = 1,
    on_start: Optional[StartHook] = None,
) -> Iterator[Tuple[SweepPoint, Outcome]]:
    """The one evaluation loop, yielding ``(point, outcome)`` in input order.

    Every point is on its ``attempt``-th attempt (multi-point lists are
    always first attempts; retries re-enter one point at a time) and takes
    its begin stamp, reported to ``on_start``, as its evaluation begins: up
    front for the whole of a fast-lane batch, which begins at once, and
    just before each point on the per-point path.  Outcomes are yielded as
    they land, so an in-process caller can deliver them live.

    A batch that raises costs no attempt: its points fall back to per-point
    evaluation under the stamps already taken.  A per-point failure is
    decided right here — with no ``policy`` the original exception
    propagates (fail-fast); under one it becomes a :class:`PointError`.
    """

    def begin(point: SweepPoint) -> Dict[str, Any]:
        stamp = _begin_stamp()
        if on_start is not None:
            on_start(point, stamp)
        return stamp

    for kind, span in _split_spans(points):
        stamps: List[Dict[str, Any]] = []
        if kind == "batch":
            stamps = [begin(point) for point in span]
            try:
                records = _price_analytic_span(
                    span, keep_results, cache_baseline, strip_artifacts, run_index, stamps
                )
            except Exception:
                pass  # one failure domain per point, below
            else:
                yield from zip(span, records)
                continue
        for index, point in enumerate(span):
            stamp = stamps[index] if stamps else begin(point)
            outcome: Outcome
            try:
                outcome = _evaluate_point(
                    point,
                    keep_result=keep_results,
                    cache_baseline=cache_baseline,
                    strip_artifacts=strip_artifacts,
                    run_index=run_index,
                    stamp=stamp,
                    attempt=attempt,
                )
            except Exception as exc:
                if policy is None:
                    raise
                outcome = PointError(
                    error=f"{type(exc).__name__}: {exc}",
                    attempt=attempt,
                    retryable=policy.classify(exc),
                    stamp=stamp,
                )
            yield point, outcome


#: First-use snapshot of this process's plan-cache counters.  A forked worker
#: inherits the parent's counters (and possibly a warm cache); subtracting
#: the snapshot makes reported stats mean "work done by this worker".
_WORKER_BASELINE: Optional[CacheInfo] = None
_WORKER_PID: Optional[int] = None


def _worker_cache_baseline() -> CacheInfo:
    global _WORKER_BASELINE, _WORKER_PID
    pid = os.getpid()
    if _WORKER_PID != pid:
        _WORKER_PID = pid
        _WORKER_BASELINE = plan_cache.cache_info()
    return _WORKER_BASELINE


def _evaluate_chunk(
    args: Tuple[Sequence[SweepPoint], bool, int, Optional[RetryPolicy], int],
) -> List[Outcome]:
    """Worker entry point: run the evaluation loop over one contiguous shard.

    Outcomes come back in input order.  Retrying is the parent's job — a
    worker that retried locally would hide attempt counts from the event
    stream.
    """
    points, keep_results, run_index, policy, attempt = args
    baseline = _worker_cache_baseline()
    return [
        outcome
        for _, outcome in _evaluate_points(
            points, keep_results, baseline, True, run_index, policy, attempt
        )
    ]


def _discard(event: RunEvent) -> None:
    """The event sink of a runner nobody observes."""


# --------------------------------------------------------------------------- #
# cost-aware chunking
# --------------------------------------------------------------------------- #
def point_cost_weight(point: SweepPoint) -> float:
    """Predicted evaluation cost of one point, for load balancing.

    Compilation dominates broad sweeps and its planning/partitioning work
    scales with the number of grid cells, so the cell count is the weight.
    Points whose cost cannot be read default to weight 1, never 0 — every
    point must contribute to a chunk's budget.
    """
    try:
        return float(point.problem.grid.size) or 1.0
    except (AttributeError, TypeError):
        return 1.0


def cost_balanced_chunks(
    points: Sequence[SweepPoint],
    n_chunks: int,
    weight: Callable[[SweepPoint], float] = point_cost_weight,
) -> List[List[SweepPoint]]:
    """Cut ``points`` into at most ``n_chunks`` contiguous, cost-balanced runs.

    Contiguity is deliberate: adjacent points typically share a compiled
    design (the spec expands backends × systems innermost), and keeping them
    in one chunk keeps them on one worker's warm plan cache.  A chunk closes
    once it holds its fair share of the *remaining* weight — so one giant
    problem fills a chunk alone while cheap points pack together — but a cut
    is deferred while the next point belongs to the same problem; fewer
    chunks beats splitting a design across two workers' caches.
    """
    points = list(points)
    if not points:
        return []
    n_chunks = max(1, min(n_chunks, len(points)))
    weights = [max(weight(p), 1e-9) for p in points]
    remaining = sum(weights)
    chunks: List[List[SweepPoint]] = []
    current: List[SweepPoint] = []
    current_weight = 0.0
    for index, (point, w) in enumerate(zip(points, weights)):
        current.append(point)
        current_weight += w
        remaining -= w
        chunks_after = n_chunks - len(chunks) - 1  # chunks still to fill
        points_left = len(points) - index - 1
        if chunks_after == 0 or points_left == 0:
            continue  # the last chunk takes everything left
        fair_share = (current_weight + remaining) / (chunks_after + 1)
        splits_problem = points[index + 1].problem == point.problem
        if current_weight >= fair_share and not splits_problem:
            chunks.append(current)
            current = []
            current_weight = 0.0
    if current:
        chunks.append(current)
    return chunks


# --------------------------------------------------------------------------- #
# the scheduler
# --------------------------------------------------------------------------- #
@dataclass
class _Slot:
    """One chunk the executor is running: the bookkeeping behind a future."""

    points: List[SweepPoint]
    attempt: int  #: the 1-based attempt every point of the chunk is on
    deadline: Optional[float]  #: monotonic expiry (None: no deadline armed)
    solo: bool = False  #: a probation run, with nothing else in flight
    abandoned: bool = False  #: past its deadline; its points settled elsewhere


class _Scheduler:
    """The parent-side state of one run, with one method per transition.

    Every run settles its outcomes here: :meth:`deliver` a record, or
    :meth:`retry_or_fail` a failed attempt — re-issue it after the policy's
    backoff, or resolve it as a failure record at budget.  The in-process
    path stops there and takes each retry inline (:meth:`next_retry`).

    A pool run also hands over its executor (``spawn`` builds one) and
    drives the rest: ``queue`` holds first-attempt chunks, ``retry_heap``
    re-issued singletons by ready time, ``probation`` points that must run
    alone, and ``slots`` the submitted futures — at most ``jobs`` of them,
    abandoned ones included, so the executor only ever holds running work.
    :meth:`fill` submits, :meth:`collect` settles finished futures (or
    :meth:`break_pool` a broken pool), :meth:`expire` abandons stragglers
    past their deadline and :meth:`unwedge` replaces a pool held only by
    them.  Without a policy the machine is fail-fast: a worker's error
    surfaces from its future with its type, a broken pool re-raises, and no
    deadline is armed.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy],
        event_sink: Optional[EventSink],
        run_index: int,
        keep_results: bool = False,
        jobs: int = 1,
        spawn: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.policy = policy
        self.max_attempts = policy.max_attempts if policy is not None else 1
        self.deadline_s = policy.deadline_s if policy is not None else None
        self.emit = event_sink if event_sink is not None else _discard
        self.run_index = run_index
        self.keep_results = keep_results
        self.jobs = jobs
        self.spawn = spawn
        self.pool: Any = spawn() if spawn is not None else None
        self.queue: "deque[List[SweepPoint]]" = deque()
        self.slots: Dict[Any, _Slot] = {}
        self.retry_heap: List[Tuple[float, int, SweepPoint, int]] = []
        self.probation: "deque[Tuple[SweepPoint, int]]" = deque()
        self.blames: Dict[str, int] = {}  # pool-break co-blames, per key
        self.resolved: Dict[str, PointRecord] = {}
        self.restarts = 0
        self._seq = itertools.count()

    # ------------------------------------------------------------------ #
    # settling outcomes (every run)
    # ------------------------------------------------------------------ #
    def start(self, point: SweepPoint, stamp: Dict[str, Any]) -> None:
        """Publish the :class:`PointStarted` of one attempt from its stamp.

        ``stamp`` may be any mapping carrying the begin stamp — a record's
        ``meta`` does — so a start replayed from a worker is as faithful as
        a live one.  In-process starts are published live, as evaluation
        begins; a pool run replays each from the outcome it settles.
        """
        self.emit(
            PointStarted(
                key=point.key(),
                label=point.display_label,
                rung=point.rung,
                worker=stamp.get("worker"),
                ts=stamp.get("started_ts"),
                seq=stamp.get("worker_seq"),
            )
        )

    def _retry(
        self,
        point: SweepPoint,
        attempt: int,
        error: str,
        reason: str,
        delay_s: float = 0.0,
        worker: Optional[int] = None,
    ) -> None:
        """Announce that ``attempt`` will be retried (:class:`PointRetried`)."""
        self.emit(
            PointRetried(
                key=point.key(),
                label=point.display_label,
                rung=point.rung,
                attempt=attempt,
                error=error,
                delay_s=delay_s,
                reason=reason,
                worker=worker,
            )
        )

    def settle(self, point: SweepPoint, outcome: Outcome) -> Optional[PointRecord]:
        """Settle one outcome; the point's final record, or None if retried."""
        if isinstance(outcome, PointError):
            return self.retry_or_fail(point, outcome)
        return self.deliver(point, outcome)

    def deliver(self, point: SweepPoint, record: PointRecord) -> PointRecord:
        """Resolve ``point`` with its record; a success clears its blames."""
        self.resolved[record.key] = record
        self.blames.pop(record.key, None)
        if self.pool is not None:
            self.start(point, record.meta)
        self.emit(PointCompleted(record=record))
        return record

    def fail(self, point: SweepPoint, error: str, attempts: int) -> PointRecord:
        """Resolve ``point`` with its permanent failure record."""
        record = PointRecord.failure(
            key=point.key(),
            label=point.display_label,
            backend=point.backend,
            system=point.request.system,
            iterations=point.request.iterations,
            rung=point.rung,
            error=error,
            attempts=attempts,
            meta={"run": self.run_index},
        )
        self.resolved[record.key] = record
        self.emit(PointFailed(record=record))
        return record

    def retry_or_fail(self, point: SweepPoint, error: PointError) -> Optional[PointRecord]:
        """Re-issue a failed attempt after its backoff, or fail it at budget."""
        if self.pool is not None:
            self.start(point, error.stamp)
        policy = self.policy
        if policy is None or not error.retryable or error.attempt >= self.max_attempts:
            return self.fail(point, error.error, error.attempt)
        delay = policy.delay_s(point.key(), error.attempt)
        worker = error.stamp.get("worker")
        self._retry(point, error.attempt, error.error, "error", delay, worker)
        self._reissue(point, error.attempt + 1, delay)
        return None

    def _reissue(self, point: SweepPoint, attempt: int, delay: float) -> None:
        ready = time.monotonic() + delay
        heapq.heappush(self.retry_heap, (ready, next(self._seq), point, attempt))

    def next_retry(self) -> Tuple[SweepPoint, int]:
        """Pop the earliest retry and its attempt, sleeping out its backoff."""
        ready, _, point, attempt = heapq.heappop(self.retry_heap)
        pause = ready - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        return point, attempt

    # ------------------------------------------------------------------ #
    # driving an executor (pool runs)
    # ------------------------------------------------------------------ #
    def _accepting(self) -> bool:
        """Whether ordinary work may start: a worker is free and no
        probation point is waiting for, or running on, its own."""
        return (
            len(self.slots) < self.jobs
            and not self.probation
            and not any(s.solo and not s.abandoned for s in self.slots.values())
        )

    def fill(self) -> None:
        """Submit work to free workers: a probation point alone on an empty
        pool, otherwise due retries first, then first-attempt chunks."""
        self.unwedge()
        while self.probation and not self.slots:
            point, attempt = self.probation.popleft()
            if point.key() not in self.resolved:
                self.submit([point], attempt, solo=True)
        now = time.monotonic()
        while self._accepting():
            if self.retry_heap and self.retry_heap[0][0] <= now:
                _, _, point, attempt = heapq.heappop(self.retry_heap)
                if point.key() not in self.resolved:
                    self.submit([point], attempt)
            elif self.queue:
                self.submit(self.queue.popleft(), 1)
            else:
                break

    def submit(self, chunk: List[SweepPoint], attempt: int, solo: bool = False) -> None:
        """Hand one chunk to the executor; its deadline starts now."""
        deadline = None
        if self.deadline_s is not None:
            deadline = time.monotonic() + self.deadline_s * len(chunk)
        args = (chunk, self.keep_results, self.run_index, self.policy, attempt)
        try:
            future = self.pool.submit(_evaluate_chunk, args)
        except BrokenExecutor as exc:
            if self.policy is None:
                raise  # fail-fast: crash recovery needs a policy
            # The pool died between deliveries (nothing of ours was in
            # flight, or it would have surfaced via a future): replace it.
            self.respawn(f"{type(exc).__name__}: {exc}")
            future = self.pool.submit(_evaluate_chunk, args)
        self.slots[future] = _Slot(list(chunk), attempt, deadline, solo)

    def timeout(self) -> Optional[float]:
        """Seconds until the next deadline or due retry (None: none pending)."""
        now = time.monotonic()
        waits = [
            slot.deadline - now
            for slot in self.slots.values()
            if not slot.abandoned and slot.deadline is not None
        ]
        if self.retry_heap and self._accepting():
            waits.append(self.retry_heap[0][0] - now)
        return max(0.0, min(waits)) if waits else None

    def collect(self, done: Iterable[Any]) -> None:
        """Settle finished futures; a broken one takes the whole pool down.

        First completion wins: a late straggler's result for a resolved
        point is ignored, and so is a failed attempt from an abandoned
        chunk, whose point was already re-issued or failed.
        """
        broken: Optional[BaseException] = None
        for future in done:
            try:
                outcomes = future.result()
            except BrokenExecutor as exc:
                if self.policy is None:
                    raise  # fail-fast: crash recovery needs a policy
                broken = exc  # the slot stays: break_pool takes every slot
                continue
            slot = self.slots.pop(future)
            for point, outcome in zip(slot.points, outcomes):
                stale = slot.abandoned and isinstance(outcome, PointError)
                if not stale and point.key() not in self.resolved:
                    self.settle(point, outcome)
        if broken is not None:
            self.break_pool(broken)

    def break_pool(self, exc: BaseException) -> None:
        """Respawn a broken pool and charge its live chunks' points.

        One break kills every in-flight future, and the parent cannot know
        which co-scheduled point killed the worker, so each unresolved point
        collects a crash *blame* and is re-issued (:class:`WorkerLost`,
        :class:`PoolRestarted`, then ``worker-lost`` retries).  Enough
        blames put a point on **probation**: it runs *solo*.  A solo crash
        is certain guilt and quarantines the point as failed ("poison"); a
        solo success clears its blames.  Abandoned chunks were settled by
        :meth:`expire` already.
        """
        error = f"{type(exc).__name__}: {exc}".strip(": ")
        victims = [
            (slot, point)
            for slot in self.slots.values()
            if not slot.abandoned
            for point in slot.points
            if point.key() not in self.resolved
        ]
        lost = _lost_worker_pid(self.pool)
        self.emit(WorkerLost(worker=lost, inflight=len(victims), error=error))
        self.slots.clear()
        self.respawn(error)
        for slot, point in victims:
            if slot.solo:
                reason = f"point repeatedly crashed the worker pool ({error})"
                self.fail(point, reason, slot.attempt)
                continue
            key = point.key()
            self.blames[key] = self.blames.get(key, 0) + 1
            self._retry(point, slot.attempt, error, "worker-lost")
            if self.blames[key] >= max(1, self.max_attempts - 1):
                self.probation.append((point, slot.attempt + 1))
            else:
                self._reissue(point, slot.attempt + 1, 0.0)

    def expire(self) -> None:
        """Abandon chunks past their deadline: re-issue each unresolved
        point at once, or fail it when that was its last attempt."""
        now = time.monotonic()
        for slot in self.slots.values():
            if slot.abandoned or slot.deadline is None or slot.deadline > now:
                continue
            slot.abandoned = True
            error = f"deadline {self.deadline_s:g}s exceeded"
            for point in slot.points:
                if point.key() in self.resolved:
                    continue
                if slot.attempt < self.max_attempts:
                    self._retry(point, slot.attempt, error, "deadline")
                    self._reissue(point, slot.attempt + 1, 0.0)
                else:
                    self.fail(point, f"point {error}", slot.attempt)

    def unwedge(self) -> None:
        """Replace the pool when only abandoned chunks occupy it and that
        blocks progress.  Their points are settled, so nothing is lost."""
        stuck = len(self.slots)
        if not stuck or not all(slot.abandoned for slot in self.slots.values()):
            return
        if self.probation:
            reason = f"{stuck} abandoned worker(s) replaced to run a probation point alone"
        elif stuck >= self.jobs:
            reason = f"{stuck} worker(s) stuck past deadline"
        else:
            return
        self.slots.clear()
        self.respawn(reason)

    def respawn(self, reason: str) -> None:
        """Kill the pool and start a fresh one (:class:`PoolRestarted`)."""
        assert self.spawn is not None, "only a pool run respawns"
        self.restarts += 1
        _terminate_pool(self.pool)
        self.pool = self.spawn()
        self.emit(PoolRestarted(restarts=self.restarts, jobs=self.jobs, reason=reason))

    def close(self) -> None:
        """Tear the pool down, stragglers and all."""
        if self.pool is not None:
            _terminate_pool(self.pool)


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #
class Runner:
    """Base class: execute sweep points, preserving input order.

    Each ``run()`` invocation gets a fresh index, recorded in every record's
    ``meta["run"]``: cache counters are cumulative *within* one invocation,
    so aggregation must distinguish invocations (a multi-rung strategy calls
    ``run()`` once per rung, possibly reusing worker pids).

    When :attr:`event_sink` is set (the campaign engine installs its event
    bus there), the runner publishes :class:`PointStarted` /
    :class:`PointCompleted` events from the parent process.  The attribute
    seam — rather than a ``run()`` parameter — keeps every subclass that
    overrides ``run()`` working unchanged.
    """

    #: Degree of parallelism the runner provides.
    jobs: int = 1

    #: Where to publish run events (installed by the campaign engine).
    event_sink: Optional[EventSink] = None

    #: Retry/deadline policy (installed by the campaign engine, like
    #: :attr:`event_sink`).  ``None`` is fail-fast: the first evaluation
    #: exception propagates with its original type.
    retry_policy: Optional[RetryPolicy] = None

    def _next_run_index(self) -> int:
        # Lazy so Runner subclasses need not chain __init__.
        self._run_counter = getattr(self, "_run_counter", 0) + 1
        return self._run_counter

    def run(
        self, points: Sequence[SweepPoint], keep_results: bool = False
    ) -> List[PointRecord]:
        """Evaluate every point (must be overridden)."""
        raise NotImplementedError


def _run_in_process(
    points: Sequence[SweepPoint],
    keep_results: bool,
    strip_artifacts: bool,
    run_index: int,
    event_sink: Optional[EventSink],
    policy: Optional[RetryPolicy],
) -> List[PointRecord]:
    """Drive the evaluation loop live (SerialRunner, the pool's 1-job fallback).

    Starts are published as evaluation begins and outcomes settled through
    the :class:`_Scheduler` as they land.  A failed attempt (only a policy
    yields one) is retried inline once its backoff has been slept out, so a
    point settles before the next one starts.
    """
    baseline = plan_cache.cache_info()
    scheduler = _Scheduler(policy, event_sink, run_index)
    on_start = scheduler.start if event_sink is not None else None

    def evaluate(batch: Sequence[SweepPoint], attempt: int):
        return _evaluate_points(
            batch, keep_results, baseline, strip_artifacts, run_index, policy, attempt, on_start
        )

    records: List[PointRecord] = []
    for point, outcome in evaluate(points, 1):
        record = scheduler.settle(point, outcome)
        while record is None:
            point, attempt = scheduler.next_retry()
            [(_, outcome)] = evaluate([point], attempt)
            record = scheduler.settle(point, outcome)
        records.append(record)
    return records


class SerialRunner(Runner):
    """The in-process reference executor: one point after another."""

    jobs = 1

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = retry_policy

    def run(
        self, points: Sequence[SweepPoint], keep_results: bool = False
    ) -> List[PointRecord]:
        return _run_in_process(
            points,
            keep_results,
            strip_artifacts=False,
            run_index=self._next_run_index(),
            event_sink=self.event_sink,
            policy=self.retry_policy,
        )


class ProcessPoolRunner(Runner):
    """Chunked sharding over a :class:`concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    jobs:
        Worker process count.
    chunksize:
        Points per shard.  When given, chunks are fixed-size (the historical
        behaviour); when ``None`` (the default) the point list is cut into
        about four **cost-balanced** shards per worker, weighted by predicted
        compile cost (:func:`point_cost_weight`), so a single giant problem
        does not straggle one worker while the rest idle.

    Workers start with ``fork`` where available (cheap on Linux), otherwise
    with the platform default.
    """

    def __init__(
        self,
        jobs: int = 2,
        chunksize: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be positive")
        self.jobs = jobs
        self.chunksize = chunksize
        self.retry_policy = retry_policy

    @staticmethod
    def _context():
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return None

    def _chunk(self, points: List[SweepPoint], jobs: int) -> List[List[SweepPoint]]:
        """Shard the point list: fixed-size when asked, cost-balanced otherwise."""
        if self.chunksize is not None:
            return [
                points[i : i + self.chunksize]
                for i in range(0, len(points), self.chunksize)
            ]
        return cost_balanced_chunks(points, n_chunks=jobs * 4)

    def run(
        self, points: Sequence[SweepPoint], keep_results: bool = False
    ) -> List[PointRecord]:
        points = list(points)
        if not points:
            return []
        run_index = self._next_run_index()
        jobs = min(self.jobs, len(points))
        if jobs == 1:
            # In-process fallback honouring the parallel contract: same run
            # tagging, and artifacts stripped exactly as the workers would.
            return _run_in_process(
                points,
                keep_results,
                strip_artifacts=True,
                run_index=run_index,
                event_sink=self.event_sink,
                policy=self.retry_policy,
            )
        return self._run_pool(points, keep_results, run_index, jobs)

    def _run_pool(
        self,
        points: List[SweepPoint],
        keep_results: bool,
        run_index: int,
        jobs: int,
    ) -> List[PointRecord]:
        """The pool path: a submit/wait loop driving the :class:`_Scheduler`.

        Workers never retry; every transition is the scheduler's.  Points
        sharing a key are evaluated once; every copy in ``points`` receives
        that one record.
        """
        unique: Dict[str, SweepPoint] = {}
        for p in points:
            unique.setdefault(p.key(), p)
        scheduler = _Scheduler(
            self.retry_policy,
            self.event_sink,
            run_index,
            keep_results,
            jobs,
            spawn=partial(ProcessPoolExecutor, max_workers=jobs, mp_context=self._context()),
        )
        scheduler.queue.extend(self._chunk(list(unique.values()), jobs))
        try:
            while len(scheduler.resolved) < len(unique):
                scheduler.fill()
                timeout = scheduler.timeout()
                if scheduler.slots:
                    done, _ = wait(
                        list(scheduler.slots), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    scheduler.collect(done)
                elif timeout is not None:
                    time.sleep(timeout)  # nothing running: sit out a backoff
                else:
                    raise RuntimeError(
                        "worker pool lost track of "
                        f"{len(unique) - len(scheduler.resolved)} unresolved point(s)"
                    )
                scheduler.expire()
        finally:
            scheduler.close()
        return [scheduler.resolved[p.key()] for p in points]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill workers, then release the executor.

    ``shutdown(wait=True)`` would block behind wedged or dead workers (an
    abandoned straggler may still be running when the last point lands), so
    live worker processes are terminated first (best-effort, via the
    executor's private process table) and the shutdown never waits.  The
    killed workers are then reaped: a forked worker holds the parent's open
    files (e.g. a locked checkpoint) until it has actually exited.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join(timeout=5.0)


def _lost_worker_pid(pool: ProcessPoolExecutor) -> Optional[int]:
    """Best-effort pid of a dead worker in a broken pool (None if unknown)."""
    processes = getattr(pool, "_processes", None) or {}
    for pid, proc in list(processes.items()):
        try:
            if not proc.is_alive():
                return pid
        except Exception:
            continue
    return None


def make_runner(jobs: int = 1, retry_policy: Optional[RetryPolicy] = None) -> Runner:
    """The standard runner for a given parallelism degree."""
    if jobs <= 1:
        return SerialRunner(retry_policy=retry_policy)
    return ProcessPoolRunner(jobs=jobs, retry_policy=retry_policy)
