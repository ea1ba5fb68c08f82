"""Pluggable sweep executors: in-process serial and process-pool parallel.

Both runners share one contract: ``run(points)`` evaluates every
:class:`~repro.sweep.spec.SweepPoint` and returns one
:class:`~repro.sweep.record.PointRecord` per point, **in input order**, while
an optional ``on_result`` callback observes records as they complete.

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
exists, and the parent retries it with deterministic backoff.  The pool
runner drives its workers through one parent-side state machine:
stragglers past the policy deadline are abandoned and re-issued, a broken
pool is respawned with its in-flight points re-enqueued, and points that
repeatedly crash the pool are quarantined as failure records instead of
aborting the campaign.

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
reflect actual execution.  Per record the order is ``PointStarted`` …
``on_result`` → ``PointCompleted``; ``on_result`` runs first so legacy
callback wrappers (e.g. crash-injection test runners) still gate what the
event stream sees.

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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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

#: Callback observing each record as it completes (legacy checkpoint hook).
ResultCallback = Callable[[PointRecord], None]


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


def _failure_record(
    point: SweepPoint, error: str, attempts: int, run_index: int
) -> PointRecord:
    """The permanent failure record for a point whose retries are exhausted."""
    return PointRecord.failure(
        key=point.key(),
        label=point.display_label,
        backend=point.backend,
        system=point.request.system,
        iterations=point.request.iterations,
        rung=point.rung,
        error=error,
        attempts=attempts,
        meta={"run": run_index},
    )


def _started(point: SweepPoint, stamp: Dict[str, Any]) -> PointStarted:
    """The :class:`PointStarted` of one attempt, built from its begin stamp.

    ``stamp`` may be any mapping carrying the stamp — a record's ``meta``
    does — so a start replayed from a worker is as faithful as a live one.
    """
    return PointStarted(
        key=point.key(),
        label=point.display_label,
        rung=point.rung,
        worker=stamp.get("worker"),
        ts=stamp.get("started_ts"),
        seq=stamp.get("worker_seq"),
    )


def _retried(
    point: SweepPoint,
    attempt: int,
    error: str,
    reason: str,
    delay_s: float = 0.0,
    worker: Optional[int] = None,
) -> PointRetried:
    """The :class:`PointRetried` announcing that ``attempt`` will be retried."""
    return PointRetried(
        key=point.key(),
        label=point.display_label,
        rung=point.rung,
        attempt=attempt,
        error=error,
        delay_s=delay_s,
        reason=reason,
        worker=worker,
    )


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
    overrides ``run()`` with the historical signature working unchanged.
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
        self,
        points: Sequence[SweepPoint],
        on_result: Optional[ResultCallback] = None,
        keep_results: bool = False,
    ) -> List[PointRecord]:
        """Evaluate every point (must be overridden)."""
        raise NotImplementedError


def _run_in_process(
    points: Sequence[SweepPoint],
    on_result: Optional[ResultCallback],
    keep_results: bool,
    strip_artifacts: bool,
    run_index: int,
    event_sink: Optional[EventSink],
    policy: Optional[RetryPolicy],
) -> List[PointRecord]:
    """Drive the evaluation loop live (SerialRunner, the pool's 1-job fallback).

    Starts are published as evaluation begins and records delivered as they
    land.  A failed attempt (only a policy yields one) is retried inline
    after the policy's deterministic backoff, announced by
    :class:`PointRetried`; an exhausted or fatal one lands a failure record
    and :class:`PointFailed` (``on_result`` observes successes only).
    """
    emit = event_sink if event_sink is not None else _discard
    baseline = plan_cache.cache_info()

    def publish_start(point: SweepPoint, stamp: Dict[str, Any]) -> None:
        emit(_started(point, stamp))

    on_start = publish_start if event_sink is not None else None

    def evaluate(batch: Sequence[SweepPoint], attempt: int):
        return _evaluate_points(
            batch, keep_results, baseline, strip_artifacts, run_index, policy, attempt, on_start
        )

    records: List[PointRecord] = []
    for point, outcome in evaluate(points, 1):
        while (
            isinstance(outcome, PointError)
            and outcome.retryable
            and outcome.attempt < policy.max_attempts
        ):
            delay = policy.delay_s(point.key(), outcome.attempt)
            emit(
                _retried(
                    point,
                    outcome.attempt,
                    outcome.error,
                    "error",
                    delay,
                    outcome.stamp.get("worker"),
                )
            )
            if delay > 0:
                time.sleep(delay)
            [(_, outcome)] = evaluate([point], outcome.attempt + 1)
        if isinstance(outcome, PointError):
            failure = _failure_record(point, outcome.error, outcome.attempt, run_index)
            records.append(failure)
            emit(PointFailed(record=failure))
            continue
        records.append(outcome)
        if on_result is not None:
            on_result(outcome)
        emit(PointCompleted(record=outcome))
    return records


class SerialRunner(Runner):
    """The in-process reference executor: one point after another."""

    jobs = 1

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = retry_policy

    def run(
        self,
        points: Sequence[SweepPoint],
        on_result: Optional[ResultCallback] = None,
        keep_results: bool = False,
    ) -> List[PointRecord]:
        return _run_in_process(
            points,
            on_result,
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
    start_method:
        Multiprocessing start method; defaults to ``fork`` where available
        (cheap on Linux), otherwise the platform default.
    """

    def __init__(
        self,
        jobs: int = 2,
        chunksize: Optional[int] = None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be positive")
        self.jobs = jobs
        self.chunksize = chunksize
        self.retry_policy = retry_policy
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self.start_method = start_method

    def _context(self):
        if self.start_method is None:
            return None
        return multiprocessing.get_context(self.start_method)

    def _chunk(self, points: List[SweepPoint], jobs: int) -> List[List[SweepPoint]]:
        """Shard the point list: fixed-size when asked, cost-balanced otherwise."""
        if self.chunksize is not None:
            return [
                points[i : i + self.chunksize]
                for i in range(0, len(points), self.chunksize)
            ]
        return cost_balanced_chunks(points, n_chunks=jobs * 4)

    def run(
        self,
        points: Sequence[SweepPoint],
        on_result: Optional[ResultCallback] = None,
        keep_results: bool = False,
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
                on_result,
                keep_results,
                strip_artifacts=True,
                run_index=run_index,
                event_sink=self.event_sink,
                policy=self.retry_policy,
            )
        return self._run_pool(points, on_result, keep_results, run_index, jobs)

    def _run_pool(
        self,
        points: List[SweepPoint],
        on_result: Optional[ResultCallback],
        keep_results: bool,
        run_index: int,
        jobs: int,
    ) -> List[PointRecord]:
        """The pool path: one parent-side state machine (workers never retry).

        * Every in-flight chunk carries its points' 1-based attempt number
          and (when the policy sets ``deadline_s``) a cumulative wall-clock
          deadline.  Expired chunks are *abandoned* — not cancelled, a
          running future cannot be — their unresolved points re-issued
          immediately as singletons; results are first-completion-wins, so
          a straggler that eventually lands is simply ignored.  When every
          worker is wedged on an abandoned chunk the pool is replaced
          outright to reclaim capacity.
        * A :class:`BrokenExecutor` takes down every in-flight future at
          once.  The pool is respawned (:class:`WorkerLost` +
          :class:`PoolRestarted` events) and unresolved in-flight points
          re-issued — but each also collects a *crash blame*, because the
          parent cannot know which of the co-scheduled points killed the
          worker.  Enough blames put a point on **probation**: it runs
          *solo*, with nothing else in flight.  A solo crash is certain
          guilt — the point is quarantined as failed ("poison") instead of
          killing the campaign; a solo success clears its blames
          (co-scheduled innocents walk free).
        * Ordinary retryable failures come back as :class:`PointError`
          markers and re-enter through a ready-time heap after the policy's
          deterministic backoff.

        Without a policy the same machine is fail-fast: an evaluation error
        a worker re-raised surfaces from its future with the original type,
        a broken pool re-raises, and no deadline is ever armed.

        Points sharing a key are evaluated once; every copy in ``points``
        receives that one record.
        """
        unique: Dict[str, SweepPoint] = {}
        for p in points:
            unique.setdefault(p.key(), p)
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        deadline_s = policy.deadline_s if policy is not None else None
        emit = self.event_sink if self.event_sink is not None else _discard
        resolved: Dict[str, PointRecord] = {}
        tries: Dict[str, int] = {}  # attempts submitted so far, per key
        blames: Dict[str, int] = {}  # pool-break co-blames, per key
        retry_heap: List[Tuple[float, int, SweepPoint]] = []  # (ready, seq, p)
        heap_seq = itertools.count()
        probation: "deque[SweepPoint]" = deque()
        restarts = 0

        @dataclass
        class _Inflight:
            points: List[SweepPoint]
            attempt: int
            deadline: Optional[float]
            solo: bool = False
            abandoned: bool = False

        inflight: Dict[Any, _Inflight] = {}
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=self._context())

        # -------------------------------------------------------------- #
        def respawn(reason: str) -> None:
            nonlocal pool, restarts
            restarts += 1
            _terminate_pool(pool)
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=self._context())
            emit(PoolRestarted(restarts=restarts, jobs=jobs, reason=reason))

        def submit(chunk: List[SweepPoint], solo: bool = False) -> None:
            # Initial chunks are first attempts; every retry runs alone.
            attempt = tries.get(chunk[0].key(), 0) + 1
            assert len(chunk) == 1 or attempt == 1, "a retried chunk must be a singleton"
            for p in chunk:
                tries[p.key()] = attempt
            deadline = None
            if deadline_s is not None:
                deadline = time.monotonic() + deadline_s * len(chunk)
            for _ in range(2):
                try:
                    future = pool.submit(
                        _evaluate_chunk,
                        (chunk, keep_results, run_index, policy, attempt),
                    )
                    break
                except BrokenExecutor as exc:
                    if policy is None:
                        raise  # fail-fast: crash recovery needs a policy
                    # The pool died between deliveries (nothing of ours was
                    # in flight, or it would have surfaced via a future):
                    # replace it and submit again.
                    respawn(f"{type(exc).__name__}: {exc}")
            else:  # pragma: no cover - two consecutive dead-on-arrival pools
                raise RuntimeError("worker pool died immediately after respawn")
            inflight[future] = _Inflight(
                points=list(chunk), attempt=attempt, deadline=deadline, solo=solo
            )

        def unresolved(
            infos: Sequence[_Inflight],
        ) -> List[Tuple[_Inflight, SweepPoint]]:
            return [
                (info, p)
                for info in infos
                for p in info.points
                if p.key() not in resolved
            ]

        def deliver(point: SweepPoint, record: PointRecord) -> None:
            resolved[record.key] = record
            blames.pop(record.key, None)
            emit(_started(point, record.meta))
            if on_result is not None:
                on_result(record)
            emit(PointCompleted(record=record))

        def fail(point: SweepPoint, error: str, attempts: int) -> None:
            record = _failure_record(point, error, attempts, run_index)
            resolved[record.key] = record
            emit(PointFailed(record=record))

        def reissue(point: SweepPoint, delay: float) -> None:
            heapq.heappush(
                retry_heap, (time.monotonic() + delay, next(heap_seq), point)
            )

        def handle_error(point: SweepPoint, item: PointError) -> None:
            # The attempt did begin in a worker: replay its start stamp so
            # the stream stays faithful even for failed attempts.
            emit(_started(point, item.stamp))
            if item.retryable and item.attempt < max_attempts:
                delay = policy.delay_s(point.key(), item.attempt)
                emit(
                    _retried(
                        point,
                        item.attempt,
                        item.error,
                        "error",
                        delay,
                        item.stamp.get("worker"),
                    )
                )
                reissue(point, delay)
            else:
                fail(point, item.error, item.attempt)

        def handle_pool_break(infos: List[_Inflight], exc: BaseException) -> None:
            error = f"{type(exc).__name__}: {exc}".strip(": ")
            # Abandoned chunks were already re-issued (or failed) by the
            # deadline watchdog.
            victims = unresolved([info for info in infos if not info.abandoned])
            emit(
                WorkerLost(
                    worker=_lost_worker_pid(pool), inflight=len(victims), error=error
                )
            )
            respawn(error)
            for info, p in victims:
                if info.solo:
                    # Solo run, solo crash: guilt is certain. Quarantine.
                    fail(
                        p,
                        f"point repeatedly crashed the worker pool ({error})",
                        info.attempt,
                    )
                    continue
                key = p.key()
                blames[key] = blames.get(key, 0) + 1
                emit(_retried(p, info.attempt, error, "worker-lost"))
                if blames[key] >= max(1, max_attempts - 1):
                    probation.append(p)
                else:
                    reissue(p, 0.0)

        # -------------------------------------------------------------- #
        try:
            for chunk in self._chunk(list(unique.values()), jobs):
                submit(chunk)
            while len(resolved) < len(unique):
                now = time.monotonic()
                if probation:
                    # Probation points run with an empty pool: wait for the
                    # in-flight work to drain before submitting one, alone.
                    if not inflight:
                        point = probation.popleft()
                        if point.key() not in resolved:
                            submit([point], solo=True)
                        continue
                else:
                    while retry_heap and retry_heap[0][0] <= now:
                        _, _, point = heapq.heappop(retry_heap)
                        if point.key() not in resolved:
                            submit([point])
                if not inflight:
                    if retry_heap:
                        time.sleep(
                            min(0.05, max(0.0, retry_heap[0][0] - time.monotonic()))
                        )
                        continue
                    if probation:
                        continue
                    raise RuntimeError(
                        "worker pool lost track of "
                        f"{len(unique) - len(resolved)} unresolved point(s)"
                    )
                waits = [
                    info.deadline - now
                    for info in inflight.values()
                    if not info.abandoned and info.deadline is not None
                ]
                if retry_heap and not probation:
                    waits.append(retry_heap[0][0] - now)
                timeout = max(0.0, min(waits)) if waits else None
                if probation and timeout is None:
                    # A probation point is waiting for the pool to drain;
                    # poll rather than block forever behind a wedged,
                    # already-abandoned straggler.
                    timeout = 0.05
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken: Optional[BaseException] = None
                broken_infos: List[_Inflight] = []
                for future in done:
                    info = inflight.pop(future)
                    try:
                        items = future.result()
                    except BrokenExecutor as exc:
                        if policy is None:
                            raise  # fail-fast: crash recovery needs a policy
                        broken = exc
                        broken_infos.append(info)
                        continue
                    for point, item in zip(info.points, items):
                        if point.key() in resolved:
                            continue  # a late straggler lost the race
                        if isinstance(item, PointError):
                            handle_error(point, item)
                        else:
                            deliver(point, item)
                if broken is not None:
                    # One break kills every sibling future; drain them all.
                    broken_infos.extend(inflight.values())
                    inflight.clear()
                    handle_pool_break(broken_infos, broken)
                    continue
                # Deadline watchdog: abandon expired chunks, re-issue their
                # unresolved points immediately (or fail them at budget).
                now = time.monotonic()
                expired = [
                    info
                    for info in inflight.values()
                    if not info.abandoned
                    and info.deadline is not None
                    and info.deadline <= now
                ]
                for info, p in unresolved(expired):
                    error = f"deadline {deadline_s:g}s exceeded"
                    if info.attempt < max_attempts:
                        emit(_retried(p, info.attempt, error, "deadline"))
                        reissue(p, 0.0)
                    else:
                        fail(p, f"point {error}", info.attempt)
                for info in expired:
                    info.abandoned = True
                live_abandoned = sum(
                    1 for info in inflight.values() if info.abandoned
                )
                if live_abandoned >= jobs:
                    # Every worker is wedged on a straggler: replace the
                    # pool so the re-issued points have somewhere to run.
                    victims = unresolved(
                        [info for info in inflight.values() if not info.abandoned]
                    )
                    inflight.clear()
                    respawn(f"{live_abandoned} worker(s) stuck past deadline")
                    for info, p in victims:
                        emit(
                            _retried(
                                p,
                                info.attempt,
                                "pool replaced while in flight",
                                "worker-lost",
                            )
                        )
                        reissue(p, 0.0)
        finally:
            _terminate_pool(pool)
        return [resolved[p.key()] for p in points]


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


def make_runner(
    jobs: int = 1,
    chunksize: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Runner:
    """The standard runner for a given parallelism degree."""
    if jobs <= 1:
        return SerialRunner(retry_policy=retry_policy)
    return ProcessPoolRunner(jobs=jobs, chunksize=chunksize, retry_policy=retry_policy)
