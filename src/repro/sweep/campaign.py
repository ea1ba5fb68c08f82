"""Campaign orchestration: spec → runner → event stream → aggregated result.

:func:`execute_campaign` is the engine: it expands a
:class:`~repro.sweep.spec.SweepSpec`, lets a search strategy decide which
points to evaluate, shards the work over the chosen runner, and pushes every
lifecycle step through an :class:`~repro.sweep.events.EventBus` — the JSONL
checkpointer, the in-memory result aggregator and any caller-supplied
observers (e.g. a live :class:`~repro.sweep.events.ProgressReporter`) all
consume the same typed :class:`~repro.sweep.events.RunEvent` stream.  The
same call scales from one core (``jobs=1``) to many (``jobs=N``) and from a
fresh run to a resumed one (same ``checkpoint`` path) without changing the
canonical result.

Most callers go through :class:`repro.api.Workbench`, the session facade
that owns the plan cache, runner policy and observers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults.policy import RetryPolicy
from repro.pipeline.cache import CacheInfo
from repro.sweep.checkpoint import CampaignCheckpoint
from repro.sweep.eventlog import EventLogObserver
from repro.sweep.events import (
    CampaignFinished,
    CampaignStarted,
    EventBus,
    ObserverError,
    PointCompleted,
    PointFailed,
    PointResumed,
    RunObserver,
)
from repro.sweep.record import PointRecord, canonical_json
from repro.sweep.runners import Runner, make_runner
from repro.sweep.spec import SweepPoint, SweepSpec, fingerprint_points
from repro.sweep.strategies import GridSearch, SearchStrategy, ranking_metric
from repro.utils.pareto import pareto_front
from repro.utils.tables import format_table


def pareto_front_records(records: Sequence[PointRecord]) -> List[PointRecord]:
    """The cycles / on-chip-memory Pareto front of a set of records.

    A record survives unless some other record is at least as good on both
    axes and strictly better on one — so exact ties survive together, and the
    returned front preserves the input order (sort beforehand for a
    deterministic report).  Timing-free records (no cycle count) are excluded.
    """
    candidates = [r for r in records if r.cycles is not None and r.total_bits is not None]
    return pareto_front(candidates, key=lambda r: (r.cycles, r.total_bits))


# --------------------------------------------------------------------------- #
# campaign diffing (regression tracking across PRs)
# --------------------------------------------------------------------------- #
def _row_key(row: Dict[str, Any]) -> Tuple[int, str]:
    return (row.get("rung", 0), row["key"])


@dataclass
class CampaignDiff:
    """Difference between two canonical row sets, keyed by (rung, key).

    ``added``/``removed`` are rows present only on the newer/older side;
    ``changed`` pairs rows that share a key but disagree on some canonical
    field.  Built from :meth:`CampaignResult.canonical_rows`, so timing and
    worker meta never produce spurious diffs.
    """

    added: List[Dict[str, Any]] = field(default_factory=list)
    removed: List[Dict[str, Any]] = field(default_factory=list)
    changed: List[Tuple[Dict[str, Any], Dict[str, Any]]] = field(default_factory=list)
    unchanged: int = 0

    @property
    def identical(self) -> bool:
        """True when both campaigns produced byte-identical canonical rows."""
        return not (self.added or self.removed or self.changed)

    def changed_fields(self, new_row: Dict[str, Any], old_row: Dict[str, Any]) -> List[str]:
        """The canonical field names on which a changed pair disagrees."""
        return sorted(
            name
            for name in set(new_row) | set(old_row)
            if new_row.get(name) != old_row.get(name)
        )

    def format(self, max_rows: int = 20) -> str:
        """Human-readable diff report (used by ``python -m repro.sweep diff``)."""
        if self.identical:
            return f"campaigns are identical ({self.unchanged} points)"
        lines = [
            f"campaign diff: {len(self.added)} added, {len(self.removed)} removed, "
            f"{len(self.changed)} changed, {self.unchanged} unchanged"
        ]
        for row in self.added[:max_rows]:
            lines.append(f"  + {row['label']} [{row['key']}]")
        for row in self.removed[:max_rows]:
            lines.append(f"  - {row['label']} [{row['key']}]")
        for new_row, old_row in self.changed[:max_rows]:
            deltas = ", ".join(
                f"{name}: {old_row.get(name)!r} -> {new_row.get(name)!r}"
                for name in self.changed_fields(new_row, old_row)
            )
            lines.append(f"  ~ {new_row['label']} [{new_row['key']}] {deltas}")
        shown = min(max_rows, len(self.added)) + min(max_rows, len(self.removed)) + min(
            max_rows, len(self.changed)
        )
        hidden = len(self.added) + len(self.removed) + len(self.changed) - shown
        if hidden > 0:
            lines.append(f"  ... and {hidden} more differences")
        return "\n".join(lines)


def diff_canonical_rows(
    new_rows: Iterable[Dict[str, Any]], old_rows: Iterable[Dict[str, Any]]
) -> CampaignDiff:
    """Diff two canonical row sets (new vs old), keyed by (rung, key)."""
    new_by_key = {_row_key(row): row for row in new_rows}
    old_by_key = {_row_key(row): row for row in old_rows}
    diff = CampaignDiff()
    for key in sorted(new_by_key.keys() | old_by_key.keys()):
        new_row, old_row = new_by_key.get(key), old_by_key.get(key)
        if old_row is None:
            diff.added.append(new_row)
        elif new_row is None:
            diff.removed.append(old_row)
        elif new_row != old_row:
            diff.changed.append((new_row, old_row))
        else:
            diff.unchanged += 1
    return diff


@dataclass
class CampaignResult:
    """Everything one campaign produced, with reporting helpers."""

    spec: SweepSpec
    records: List[PointRecord] = field(default_factory=list)
    evaluated: int = 0
    resumed: int = 0
    #: Points permanently failed (retries exhausted or quarantined poison),
    #: including failures resumed from the checkpoint.
    failed: int = 0
    jobs: int = 1
    strategy: str = "grid"
    wall_seconds: float = 0.0
    checkpoint_path: Optional[str] = None
    #: JSONL event-log sidecar this campaign appended to (None without one).
    #: Purely informational: the canonical determinism contract
    #: (:meth:`canonical_rows`, :meth:`to_json`) never includes it.
    event_log_path: Optional[str] = None
    #: Plan-cache counters of the freshly evaluated points, keyed by
    #: (worker pid, runner invocation): counters are cumulative within one
    #: ``Runner.run()`` call, and a multi-rung strategy triggers several.
    worker_cache_info: Dict[Tuple[int, int], CacheInfo] = field(default_factory=dict)
    #: Isolated failures of non-critical observers (empty on a clean run).
    observer_errors: List[ObserverError] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of records (evaluated + resumed)."""
        return len(self.records)

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters summed across every worker of this run."""
        hits = sum(info.hits for info in self.worker_cache_info.values())
        misses = sum(info.misses for info in self.worker_cache_info.values())
        maxsize = sum(info.maxsize for info in self.worker_cache_info.values())
        currsize = sum(info.currsize for info in self.worker_cache_info.values())
        return CacheInfo(hits=hits, misses=misses, maxsize=maxsize, currsize=currsize)

    @property
    def worker_count(self) -> int:
        """Distinct worker processes that evaluated fresh points."""
        return len({worker for worker, _run in self.worker_cache_info})

    def final_rung(self) -> List[PointRecord]:
        """Records of the highest rung (the trusted stage of adaptive runs)."""
        if not self.records:
            return []
        top = max(r.rung for r in self.records)
        return [r for r in self.records if r.rung == top]

    def best(
        self, objective: Optional[Callable[[PointRecord], Tuple]] = None
    ) -> Optional[PointRecord]:
        """The winning record of the final rung (ties broken by point key)."""
        candidates = [r for r in self.final_rung() if r.cycles is not None]
        if not candidates:
            return None
        metric = objective or ranking_metric
        return min(candidates, key=lambda r: (metric(r), r.key))

    def pareto_front(self) -> List[PointRecord]:
        """Cycles/memory Pareto front of the final rung, sorted for reports."""
        front = pareto_front_records(self.final_rung())
        return sorted(front, key=ranking_metric)

    # ------------------------------------------------------------------ #
    # determinism contract
    # ------------------------------------------------------------------ #
    def canonical_rows(self) -> List[dict]:
        """Deterministic rows sorted by (rung, key) — no timing, no pids.

        Failure records are excluded, matching :func:`canonical_json`: the
        contract covers successfully evaluated points only.
        """
        ordered = sorted(
            (r for r in self.records if not r.failed), key=lambda r: (r.rung, r.key)
        )
        return [r.canonical() for r in ordered]

    def to_json(self) -> str:
        """Byte-stable JSON: identical for serial and parallel runs."""
        return canonical_json(self.records)

    def diff(
        self, other: Union["CampaignResult", Iterable[Dict[str, Any]]]
    ) -> CampaignDiff:
        """Compare this campaign (new) against ``other`` (old).

        ``other`` may be another :class:`CampaignResult` or a pre-serialised
        canonical row list (e.g. loaded from a checkpoint of a previous PR's
        run).  The comparison is built on :meth:`canonical_rows`, so only
        deterministic fields can differ.
        """
        other_rows = (
            other.canonical_rows() if isinstance(other, CampaignResult) else list(other)
        )
        return diff_canonical_rows(self.canonical_rows(), other_rows)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def format(self, max_rows: int = 20) -> str:
        """Human-readable campaign report (used by the CLI and examples)."""
        info = self.cache_info()
        failures = f", {self.failed} FAILED" if self.failed else ""
        lines = [
            f"campaign {self.spec.name!r}: {self.size} points "
            f"({self.evaluated} evaluated, {self.resumed} resumed from checkpoint"
            f"{failures}), "
            f"strategy={self.strategy}, jobs={self.jobs}, "
            f"{self.wall_seconds:.2f}s wall",
            f"plan cache: {info.hits} hits / {info.misses} misses "
            f"(hit rate {info.hit_rate:.1%}) across "
            f"{max(1, self.worker_count)} worker(s)",
        ]
        if self.checkpoint_path:
            lines.append(f"checkpoint: {self.checkpoint_path}")
        if self.event_log_path:
            lines.append(f"event log: {self.event_log_path}")
        if self.observer_errors:
            lines.append(
                f"observer errors: {len(self.observer_errors)} isolated "
                "(see result.observer_errors)"
            )
        front = {id(r) for r in self.pareto_front()}
        best = self.best()
        headers = ["point", "backend", "rung", "cycles", "DRAM KiB", "mem bits", "front", "best"]
        shown = sorted(self.records, key=lambda r: (r.rung, ranking_metric(r)))
        rows = [
            [
                r.label,
                r.backend,
                r.rung,
                r.cycles if r.cycles is not None else "-",
                f"{r.dram_traffic_kib:.1f}" if r.dram_traffic_kib is not None else "-",
                r.total_bits if r.total_bits is not None else "-",
                "*" if id(r) in front else "",
                "<==" if best is not None and r is best else "",
            ]
            for r in shown[:max_rows]
        ]
        lines.append(format_table(headers, rows))
        if len(shown) > max_rows:
            lines.append(f"... and {len(shown) - max_rows} more rows")
        return "\n".join(lines)


def _aggregate_worker_caches(
    fresh: Sequence[PointRecord],
) -> Dict[Tuple[int, int], CacheInfo]:
    """Last-seen cumulative plan-cache counters per (worker pid, run index).

    Counters reset at the start of each ``Runner.run()`` invocation, so the
    per-invocation maxima are disjoint contributions that sum to the
    campaign total — even when a serial multi-rung strategy reuses one pid.
    """
    per_worker: Dict[Tuple[int, int], CacheInfo] = {}
    for record in fresh:
        meta = record.meta
        worker = meta.get("worker")
        if worker is None or "cache_hits" not in meta:
            continue
        key = (worker, meta.get("run", 0))
        info = CacheInfo(
            hits=int(meta.get("cache_hits", 0)),
            misses=int(meta.get("cache_misses", 0)),
            maxsize=0,
            currsize=int(meta.get("cache_size", 0)),
        )
        seen = per_worker.get(key)
        if seen is None or (info.hits + info.misses) > (seen.hits + seen.misses):
            per_worker[key] = info
    return per_worker


class _CampaignAggregator(RunObserver):
    """The critical observer folding the event stream into campaign state.

    Owns the authoritative ``done`` map (checkpoint-preloaded records plus
    everything completed so far); the engine's stage executor reads records
    back out of it, so the aggregator *is* the result — not a shadow copy.
    """

    def __init__(self, preloaded: Dict[str, PointRecord]) -> None:
        self.done: Dict[str, PointRecord] = preloaded
        self.fresh: List[PointRecord] = []
        self.resumed_keys: set = set()

    def on_point_completed(self, event) -> None:
        record = event.record
        self.done[record.key] = record
        self.fresh.append(record)

    def on_point_failed(self, event) -> None:
        # A failure record is authoritative state too: the stage executor
        # reads it back out of ``done`` and resume skips the point — but it
        # is *not* fresh, so evaluated counts and cache stats cover
        # successful evaluations only.
        self.done[event.record.key] = event.record

    def on_point_resumed(self, event) -> None:
        self.resumed_keys.add(event.record.key)


def execute_campaign(
    spec: SweepSpec,
    jobs: int = 1,
    checkpoint: Optional[Union[str, CampaignCheckpoint]] = None,
    strategy: Optional[SearchStrategy] = None,
    runner: Optional[Runner] = None,
    observers: Sequence[Any] = (),
    event_log: Optional[Union[str, EventLogObserver]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    retry_failed: bool = False,
) -> CampaignResult:
    """Run (or resume) a campaign through the event-streaming engine.

    Parameters
    ----------
    spec:
        The declarative problem space.
    jobs:
        Parallelism degree; ``jobs > 1`` shards points over a process pool.
        Ignored when an explicit ``runner`` is given.
    checkpoint:
        JSONL path (or prepared :class:`CampaignCheckpoint`).  Completed
        points found there are *not* re-evaluated; fresh completions are
        appended as they finish, so a killed run resumes where it stopped.
    strategy:
        Search strategy; defaults to exhaustive :class:`GridSearch`.
    runner:
        Explicit executor, overriding ``jobs`` (used by tests).
    observers:
        Extra event consumers (objects with ``on_event`` or callables).
        Their failures are isolated: an observer that raises is recorded on
        ``result.observer_errors`` and the campaign carries on.
    event_log:
        JSONL path (or prepared :class:`EventLogObserver`): every event of
        this run is persisted there, fingerprint-guarded like the
        checkpoint, for ``--follow`` and ``python -m repro.sweep replay``.
        Attaching one never changes the canonical result.
    retry_policy:
        A :class:`~repro.faults.policy.RetryPolicy` enabling fault-tolerant
        execution: failed attempts are retried with deterministic backoff,
        stragglers re-issued, broken pools respawned, and exhausted points
        recorded as *failed* instead of aborting the campaign.  ``None``
        (the default) keeps fail-fast semantics.
    retry_failed:
        Re-evaluate points whose checkpoint record says they permanently
        failed in an earlier session.  By default a resume skips them,
        exactly like successful points.
    """
    t0 = time.perf_counter()
    strategy = strategy or GridSearch()
    runner = runner or make_runner(jobs)
    points = spec.expand()  # expanded and fingerprinted exactly once per run
    fingerprint = fingerprint_points(spec.name, points)
    store = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, CampaignCheckpoint)
            else CampaignCheckpoint(checkpoint)
        )
    preloaded: Dict[str, PointRecord] = (
        store.load(fingerprint=fingerprint) if store is not None else {}
    )
    if retry_failed:
        # Forget persisted failure verdicts: the points re-enter the todo
        # set and, on success, their fresh records supersede the failures
        # in the checkpoint (last record wins on load).
        preloaded = {k: r for k, r in preloaded.items() if not r.failed}
    if store is not None:
        store.open_for_append(
            spec,
            fingerprint=fingerprint,
            total_points=len(points),
            strategy=strategy.name,
        )
    elog: Optional[EventLogObserver] = None
    # From here on the checkpoint's append lock is held: every further
    # failure — an event-log fingerprint mismatch, a critical observer
    # raising on an event — must release it (and the event-log handle), or
    # a long-lived session that catches the error would wedge the files.
    try:
        if event_log is not None:
            elog = (
                event_log
                if isinstance(event_log, EventLogObserver)
                else EventLogObserver(event_log)
            )
            # Opened eagerly — before any event publishes or point runs —
            # so a fingerprint mismatch refuses the whole campaign up
            # front, exactly like a mismatched checkpoint.
            elog.open(
                name=spec.name,
                fingerprint=fingerprint,
                total_points=len(points),
                strategy=strategy.name,
                jobs=runner.jobs,
            )

        bus = EventBus()
        aggregator = _CampaignAggregator(preloaded)
        bus.subscribe(aggregator, critical=True)
        if store is not None:
            # The checkpoint appends on PointCompleted/PointFailed; it is
            # critical — losing appends silently would corrupt resume
            # semantics — and subscribed ahead of the event log and every
            # user observer, so a completion they see is already durable.
            bus.subscribe(store, critical=True)
        if elog is not None:
            # Critical too: a silently lossy event log would make replay lie.
            bus.subscribe(elog, critical=True)
        for observer in observers:
            bus.subscribe(observer)

        bus.publish(
            CampaignStarted(
                name=spec.name,
                fingerprint=fingerprint,
                total_points=len(points),
                jobs=runner.jobs,
                strategy=strategy.name,
                checkpoint_path=store.path if store is not None else None,
            )
        )

        announced: set = set()

        def run_points(stage_points: Sequence[SweepPoint]) -> List[PointRecord]:
            todo, keys, queued = [], [], set()
            for point in stage_points:
                key = point.key()
                keys.append(key)
                if key in aggregator.done:
                    if key not in announced:  # one PointResumed per unique key
                        announced.add(key)
                        bus.publish(PointResumed(record=aggregator.done[key]))
                elif key not in queued:  # identical points evaluate once
                    queued.add(key)
                    todo.append(point)
            returned = runner.run(todo)
            # Built-in runners deliver records through PointCompleted events
            # via their event_sink; a fully custom runner (PR-2-era
            # contract: just return the records) may not publish at all, so
            # fold anything the events did not deliver into the stream here
            # — checkpointing and observers then work identically for both
            # contracts.
            for record in returned or []:
                if record.key not in aggregator.done:
                    if record.failed:
                        bus.publish(PointFailed(record=record))
                    else:
                        bus.publish(PointCompleted(record=record))
            return [aggregator.done[key] for key in keys]

        previous_sink = runner.event_sink
        previous_policy = runner.retry_policy
        runner.event_sink = bus.publish
        if retry_policy is not None:
            runner.retry_policy = retry_policy
        try:
            records = strategy.execute(points, run_points)
            wall_seconds = time.perf_counter() - t0
            failed = len({r.key for r in records if r.failed})
            # Published while the store is still open: the checkpointer
            # reacts by writing the durable finished marker.  A crashed
            # campaign never gets one, so --follow keeps (correctly)
            # reporting it incomplete.
            bus.publish(
                CampaignFinished(
                    name=spec.name,
                    total_points=len(points),
                    evaluated=len(aggregator.fresh),
                    resumed=len(aggregator.resumed_keys),
                    wall_seconds=wall_seconds,
                    failed=failed,
                )
            )
        finally:
            runner.event_sink = previous_sink
            runner.retry_policy = previous_policy
    finally:
        if store is not None:
            store.close()
        if elog is not None:
            elog.close()
    return CampaignResult(
        spec=spec,
        records=records,
        evaluated=len(aggregator.fresh),
        resumed=len(aggregator.resumed_keys),
        failed=failed,
        jobs=runner.jobs,
        strategy=strategy.name,
        wall_seconds=wall_seconds,
        checkpoint_path=store.path if store is not None else None,
        event_log_path=elog.path if elog is not None else None,
        worker_cache_info=_aggregate_worker_caches(aggregator.fresh),
        observer_errors=list(bus.errors),
    )

