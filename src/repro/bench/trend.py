"""Trend reports: metric trajectories and per-worker campaign throughput.

Two data sources feed the ``python -m repro.bench trend`` subcommand:

* the **perf history** (:mod:`repro.bench.history`): every recorded value
  of every metric, oldest first, rendered as one table per metric with the
  commit, host and delta-vs-previous columns a reviewer needs to spot a
  slow drift that no single gate run would catch;
* campaign **event logs** (:mod:`repro.sweep.eventlog`): replaying the
  persisted stream through :class:`CampaignReplay` recovers each worker's
  own begin/finish stamps (``PointRecord.meta``), from which the per-worker
  points/sec of a sweep is mined — the ground truth behind any
  campaign-level speedup number in the history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.history import HistoryRecord
from repro.sweep.eventlog import CampaignReplay
from repro.sweep.events import PointCompleted, PointStarted
from repro.sweep.follow import WorkerThroughput
from repro.utils.tables import format_table


# --------------------------------------------------------------------------- #
# metric trajectories from the history store
# --------------------------------------------------------------------------- #
def metric_names(
    records: Sequence[HistoryRecord], contains: Optional[str] = None
) -> List[str]:
    """Every qualified metric name in the records, sorted and filtered."""
    names = {
        f"{record.suite}.{name}"
        for record in records
        for name in record.metrics
    }
    if contains:
        names = {name for name in names if contains in name}
    return sorted(names)


def metric_series(records: Sequence[HistoryRecord], metric: str) -> List[tuple]:
    """``(record, value)`` pairs for one qualified metric, oldest first."""
    series = []
    for record in records:
        prefix = f"{record.suite}."
        if not metric.startswith(prefix):
            continue
        value = record.metrics.get(metric[len(prefix):])
        if value is not None:
            series.append((record, value))
    return series


def format_metric_trend(records: Sequence[HistoryRecord], metric: str) -> str:
    """One per-metric history table (commit, host, flags, value, delta)."""
    series = metric_series(records, metric)
    if not series:
        return f"{metric}: no recorded values"
    rows = []
    previous: Optional[float] = None
    for record, value in series:
        commit = (record.commit_id or "-")[:10]
        flags = []
        if record.smoke:
            flags.append("smoke")
        if record.contended:
            flags.append("contended")
        if previous in (None, 0):
            delta = "-"
        else:
            delta = f"{100.0 * (value - previous) / abs(previous):+.1f}%"
        rows.append(
            [
                record.datetime or "-",
                commit,
                record.host_key,
                ",".join(flags) or "-",
                value,
                delta,
            ]
        )
        previous = value
    return format_table(
        ["recorded", "commit", "host", "flags", "value", "delta"],
        rows,
        title=metric,
    )


def format_trend_report(
    records: Sequence[HistoryRecord],
    contains: Optional[str] = None,
    max_metrics: Optional[int] = None,
) -> str:
    """Tables for every (filtered) metric, plus a coverage summary line."""
    if not records:
        return "perf history is empty"
    names = metric_names(records, contains=contains)
    shown = names if max_metrics is None else names[:max_metrics]
    parts = [format_metric_trend(records, name) for name in shown]
    summary = (
        f"{len(records)} record(s), {len(names)} metric(s)"
        + (f", showing {len(shown)}" if len(shown) != len(names) else "")
    )
    return "\n\n".join(parts + [summary])


# --------------------------------------------------------------------------- #
# per-worker throughput mined from campaign event logs
# --------------------------------------------------------------------------- #
def mine_worker_throughput(path: str) -> Dict[int, WorkerThroughput]:
    """Per-worker throughput from one event log's worker-stamped records.

    Completions carry the evaluating process's own begin/finish timestamps
    in ``PointRecord.meta`` (see :mod:`repro.sweep.runners`); starts fill
    in workers whose completions never landed (a killed campaign).
    """
    workers: Dict[int, WorkerThroughput] = {}
    for event in CampaignReplay(path).events():
        if isinstance(event, PointCompleted):
            WorkerThroughput.fold_completion(workers, event.record.meta or {})
        elif isinstance(event, PointStarted) and event.worker is not None:
            stats = workers.setdefault(
                event.worker, WorkerThroughput(worker=event.worker)
            )
            stats.fold_start(event.ts)
    return workers


def format_worker_report(path: str) -> str:
    """The per-worker table for one event log."""
    workers = mine_worker_throughput(path)
    if not workers:
        return f"{path}: no worker-stamped events"
    rows = []
    total_points = 0
    for worker in sorted(workers):
        stats = workers[worker]
        total_points += stats.points
        rate = stats.points_per_second
        span = stats.span_seconds
        rows.append(
            [
                worker,
                stats.points,
                "-" if span is None else f"{span:.2f}s",
                "-" if rate is None else f"{rate:.2f}/s",
            ]
        )
    table = format_table(
        ["worker", "points", "span", "rate"], rows, title=path
    )
    return f"{table}\n  -> {total_points} point(s) across {len(workers)} worker(s)"
