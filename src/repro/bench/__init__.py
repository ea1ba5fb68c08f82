"""repro.bench: the performance-regression gating subsystem.

One envelope (:class:`BenchResult`) read from perfbench results or built by
the same-process ratio claims (:mod:`repro.bench.claims`, imported on
demand so that importing this package stays light), one host fingerprint
(:class:`HostFingerprint`), one table of reference bands
(:data:`DEFAULT_REFERENCES`), an append-only perf history
(:class:`PerfHistory`), and the ``python -m repro.bench`` CLI that runs the
claims and gates results — see :mod:`repro.bench.__main__`.
"""

from repro.bench.gate import (
    FAIL_STATUSES,
    GateReport,
    MetricCheck,
    check_result,
    gate_results,
)
from repro.bench.history import (
    HISTORY_FORMAT,
    HistoryRecord,
    PerfHistory,
    PerfHistoryWarning,
    git_commit_info,
)
from repro.bench.host import (
    HostFingerprint,
    contention,
    cpu_count,
    current_host,
)
from repro.bench.model import (
    BENCH_FORMAT,
    BenchFormatError,
    BenchResult,
    load_result,
)
from repro.bench.references import (
    CONTENDED_EXEMPT,
    DEFAULT_REFERENCES,
    WILDCARD,
    band_bounds,
    format_band,
    in_band,
    load_references,
    resolve_references,
)
from repro.bench.trend import (
    WorkerThroughput,
    format_trend_report,
    format_worker_report,
    mine_worker_throughput,
)

__all__ = [
    "BENCH_FORMAT",
    "BenchFormatError",
    "BenchResult",
    "CONTENDED_EXEMPT",
    "DEFAULT_REFERENCES",
    "FAIL_STATUSES",
    "GateReport",
    "HISTORY_FORMAT",
    "HistoryRecord",
    "HostFingerprint",
    "MetricCheck",
    "PerfHistory",
    "PerfHistoryWarning",
    "WILDCARD",
    "WorkerThroughput",
    "band_bounds",
    "check_result",
    "contention",
    "cpu_count",
    "current_host",
    "format_band",
    "format_trend_report",
    "format_worker_report",
    "gate_results",
    "git_commit_info",
    "in_band",
    "load_references",
    "load_result",
    "mine_worker_throughput",
    "resolve_references",
]
