"""repro.bench: the performance-regression gating subsystem.

One envelope (:class:`BenchResult`) read from perfbench results or built by
the same-process ratio claims (:mod:`repro.bench.claims`, imported on
demand so that importing this package stays light), one host fingerprint
(:class:`HostFingerprint`), one table of reference bands
(:data:`DEFAULT_REFERENCES`), and the ``python -m repro.bench`` CLI that
runs the claims and gates results — see :mod:`repro.bench.__main__`.
"""

from repro.bench.gate import (
    FAIL_STATUSES,
    GateReport,
    MetricCheck,
    check_result,
    gate_results,
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

__all__ = [
    "BENCH_FORMAT",
    "BenchFormatError",
    "BenchResult",
    "CONTENDED_EXEMPT",
    "DEFAULT_REFERENCES",
    "FAIL_STATUSES",
    "GateReport",
    "HostFingerprint",
    "MetricCheck",
    "WILDCARD",
    "band_bounds",
    "check_result",
    "contention",
    "cpu_count",
    "current_host",
    "format_band",
    "gate_results",
    "in_band",
    "load_references",
    "load_result",
    "resolve_references",
]
