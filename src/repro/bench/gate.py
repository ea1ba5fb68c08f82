"""Regression gating: benchmark results against the reference bands.

:func:`check_result` compares one :class:`~repro.bench.model.BenchResult`
with the bands of its suite and produces a :class:`GateReport`;
:func:`gate_results` folds many reports into one process exit code — the
same pattern as ``CampaignResult.diff`` / ``python -m repro.sweep diff`` (0
when clean, 1 on any out-of-band metric).

An **incorrect** result (its producer reported a wrong output, or any
failed operation) always fails, as a ``<suite>.correct`` check with status
``incorrect``: a number measured on wrong output gates nothing.

Exemptions from the bands are explicit, never silent:

* **smoke** results never gate on their bands — shrunk workloads check the
  plumbing and parity, not the performance of a shared runner; every
  banded metric is reported with status ``smoke``;
* metrics in :data:`~repro.bench.references.CONTENDED_EXEMPT` are skipped
  on hosts whose result says ``contended`` (pool-vs-serial wall clock on
  a single core is a scheduling artefact, not a regression);
* a referenced metric absent from the result is reported ``missing`` and
  only fails under ``strict`` (a benchmark being *dropped* should not slip
  through a gate that was tuned to watch it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bench.model import BenchResult
from repro.bench.references import (
    CONTENDED_EXEMPT,
    DEFAULT_REFERENCES,
    MetricBand,
    ReferenceTable,
    band_bounds,
    format_band,
    in_band,
)
from repro.utils.tables import format_table

#: Check statuses that count as failures (plus ``missing`` under strict).
FAIL_STATUSES = ("low", "high", "incorrect")


@dataclass(frozen=True)
class MetricCheck:
    """One metric against one band: the unit of gate output."""

    metric: str
    #: ok | low | high | incorrect | missing | smoke | contended | unreferenced
    status: str
    value: Optional[float] = None
    band: Optional[MetricBand] = None

    @property
    def failed(self) -> bool:
        return self.status in FAIL_STATUSES

    def format_row(self) -> List:
        band = format_band(self.band) if self.band is not None else "-"
        value = "-" if self.value is None else self.value
        return [self.metric, value, band, self.status]


@dataclass
class GateReport:
    """Every metric check for one benchmark result."""

    suite: str
    host_key: str
    smoke: bool
    contended: Optional[bool]
    checks: List[MetricCheck] = field(default_factory=list)

    def failures(self, strict: bool = False) -> List[MetricCheck]:
        """The checks that gate this report (out-of-band, plus missing when strict)."""
        bad = [c for c in self.checks if c.failed]
        if strict:
            bad += [c for c in self.checks if c.status == "missing"]
        return bad

    def passed(self, strict: bool = False) -> bool:
        return not self.failures(strict)

    def counts(self) -> dict:
        tally: dict = {}
        for check in self.checks:
            tally[check.status] = tally.get(check.status, 0) + 1
        return tally

    def format(self) -> str:
        """Aligned per-metric table plus a one-line verdict."""
        flags = []
        if self.smoke:
            flags.append("smoke")
        if self.contended:
            flags.append("contended")
        title = (
            f"{self.suite} @ {self.host_key}"
            f" ({', '.join(flags) if flags else 'non-smoke'})"
        )
        rows = [c.format_row() for c in self.checks]
        if not rows:
            return f"{title}\n  (no metrics)"
        table = format_table(["metric", "value", "band", "status"], rows, title=title)
        tally = ", ".join(f"{n} {status}" for status, n in sorted(self.counts().items()))
        return f"{table}\n  -> {tally}"


def check_result(
    result: BenchResult,
    references: ReferenceTable = DEFAULT_REFERENCES,
) -> GateReport:
    """Check one result against the bands of its suite."""
    metrics = result.qualified_metrics()
    prefix = f"{result.suite}."
    suite_refs = {
        name: band for name, band in references.items() if name.startswith(prefix)
    }

    checks: List[MetricCheck] = []
    if not result.correct or result.failed:
        checks.append(
            MetricCheck(
                metric=f"{result.suite}.correct",
                status="incorrect",
                value=float(result.failed),
            )
        )
    for name in sorted(set(suite_refs) | set(metrics)):
        band = suite_refs.get(name)
        value = metrics.get(name)
        if band is None:
            # Recorded but not gated: raw seconds, counts nobody banded yet.
            checks.append(MetricCheck(metric=name, status="unreferenced", value=value))
            continue
        if result.smoke:
            checks.append(
                MetricCheck(metric=name, status="smoke", value=value, band=band)
            )
            continue
        if result.contended and name in CONTENDED_EXEMPT:
            checks.append(
                MetricCheck(metric=name, status="contended", value=value, band=band)
            )
            continue
        if value is None:
            checks.append(MetricCheck(metric=name, status="missing", band=band))
            continue
        if in_band(value, band):
            status = "ok"
        else:
            lower, _upper = band_bounds(band)
            status = "low" if lower is not None and value < lower else "high"
        checks.append(MetricCheck(metric=name, status=status, value=value, band=band))
    return GateReport(
        suite=result.suite,
        host_key=result.host.key,
        smoke=result.smoke,
        contended=result.contended,
        checks=checks,
    )


def gate_results(
    results: Sequence[BenchResult],
    references: ReferenceTable = DEFAULT_REFERENCES,
    strict: bool = False,
) -> Tuple[List[GateReport], int]:
    """Check many results; returns ``(reports, exit_code)``.

    Exit code 0 when every report passes, 1 otherwise — the
    ``python -m repro.sweep diff`` convention.
    """
    reports = [check_result(result, references) for result in results]
    failed = [r for r in reports if not r.passed(strict)]
    return reports, (1 if failed else 0)
