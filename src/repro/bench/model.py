"""The benchmark result, and the reader that lifts perfbench output into it.

Two producers feed :class:`BenchResult`.  ``python -m repro.bench run``
(:mod:`repro.bench.claims`) builds results in process, and
:func:`load_result` reads the text a ``python3 perfbench/run.py`` run
prints: a ``host: {...}`` line, a ``workload <name>, seed ...`` line, notes,
and as its last line the result
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The workload name becomes the suite, so a traced ``campaign_cold`` metric
``compile.calls`` is gated as ``campaign_cold.compile.calls``.

A result is **correct** only when its producer said so and no operation
failed; the gate fails an incorrect result whatever its metrics say.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.bench.host import HostFingerprint

_HOST_LINE = "host: "
_WORKLOAD_LINE = "workload "


class BenchFormatError(ValueError):
    """Text that is not a perfbench result."""


def _numeric(metrics: Dict[str, Any]) -> Dict[str, float]:
    return {
        str(name): value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


@dataclass
class BenchResult:
    """One benchmark suite's outcome: its host, flags and metrics."""

    suite: str
    host: HostFingerprint
    metrics: Dict[str, float] = field(default_factory=dict)
    smoke: bool = False
    contended: Optional[bool] = None
    correct: bool = True
    failed: int = 0  #: operations that failed or produced a wrong output

    # ------------------------------------------------------------------ #
    def qualified_metrics(self) -> Dict[str, float]:
        """Metrics keyed ``<suite>.<metric>`` (what references use)."""
        return {f"{self.suite}.{name}": value for name, value in self.metrics.items()}

    @classmethod
    def from_perfbench(cls, text: str) -> "BenchResult":
        """Read what ``python3 perfbench/run.py`` printed."""
        lines = [line for line in text.splitlines() if line.strip()]
        stamp: Optional[Dict[str, Any]] = None
        suite = ""
        for line in lines:
            if line.startswith(_HOST_LINE):
                stamp = json.loads(line[len(_HOST_LINE):])
            elif line.startswith(_WORKLOAD_LINE):
                suite = line[len(_WORKLOAD_LINE):].split(",", 1)[0].strip()
        try:
            final = json.loads(lines[-1]) if lines else None
        except ValueError:
            final = None
        if (
            not isinstance(stamp, dict)
            or not suite
            or not isinstance(final, dict)
            or not isinstance(final.get("metrics"), dict)
        ):
            raise BenchFormatError(
                "not a perfbench result: expected a 'host: {...}' line, a "
                "'workload <name>, ...' line and a final JSON result line"
            )
        node, _, machine = str(stamp.get("host", "")).rpartition(":")
        return cls(
            suite=suite,
            host=HostFingerprint(
                node=node,
                machine=machine,
                python=str(stamp.get("python", "")),
                cpus=stamp.get("nproc"),
            ),
            metrics=_numeric(
                {
                    name: metric.get("value") if isinstance(metric, dict) else None
                    for name, metric in final["metrics"].items()
                }
            ),
            correct=final.get("correct") is True,
            failed=int(final.get("failed") or 0),
        )


def load_result(path: str) -> BenchResult:
    """Load a perfbench result from the file its output was written to."""
    with open(path, "r", encoding="utf-8") as fh:
        return BenchResult.from_perfbench(fh.read())
