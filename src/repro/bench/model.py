"""The benchmark envelope, and the reader that lifts perfbench output into it.

Every gated result is one **envelope**:

.. code-block:: json

    {"bench_format": 1, "suite": "analytic",
     "host": {"node": "ci", "machine": "x86_64", "cpus": 2, ...},
     "smoke": false, "contended": false, "correct": true, "failed": 0,
     "commit": {"id": "...", "branch": "main", "dirty": false},
     "datetime": "...",
     "metrics": {"scalar_vs_vectorized.warm_speedup": 21.3, ...}}

Two producers feed it.  ``python -m repro.bench run`` (:mod:`repro.bench.claims`)
builds envelopes directly, and :func:`load_result` reads the text a
``python3 perfbench/run.py`` run prints: a ``host: {...}`` line, a
``workload <name>, seed ...`` line, notes, and as its last line the result
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

#: Version tag of the benchmark envelope format.
BENCH_FORMAT = 1

_HOST_LINE = "host: "
_WORKLOAD_LINE = "workload "


class BenchFormatError(ValueError):
    """A payload that is neither an envelope nor a perfbench result."""


def _numeric(metrics: Dict[str, Any]) -> Dict[str, float]:
    return {
        str(name): value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


@dataclass
class BenchResult:
    """One benchmark suite's outcome, in the unified envelope shape."""

    suite: str
    host: HostFingerprint
    metrics: Dict[str, float] = field(default_factory=dict)
    smoke: bool = False
    contended: Optional[bool] = None
    commit: Optional[Dict[str, Any]] = None
    datetime: Optional[str] = None
    correct: bool = True
    failed: int = 0  #: operations that failed or produced a wrong output

    # ------------------------------------------------------------------ #
    def qualified_metrics(self) -> Dict[str, float]:
        """Metrics keyed ``<suite>.<metric>`` (what references use)."""
        return {f"{self.suite}.{name}": value for name, value in self.metrics.items()}

    def to_payload(self) -> Dict[str, Any]:
        """The native schema-versioned envelope."""
        return {
            "bench_format": BENCH_FORMAT,
            "suite": self.suite,
            "host": self.host.to_json_dict(),
            "smoke": self.smoke,
            "contended": self.contended,
            "correct": self.correct,
            "failed": self.failed,
            "commit": self.commit,
            "datetime": self.datetime,
            "metrics": dict(self.metrics),
        }

    # ------------------------------------------------------------------ #
    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BenchResult":
        """Read a native envelope (``correct``/``failed`` default to a pass)."""
        version = payload.get("bench_format")
        if version is None:
            raise BenchFormatError("payload is not a bench envelope (no 'bench_format')")
        if version > BENCH_FORMAT:
            raise BenchFormatError(
                f"envelope format {version} is newer than this reader "
                f"(format {BENCH_FORMAT})"
            )
        return cls(
            suite=str(payload.get("suite", "")),
            host=HostFingerprint.from_json_dict(payload.get("host") or {}),
            metrics=_numeric(payload.get("metrics") or {}),
            smoke=bool(payload.get("smoke", False)),
            contended=payload.get("contended"),
            commit=payload.get("commit"),
            datetime=payload.get("datetime"),
            correct=payload.get("correct", True) is True,
            failed=int(payload.get("failed") or 0),
        )

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
                system="",
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
    """Load an envelope (JSON) or a perfbench result (its printed output)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except ValueError:
        return BenchResult.from_perfbench(text)
    if not isinstance(payload, dict):
        raise BenchFormatError(f"{path!r} holds JSON that is not an object")
    result = BenchResult.from_payload(payload)
    if not result.suite:
        raise BenchFormatError(f"envelope {path!r} names no suite")
    return result
