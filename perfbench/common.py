"""Shared pieces of the benchmark: statistics, set-up timing, host stamp.

Everything the benchmark writes goes under ``.perfbench/`` in the directory
it runs from (the root of a checkout), so a run reads and writes nothing
outside the checkout.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

T = TypeVar("T")


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness problems found (each one also counts as a failure).
    mismatches: List[str] = field(default_factory=list)
    #: Lines printed above the result, for a human reading the run.
    notes: List[str] = field(default_factory=list)
    #: Figures that are pure functions of the seed and the code: another run
    #: of the same seed on the same code must reproduce them exactly.
    counters: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (same rule as ``repro.serve.metrics``)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


# --------------------------------------------------------------------------- #
# host-normalised time
# --------------------------------------------------------------------------- #
#: Seconds one :func:`calibration_loop` takes on an uncontended 2-core x86_64
#: VM with CPython 3.11.  Host-normalised times are scaled to that speed.
NOMINAL_CALIBRATION_S = 0.070


def calibration_loop() -> int:
    """Fixed pure-Python work: dict and attribute traffic, calls, small tuples.

    It shares no code with the program; it only measures how fast this host
    runs interpreter work right now.
    """
    class Cell:
        __slots__ = ("value", "step")

        def __init__(self, value: int) -> None:
            self.value = value
            self.step = 1

        def bump(self, amount: int) -> int:
            self.value += amount ^ self.step
            return self.value

    table: Dict[int, Tuple[int, int]] = {}
    cell = Cell(0)
    for i in range(500_000):
        table[i & 1023] = (i, cell.bump(i & 7))
    return len(table)


class HostClock:
    """Times units of work and scales them to the nominal host speed.

    On a shared host the speed of a core can swing by a factor of two within
    a minute, far more than any change worth measuring.  Each unit of work is
    bracketed by two runs of :func:`calibration_loop`; the unit's wall time is
    multiplied by ``NOMINAL_CALIBRATION_S / mean(calibration)``, which cancels
    a slowdown the calibration saw too.
    """

    def __init__(self) -> None:
        self.factors: List[float] = []

    @staticmethod
    def calibrate() -> float:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start

    def around(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run ``fn`` between two calibrations: ``(result, speed factor)``.

        Multiply a time measured inside ``fn`` by the factor (divide a rate)
        to express it at the nominal host speed.
        """
        before = self.calibrate()
        value = fn()
        factor = NOMINAL_CALIBRATION_S / ((before + self.calibrate()) / 2)
        self.factors.append(factor)
        return value, factor

    def describe(self) -> str:
        return (f"host speed factor (nominal / measured) median {median(self.factors):.3f}, "
                f"range {min(self.factors):.3f}-{max(self.factors):.3f}")


def fresh_import_seconds(modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules`` and exiting."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def normalised_median(clock: HostClock, fn: Callable[[], float], repeats: int) -> float:
    """Median over ``repeats`` of the seconds ``fn`` reports, host-normalised."""
    values = []
    for _ in range(repeats):
        seconds, factor = clock.around(fn)
        values.append(seconds * factor)
    return median(values)


def peak_rss_mib_self() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """A digest of every file under ``src/`` (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp() -> Dict[str, object]:
    """nproc, python and the code version, via ``repro.bench.host``.

    A checkout need not be a git repository, so the code version is a
    digest of the sources rather than a commit id.
    """
    from repro.bench.host import current_host

    host = current_host()
    return {"nproc": host.cpus, "python": host.python, "host": host.key,
            "source_sha256": source_digest()}


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under ``.perfbench/``."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_until(seconds: float, minimum: int, step) -> List[object]:
    """Call ``step(i)`` until ``seconds`` have passed and ``minimum`` ran."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(step(len(out)))
    return out
