"""The shared host fingerprint: who ran a benchmark, and under what load.

This module is the single home for probing the machine; ``perfbench/``
stamps its results through it too:

* :func:`cpu_count` / :func:`contention` — the affinity-aware core count
  and the shared "can this host even express parallel speedup" probe;
* :class:`HostFingerprint` — the identity stamped into every benchmark
  result, whose :attr:`~HostFingerprint.key` (``node:machine``, e.g.
  ``vm:x86_64``) names the host in perfbench output and gate reports.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Optional


def cpu_count() -> Optional[int]:
    """Cores actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def contention(jobs: int = 1) -> bool:
    """Whether wall-clock comparisons on this host are scheduling artefacts.

    A single-core container cannot speed anything up with more workers, and
    a pool with more workers than cores only adds context switching — on
    such hosts speedup numbers are recorded for the trajectory but must not
    gate.  ``jobs`` is the parallelism the benchmark asked for (1 for
    purely serial comparisons, which still need two cores to time fairly).
    """
    cpus = cpu_count()
    return cpus is None or cpus < 2 or cpus < jobs


@dataclass(frozen=True)
class HostFingerprint:
    """The identity of the machine a benchmark ran on."""

    node: str
    machine: str
    python: str
    cpus: Optional[int]

    @property
    def key(self) -> str:
        """The host's name in reports, e.g. ``"vm:x86_64"``."""
        return f"{self.node}:{self.machine}"


def current_host() -> HostFingerprint:
    """Fingerprint of the machine this process is running on."""
    return HostFingerprint(
        node=platform.node(),
        machine=platform.machine(),
        python=platform.python_version(),
        cpus=cpu_count(),
    )
