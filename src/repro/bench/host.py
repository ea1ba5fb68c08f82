"""The shared host fingerprint: who ran a benchmark, and under what load.

This module is the single home for probing the machine; ``perfbench/``
stamps its results through it too:

* :func:`cpu_count` / :func:`contention` — the affinity-aware core count
  and the shared "can this host even express parallel speedup" probe;
* :class:`HostFingerprint` — the identity stamped into every benchmark
  envelope and perf-history record, whose :attr:`~HostFingerprint.key`
  (``node:machine``, e.g. ``vm:x86_64``) selects the per-host reference
  bands in :mod:`repro.bench.references`.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Any, Dict, Optional


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
    """The identity of the machine a benchmark ran on.

    ``key`` — ``"node:machine"`` — is what the reference tables are keyed
    by, mirroring ReFrame's ``system:partition`` convention.
    """

    node: str
    system: str
    machine: str
    python: str
    cpus: Optional[int]

    @property
    def key(self) -> str:
        """The reference-selection key, e.g. ``"vm:x86_64"``."""
        return f"{self.node}:{self.machine}"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "system": self.system,
            "machine": self.machine,
            "python": self.python,
            "cpus": self.cpus,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "HostFingerprint":
        return cls(
            node=str(payload.get("node", "")),
            system=str(payload.get("system", "")),
            machine=str(payload.get("machine", "")),
            python=str(payload.get("python", "")),
            cpus=payload.get("cpus"),
        )


def current_host() -> HostFingerprint:
    """Fingerprint of the machine this process is running on."""
    return HostFingerprint(
        node=platform.node(),
        system=platform.system(),
        machine=platform.machine(),
        python=platform.python_version(),
        cpus=cpu_count(),
    )
