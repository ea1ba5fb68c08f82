"""Deterministic fault injection: make any backend fail, hang or crash on cue.

The harness wraps registered evaluation backends
(:class:`~repro.pipeline.backends.Backend`) in a :class:`FaultyBackend` that
consults a declarative :class:`FaultPlan` before every evaluation.  Faults
are matched against the *current point context*
(:mod:`repro.faults.context`): by exact point key, by ``fnmatch`` glob over
the display label, by attempt number (``attempts_below=2`` fires on the
first attempt only — the point succeeds on retry), or by a **seeded
probability** whose coin is a content hash of ``(seed, key, attempt)`` — so
a "30% flaky" campaign fails the *same* points on the *same* attempts every
run.  Three actions:

* ``fail``  — raise :class:`InjectedFault` (retryable);
* ``hang``  — sleep ``seconds`` before evaluating normally (exercises the
  pool runner's per-point deadline watchdog);
* ``crash`` — kill the evaluating process with ``os._exit`` when it is a
  pool worker (a real ``BrokenProcessPool`` in the parent); in the main
  process it degrades to raising :class:`SimulatedCrash` (retryable), so
  serial campaigns exercise the same schedule without dying.

Because wrapping replaces the ``analytic`` registry slot with a non-
:class:`AnalyticBackend` type, the runners' vectorized fast lane disables
itself automatically (its guard requires the exact class) — and the lane's
bitwise-equality contract means canonical campaign output is unchanged.

Install with the :func:`inject_faults` context manager (restores the
registry on exit) for tests, or ``python -m repro.sweep chaos`` on the
command line.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.faults.context import current_point
from repro.faults.policy import RetryableError
from repro.pipeline.backends import (
    _BACKENDS,
    Backend,
    EvaluationRequest,
    EvaluationResult,
    available_backends,
    get_backend,
    register_backend,
)
from repro.pipeline.compile import CompiledDesign

#: The three things an injected fault can do to an evaluation.
FAULT_ACTIONS = ("fail", "hang", "crash")

#: Exit status of a worker killed by an injected crash (Fortran's "open
#: failed" — distinctive in CI logs, not a signal number).
CRASH_EXIT_CODE = 23


class InjectedFault(RetryableError):
    """An evaluation failed because the fault plan said so (retryable)."""


class SimulatedCrash(RetryableError):
    """A ``crash`` fault in the main process (serial parity for pool kills)."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what to do, to which points, on which attempts.

    Match fields combine with AND; unset fields match everything.  A spec
    with neither ``key`` nor ``label`` nor ``probability`` applies to every
    evaluation (useful with ``attempts_below`` for "every point fails
    once").
    """

    action: str  #: one of :data:`FAULT_ACTIONS`
    key: Optional[str] = None  #: exact point key
    label: Optional[str] = None  #: fnmatch glob over display labels
    #: Fire only while ``attempt < attempts_below`` (None: every attempt —
    #: a poison fault that no retry survives).
    attempts_below: Optional[int] = None
    #: Seeded per-(key, attempt) coin; None fires unconditionally.
    probability: Optional[float] = None
    seconds: float = 1.0  #: hang duration (``hang`` only)
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    def matches(self, key: str, label: str, attempt: int, coin: float) -> bool:
        """Whether this fault fires for the given evaluation.

        ``coin`` is the caller's deterministic uniform draw for
        ``(key, attempt)`` — supplied by :class:`FaultPlan` so every spec of
        one plan shares a single, seeded coin per evaluation.
        """
        if self.key is not None and key != self.key:
            return False
        if self.label is not None and not fnmatch.fnmatchcase(label or "", self.label):
            return False
        if self.attempts_below is not None and attempt >= self.attempts_below:
            return False
        if self.probability is not None and coin >= self.probability:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An ordered fault schedule: first matching spec wins.

    Frozen and picklable — forked pool workers inherit the installed plan
    (module registry included), so injection behaves identically across the
    process boundary.  ``main_pid`` is stamped at construction: it is how a
    ``crash`` fault distinguishes a real pool worker (kill the process)
    from the orchestrating process (raise :class:`SimulatedCrash`).
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    main_pid: int = field(default_factory=os.getpid)

    def coin(self, key: str, attempt: int) -> float:
        """The deterministic uniform draw for one (key, attempt) pair."""
        digest = hashlib.sha1(
            f"{self.seed}|{key}|{attempt}".encode("utf-8")
        ).hexdigest()
        return random.Random(int(digest, 16)).random()

    def action_for(
        self, key: Optional[str], label: Optional[str], attempt: int
    ) -> Optional[FaultSpec]:
        """The first fault that fires for this evaluation (None outside one)."""
        if key is None and label is None:
            return None  # no point context: direct backend use, never faulted
        coin = self.coin(key or label or "", attempt)
        for spec in self.faults:
            if spec.matches(key or "", label or "", attempt, coin):
                return spec
        return None

    @classmethod
    def from_dicts(
        cls, faults: Iterable[Dict[str, object]], seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from plain dicts (JSON/CLI friendly)."""
        return cls(faults=tuple(FaultSpec(**spec) for spec in faults), seed=seed)


class FaultyBackend(Backend):
    """A registered backend wrapped with a fault schedule.

    Evaluations whose point context matches the plan are failed, delayed or
    crashed *before* the inner backend runs (``hang`` delays, then runs).
    Batch evaluation degrades to the per-point loop so every point gets its
    own fault decision — and so no vectorized path can skip the schedule.
    """

    def __init__(self, inner: Backend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = inner.name

    def _maybe_fault(self) -> None:
        key, label, attempt = current_point()
        spec = self.plan.action_for(key, label, attempt)
        if spec is None:
            return
        if spec.action == "hang":
            time.sleep(spec.seconds)
            return
        if spec.action == "crash":
            if os.getpid() != self.plan.main_pid:
                os._exit(CRASH_EXIT_CODE)  # a genuine worker death, no cleanup
            raise SimulatedCrash(
                f"{spec.message} (simulated in-process crash, point {label!r}, "
                f"attempt {attempt})"
            )
        raise InjectedFault(f"{spec.message} (point {label!r}, attempt {attempt})")

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        self._maybe_fault()
        return self.inner.evaluate(design, request)

    def evaluate_many(
        self,
        items: Sequence[Tuple[CompiledDesign, EvaluationRequest]],
        with_artifacts: bool = True,
    ) -> List[EvaluationResult]:
        # Per-point loop on purpose: one fault decision per evaluation.
        return Backend.evaluate_many(self, items, with_artifacts=with_artifacts)


# --------------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------------- #
def install_fault_plan(
    plan: FaultPlan, backends: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Wrap registered backends with ``plan``; returns the saved factories.

    Wraps every registered backend by default (faults key on point context,
    so unmatched backends pass straight through).  The returned mapping
    feeds :func:`restore_backends`; prefer the :func:`inject_faults`
    context manager, which pairs the two.
    """
    names: List[str] = list(backends) if backends is not None else available_backends()
    saved = {name: _BACKENDS[name] for name in names}
    for name in names:
        inner = get_backend(name)
        register_backend(
            # repro: allow[picklability] fork-inherited registry override — installed per-process, never pickled
            name, lambda inner=inner, plan=plan: FaultyBackend(inner, plan)
        )
    return saved


def restore_backends(saved: Dict[str, object]) -> None:
    """Re-register the factories saved by :func:`install_fault_plan`."""
    for name, factory in saved.items():
        register_backend(name, factory)


@contextmanager
def inject_faults(
    plan: FaultPlan, backends: Optional[Sequence[str]] = None
) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block.

    Pool workers forked inside the block inherit the wrapped registry, so a
    pooled campaign under injection needs nothing extra.  The registry is
    restored on exit even when the block raises.
    """
    saved = install_fault_plan(plan, backends=backends)
    try:
        yield plan
    finally:
        restore_backends(saved)
