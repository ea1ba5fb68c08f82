"""Exploration of the Smache design space.

Two axes are explored:

* the paper's hybridisation knob — how many of the stream buffer's window
  slots are registers (from the minimal Case-H point, where only the stencil
  taps are registers, to the Case-R extreme, where the whole window is), each
  candidate checked against a device's remaining resources;
* whole problems — :meth:`repro.api.Workbench.explore` prices a set of candidate
  problems with the pipeline's ``analytic`` backend (closed-form cycles and
  traffic), keeps the cycles/memory Pareto front, and re-runs only the front
  through the cycle-accurate ``simulate`` backend.  Broad sweeps therefore
  cost microseconds per point instead of seconds, without trusting the fast
  path blindly.

Every candidate of the resource sweep is a problem, ``replace(problem,
mode=..., register_elements=r)``, and its :class:`DesignPoint` holds what
:func:`repro.pipeline.compile` makes of it: plan, partition, memory cost and
synthesis, with the problem's own kernel.  A partition sweep compiles its
candidates in one :func:`~repro.pipeline.compile.compile_batch` call seeded
with the problem's design, so the range partition and the planner run once
per sweep, and repeated sweeps hit the shared plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.partition import StreamBufferMode, hybrid_register_slots
from repro.fpga.device import FPGADevice
from repro.fpga.resources import ResourceUsage
from repro.pipeline.backends import EvaluationResult
from repro.pipeline.compile import CompiledDesign, compile as compile_problem, compile_batch
from repro.pipeline.problem import StencilProblem
from repro.utils.pareto import pareto_front as generic_pareto_front


@dataclass(frozen=True)
class DesignPoint:
    """One explored design and whether it fits the device."""

    design: CompiledDesign
    fits: bool

    @property
    def label(self) -> str:
        """Short label used in reports (register slots / total slots)."""
        partition = self.design.partition
        return (
            f"{partition.register_elements}/{partition.depth} register slots "
            f"({partition.mode.value})"
        )


def _make_point(
    design: CompiledDesign, device: Optional[FPGADevice], reserved: ResourceUsage
) -> DesignPoint:
    fits = device is None or device.fits(design.synthesis.usage + reserved)
    return DesignPoint(design=design, fits=fits)


def register_candidates(depth: int, n_taps: int, steps: int = 8) -> List[int]:
    """Register-slot counts of a partition sweep, in increasing order.

    ``steps`` counts spread evenly from the hybrid minimum (one register per
    tap plus the fixed overhead) to ``depth`` (register-only); both extremes
    are always included.
    """
    lo = min(depth, hybrid_register_slots(n_taps))
    return sorted(
        {lo, depth} | {lo + round((depth - lo) * i / max(1, steps - 1)) for i in range(steps)}
    )


def explore_partitions(
    problem: StencilProblem,
    device: Optional[FPGADevice] = None,
    steps: int = 8,
    reserved: Optional[ResourceUsage] = None,
) -> List[DesignPoint]:
    """Sweep the register/BRAM split of the stream buffer.

    Parameters
    ----------
    problem:
        The stencil problem.  Its ``mode`` is ignored; the sweep spans from
        the hybrid minimum to register-only.
    device:
        Optional target device used for feasibility checks.
    steps:
        Number of intermediate points between the two extremes.
    reserved:
        Resources already consumed by the kernel / shell, subtracted from the
        device before the feasibility check.
    """
    reserved = reserved or ResourceUsage()
    design = compile_problem(problem)
    depth = design.partition.depth
    regs = register_candidates(depth, design.partition.n_taps, steps)
    # The hybrid minimum keeps its mode when it is the whole window.
    modes = {depth: StreamBufferMode.REGISTER_ONLY, regs[0]: StreamBufferMode.HYBRID}
    candidates = [
        replace(problem, mode=modes.get(r, StreamBufferMode.CUSTOM), register_elements=r)
        for r in regs
    ]
    _, *designs = compile_batch([design, *candidates])
    return [_make_point(d, device, reserved) for d in designs]


def explore_grid_sizes(
    problem: StencilProblem,
    sizes: Sequence[Tuple[int, ...]],
    device: Optional[FPGADevice] = None,
    mode: StreamBufferMode = StreamBufferMode.HYBRID,
    reserved: Optional[ResourceUsage] = None,
) -> List[DesignPoint]:
    """Price the same stencil problem across different grid sizes."""
    reserved = reserved or ResourceUsage()
    sized = [
        replace(
            problem,
            grid=type(problem.grid)(shape=tuple(shape), word_bytes=problem.grid.word_bytes),
            mode=mode,
            name=f"{problem.name}-{'x'.join(str(s) for s in shape)}",
        )
        for shape in sizes
    ]
    return [_make_point(d, device, reserved) for d in compile_batch(sized)]


def select_best(
    points: Sequence[DesignPoint],
    objective: Callable[[DesignPoint], float],
    require_fit: bool = True,
) -> Optional[DesignPoint]:
    """Pick the feasible point minimising ``objective`` (None if none fits).

    Exact objective ties are broken by the point's label, so the selection is
    deterministic regardless of the order candidates were generated in.
    """
    candidates = [p for p in points if p.fits] if require_fit else list(points)
    if not candidates:
        return None
    return min(candidates, key=lambda p: (objective(p), p.label))


# --------------------------------------------------------------------------- #
# performance sweeps through the pipeline backends
# --------------------------------------------------------------------------- #
@dataclass
class PerformancePoint:
    """One problem of a performance sweep, priced fast and optionally verified."""

    design: CompiledDesign
    predicted: EvaluationResult
    simulated: Optional[EvaluationResult] = None

    @property
    def label(self) -> str:
        """The problem's name."""
        return self.design.problem.name

    @property
    def predicted_cycles(self) -> int:
        """Cycle count from the sweep backend (analytic for fast sweeps)."""
        return self.predicted.cycles

    @property
    def cycles(self) -> int:
        """Best available cycle count: simulated when verified, else predicted."""
        return self.simulated.cycles if self.simulated is not None else self.predicted.cycles

    @property
    def total_bits(self) -> int:
        """Estimated on-chip memory of the design."""
        return self.design.total_memory_bits


#: Objective over performance points; smaller is better.
PerformanceObjective = Callable[[PerformancePoint], Tuple]


def performance_pareto_front(points: Sequence[PerformancePoint]) -> List[PerformancePoint]:
    """The cycles / on-chip-memory Pareto front of a performance sweep."""
    return generic_pareto_front(points, key=lambda p: (p.predicted_cycles, p.total_bits))


@dataclass
class PerformanceSweep:
    """Outcome of :meth:`repro.api.Workbench.explore`."""

    points: List[PerformancePoint] = field(default_factory=list)
    front: List[PerformancePoint] = field(default_factory=list)
    selected: Optional[PerformancePoint] = None
    backend: str = "analytic"
    simulated_count: int = 0

    def format(self) -> str:
        """Text table of the sweep (used by examples and benchmarks)."""
        lines = [
            f"{'problem':<28}{'cycles':>10}{'sim cycles':>12}{'memory bits':>14}"
            f"{'front':>7}{'chosen':>8}"
        ]
        front = set(id(p) for p in self.front)
        for p in self.points:
            sim = p.simulated.cycles if p.simulated is not None else "-"
            lines.append(
                f"{p.label:<28}{p.predicted_cycles:>10}{sim:>12}{p.total_bits:>14}"
                f"{'*' if id(p) in front else '':>7}"
                f"{'<==' if p is self.selected else '':>8}"
            )
        return "\n".join(lines)


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The register-bits / BRAM-bits Pareto front of a sweep.

    A point is kept if no other point is at least as good on both axes and
    strictly better on one.
    """
    return generic_pareto_front(
        points, key=lambda p: (p.design.cost.r_total_bits, p.design.cost.b_total_bits)
    )
