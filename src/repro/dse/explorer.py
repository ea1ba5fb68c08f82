"""Exploration of the Smache design space.

Two axes are explored:

* the paper's hybridisation knob — how many of the stream buffer's window
  slots are registers (from the minimal Case-H point, where only the stencil
  taps are registers, to the Case-R extreme, where the whole window is), each
  candidate priced with the cost model and the synthesis estimator and checked
  against a device's remaining resources;
* whole problems — :meth:`repro.api.Workbench.explore` prices a set of candidate
  problems with the pipeline's ``analytic`` backend (closed-form cycles and
  traffic), keeps the cycles/memory Pareto front, and re-runs only the front
  through the cycle-accurate ``simulate`` backend.  Broad sweeps therefore
  cost microseconds per point instead of seconds, without trusting the fast
  path blindly.

All plans are obtained through :func:`repro.pipeline.compile`, so repeated
sweeps over the same problems hit the shared plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.buffers import BufferPlan
from repro.core.cost_model import MemoryCostEstimate, estimate_memory_cost
from repro.core.partition import (
    HybridPartition,
    StreamBufferMode,
    hybrid_register_slots,
    partition_stream_buffer,
)
from repro.fpga.device import FPGADevice
from repro.fpga.resources import ResourceUsage
from repro.fpga.synthesis import SynthesisReport, synthesize_smache
from repro.pipeline.backends import EvaluationResult
from repro.pipeline.compile import CompiledDesign, compile as compile_problem
from repro.pipeline.problem import StencilProblem
from repro.utils.pareto import pareto_front as generic_pareto_front


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration with everything needed to rank it."""

    problem: StencilProblem
    plan: BufferPlan
    partition: HybridPartition
    cost: MemoryCostEstimate
    synthesis: SynthesisReport
    fits: bool

    @property
    def label(self) -> str:
        """Short label used in reports (register slots / total slots)."""
        return (
            f"{self.partition.register_elements}/{self.partition.depth} register slots "
            f"({self.partition.mode.value})"
        )


def _make_point(
    problem: StencilProblem,
    plan: BufferPlan,
    partition: HybridPartition,
    device: Optional[FPGADevice],
    reserved: ResourceUsage,
) -> DesignPoint:
    cost = estimate_memory_cost(plan, partition=partition)
    synthesis = synthesize_smache(problem, plan, partition=partition)
    fits = True
    if device is not None:
        fits = device.fits(synthesis.usage + reserved)
    return DesignPoint(
        problem=problem,
        plan=plan,
        partition=partition,
        cost=cost,
        synthesis=synthesis,
        fits=fits,
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
    plan = compile_problem(problem).plan
    n_taps = len([o for o in plan.lookup_offsets() if o != 0])
    depth = plan.stream.depth
    lo = min(depth, hybrid_register_slots(n_taps))
    candidates = sorted(
        {lo, depth} | {lo + round((depth - lo) * i / max(1, steps - 1)) for i in range(steps)}
    )
    points = []
    for regs in candidates:
        if regs == lo:
            mode = StreamBufferMode.HYBRID
        elif regs == depth:
            mode = StreamBufferMode.REGISTER_ONLY
        else:
            mode = StreamBufferMode.CUSTOM
        partition = partition_stream_buffer(
            plan.stream, n_taps, mode, register_elements=regs if mode is StreamBufferMode.CUSTOM else None
        )
        mapped = replace(problem, mode=mode, register_elements=partition.register_elements)
        points.append(_make_point(mapped, plan, partition, device, reserved))
    return points


def explore_grid_sizes(
    problem: StencilProblem,
    sizes: Sequence[Tuple[int, ...]],
    device: Optional[FPGADevice] = None,
    mode: StreamBufferMode = StreamBufferMode.HYBRID,
    reserved: Optional[ResourceUsage] = None,
) -> List[DesignPoint]:
    """Price the same stencil problem across different grid sizes."""
    reserved = reserved or ResourceUsage()
    points = []
    for shape in sizes:
        sized = replace(
            problem,
            grid=type(problem.grid)(shape=tuple(shape), word_bytes=problem.grid.word_bytes),
            mode=mode,
            name=f"{problem.name}-{'x'.join(str(s) for s in shape)}",
        )
        design = compile_problem(sized)
        points.append(_make_point(sized, design.plan, design.partition, device, reserved))
    return points


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
        points, key=lambda p: (p.cost.r_total_bits, p.cost.b_total_bits)
    )
