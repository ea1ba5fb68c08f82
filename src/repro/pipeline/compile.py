"""``compile()``: from a stencil problem to a fully planned, priced design.

This is the single seam every consumer goes through.  One call runs

1. range partitioning (:func:`repro.core.ranges.partition_into_ranges`),
2. the buffer-configuration planner (:func:`repro.core.planner.plan_buffers`),
3. the hybrid register/BRAM partition (:func:`repro.core.partition`),
4. the Table-I memory cost model (:func:`repro.core.cost_model`), and
5. the analytical synthesis estimator (:func:`repro.fpga.synthesis`).

Partitioning runs at most once per compile: one pass is shared by the
planner (which receives the ranges) and synthesis (which receives the case
count), rather than each stage partitioning the problem again.
:func:`compile_batch` goes further and runs every stage once per distinct
input of the batch.  The range partition and the planner's window scores
depend only on grid, stencil and boundary, so they run once per range
partition; the choice of window adds word size, reach bound and bit bound,
and bounds that choose the same window share one plan.  Stages 3-5 add
only the mode, the register count and the kernel to the plan, so they run
once per distinct (plan, mode, register count, kernel).  So designs that
differ only in mode share stages 1 and 2, designs that differ in reach
still share the partition and the scores, and designs of one mode whose
reach bounds choose the same window share stages 3-5 as well; each design
still carries a synthesis report named after its own problem.  The work
scales with the distinct stencil cases and offsets, not with the ~3
ranges per grid row: the partition holds a grid's interior rows as one row
run and builds a range only when it is read (nothing in compile or analytic
pricing reads one), the planner scores each candidate window from periodic
per-offset spans, and the case count works per run.  The resulting
:class:`CompiledDesign` is memoized in the keyed plan cache, so sweeps
re-planning the same problem are free after the first hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.buffers import BufferPlan
from repro.core.cost_model import MemoryCostEstimate, estimate_memory_cost
from repro.core.partition import HybridPartition, partition_for_plan
from repro.core.planner import ScoredWindows, UnsupportedPatternError, plan_buffers
from repro.core.ranges import RangePartition, partition_into_ranges
from repro.fpga.synthesis import SynthesisReport, smache_design_name, synthesize_smache
from repro.pipeline.cache import PlanCache, plan_cache
from repro.pipeline.problem import StencilProblem


@dataclass(frozen=True)
class CompiledDesign:
    """Everything derived from one problem: plan, partition, cost, synthesis.

    Every consumer (the simulated systems, the HDL generator, the synthesis
    estimator, design-space exploration) reads the plan and partition from
    here; none plans the problem again.
    """

    problem: StencilProblem
    ranges: RangePartition
    n_cases: int
    plan: BufferPlan
    partition: HybridPartition
    cost: MemoryCostEstimate
    synthesis: SynthesisReport

    # ------------------------------------------------------------------ #
    @property
    def n_ranges(self) -> int:
        """Number of stream ranges of the problem."""
        return len(self.ranges)

    @property
    def total_memory_bits(self) -> int:
        """Estimated on-chip memory of the design (registers + BRAM)."""
        return self.cost.total_bits

    @property
    def fmax_mhz(self) -> float:
        """Estimated clock frequency from the synthesis model."""
        return self.synthesis.fmax_mhz

    # ------------------------------------------------------------------ #
    # Section III's two-layer customisation
    # ------------------------------------------------------------------ #
    def structural_signature(self) -> Mapping[str, object]:
        """The structural layer: what would have to be re-generated in HDL."""
        return {
            "n_static_buffers": self.plan.n_static_buffers,
            "mode": self.partition.mode.value,
            "n_taps": len([o for o in self.plan.lookup_offsets() if o != 0]),
        }

    def parameters(self) -> Mapping[str, object]:
        """The parameter layer: runtime-configurable values."""
        plan = self.plan
        return {
            "grid_shape": self.problem.grid.shape,
            "word_bits": plan.stream.word_bits,
            "window_lo": plan.stream.window_lo,
            "window_hi": plan.stream.window_hi,
            "window_depth": plan.stream.depth,
            "static_buffers": tuple(
                {"name": s.name, "start": s.start, "length": s.length} for s in plan.statics
            ),
        }

    def is_structurally_compatible(self, other: "CompiledDesign") -> bool:
        """True if ``other`` can be hosted on hardware generated for ``self``.

        A Smache instance generated with N static buffers and a given stream
        mode can execute any problem needing at most N static buffers in the
        same mode (the extra buffers are simply parameterised to length 0).
        """
        mine = self.structural_signature()
        theirs = other.structural_signature()
        return (
            theirs["n_static_buffers"] <= mine["n_static_buffers"]
            and theirs["mode"] == mine["mode"]
        )

    def describe(self) -> str:
        """Multi-line summary used by examples and sweep reports."""
        lines = [
            f"CompiledDesign for {self.problem.describe()}",
            f"  cases/ranges   : {self.n_cases} cases over {self.n_ranges} ranges",
            self.plan.describe(),
            f"  stream mapping : {self.partition.describe()}",
            f"  memory cost    : {self.cost.r_total_bits} register bits, "
            f"{self.cost.b_total_bits} BRAM bits",
            f"  est. Fmax      : {self.fmax_mhz:.1f} MHz",
        ]
        return "\n".join(lines)


def _plan_key(problem: StencilProblem, range_key: str) -> Tuple[str, str]:
    """The stage key of a problem's plan: its ranges plus the planner's bounds."""
    return range_key, repr((problem.word_bits, problem.max_stream_reach, problem.max_total_bits))


def _design_key(problem: StencilProblem, plan: BufferPlan) -> Tuple[int, str]:
    """The stage key of stages 3-5: the chosen plan plus the problem's mode, registers and kernel.

    The plan is keyed by identity: every plan of one batch lives in its
    stage table, so no two live plans share an ``id``, and bounds that
    choose one window already share one plan object.
    """
    kernel = problem.effective_kernel
    return id(plan), repr(
        (problem.mode, problem.register_elements, type(kernel).__name__, kernel)
    )


def _for_problem(design: CompiledDesign, problem: StencilProblem) -> CompiledDesign:
    """``design``'s artifacts under ``problem``'s identity.

    The synthesis report is renamed after ``problem`` (its name carries the
    problem's), so a design shared by a cache hit or a batch stage never
    reports another problem's name.
    """
    if design.problem == problem:
        return design
    return replace(design, problem=problem, synthesis=_named(design.synthesis, problem))


def _named(report: SynthesisReport, problem: StencilProblem) -> SynthesisReport:
    """``report`` named after ``problem``'s Smache design."""
    name = smache_design_name(problem)
    return report if report.design == name else replace(report, design=name)


def _seed(stages: Dict[object, Any], design: CompiledDesign) -> None:
    """Enter a compiled design's range partition and plan into ``stages``."""
    problem = design.problem
    if problem.is_cacheable:
        range_key = problem.range_key()
        stages.setdefault(
            range_key, (design.ranges, design.n_cases, ScoredWindows(design.ranges))
        )
        stages.setdefault(_plan_key(problem, range_key), design.plan)


def _build(
    problem: StencilProblem, stages: Optional[Dict[object, Any]] = None
) -> CompiledDesign:
    """Uncached compilation of one problem.

    ``stages`` holds the range partitions, scored windows, plans and the
    partition, cost and synthesis of each (plan, mode, register count,
    kernel) already made for other cacheable problems of the same
    :func:`compile_batch` call; a stage runs only when its key is missing,
    and one that raises stores nothing.  The keys are the ``repr`` of each
    stage's inputs, like :meth:`StencilProblem.cache_key`, so inputs that
    compare equal but print differently (``0`` and ``0.0``) never share a
    result; only the plan is keyed by identity (:func:`_design_key`).
    Without ``stages`` the problem builds alone, on a fresh table.
    """
    stages = {} if stages is None else stages
    range_key = problem.range_key()
    if range_key not in stages:
        ranges = partition_into_ranges(
            problem.grid, problem.stencil, problem.boundary, problem.pattern
        )
        # The windows are scored on first use, inside the planner stage.
        stages[range_key] = (ranges, ranges.n_cases, ScoredWindows(ranges))
    ranges, n_cases, windows = stages[range_key]
    plan_key = _plan_key(problem, range_key)
    if plan_key not in stages:
        stages[plan_key] = plan_buffers(
            problem.grid,
            problem.stencil,
            problem.boundary,
            problem.pattern,
            windows=windows,
            word_bits=problem.word_bits,
            max_stream_reach=problem.max_stream_reach,
            max_total_bits=problem.max_total_bits,
        )
    plan = stages[plan_key]
    design_key = _design_key(problem, plan)
    if design_key not in stages:
        partition = partition_for_plan(
            plan, problem.mode, register_elements=problem.register_elements
        )
        cost = estimate_memory_cost(plan, problem.mode, partition=partition)
        # Synthesis counts cases over the contiguous pattern; for a cacheable
        # problem that is the partition above, so its count is passed through.
        synthesis = synthesize_smache(
            problem, plan, partition=partition, n_cases=n_cases if problem.is_cacheable else None
        )
        stages[design_key] = (partition, cost, synthesis)
    partition, cost, synthesis = stages[design_key]
    return CompiledDesign(
        problem=problem,
        ranges=ranges,
        n_cases=n_cases,
        plan=plan,
        partition=partition,
        cost=cost,
        synthesis=_named(synthesis, problem),
    )


def compile(
    problem: StencilProblem,
    cache: Optional[PlanCache] = plan_cache,
) -> CompiledDesign:
    """Compile ``problem`` into a :class:`CompiledDesign`, memoized per problem.

    ``cache`` defaults to the process-wide plan cache; pass ``None`` to force
    a fresh compilation.  Problems carrying a custom non-contiguous iteration
    pattern always bypass the cache (see :attr:`StencilProblem.is_cacheable`),
    and raise :class:`UnsupportedPatternError` when their plan would need
    static buffers (e.g. a circular boundary on dimension 0).
    """
    if cache is None or not problem.is_cacheable:
        return _build(problem)
    design = cache.get_or_compile(problem.cache_key(), lambda: _build(problem))
    # A cache hit from an equivalent problem under a different name (the key
    # ignores labels) shares the compiled artifacts under the caller's identity.
    return _for_problem(design, problem)


def compile_batch(
    problems: Sequence[Union[StencilProblem, CompiledDesign]],
    cache: Optional[PlanCache] = plan_cache,
) -> List[CompiledDesign]:
    """Compile many problems at once, in input order.

    The batch counterpart of :func:`compile`, used by the vectorized analytic
    fast lane (:mod:`repro.pipeline.analytic_batch`): cacheable problems go
    through :meth:`PlanCache.get_or_compile_batch`, so a batch of N points
    sharing one design compiles it once and records one miss plus N−1 hits —
    the same counters a per-point loop over a warm cache would show.  The
    designs compiled on those misses share their stages: one range partition
    and one scoring of the planner's windows per distinct (grid, stencil,
    boundary), one window selection per distinct (word bits, reach bound,
    bit bound) of it, one plan per distinct chosen window and word size, and
    one hybrid partition, cost estimate and synthesis per distinct (plan,
    mode, register count, kernel), held in a table that lives only as long
    as this call.  A design that shares a synthesis carries a report named
    after its own problem.
    Already-compiled designs pass through untouched, and their range
    partition and plan seed that table: a problem that differs from one of
    them only in mode or register count compiles without partitioning or
    planning (the resource sweep of :mod:`repro.dse.explorer` relies on
    this).  Uncacheable problems (and every problem when ``cache`` is
    ``None``) build fresh, exactly like :func:`compile`.
    """
    designs: List[Optional[CompiledDesign]] = [None] * len(problems)
    keyed_indices: List[int] = []
    keyed_problems: List[StencilProblem] = []
    stages: Dict[object, Any] = {}
    for index, problem in enumerate(problems):
        if isinstance(problem, CompiledDesign):
            designs[index] = problem
            _seed(stages, problem)
            continue
        if cache is None or not problem.is_cacheable:
            designs[index] = _build(problem)
            continue
        keyed_indices.append(index)
        keyed_problems.append(problem)
    if keyed_problems:
        built = cache.get_or_compile_batch(
            [p.cache_key() for p in keyed_problems],
            [lambda p=p: _build(p, stages) for p in keyed_problems],
        )
        for index, problem, design in zip(keyed_indices, keyed_problems, built):
            designs[index] = _for_problem(design, problem)
    return designs  # type: ignore[return-value]
