"""The pipeline's input: a complete, cacheable stencil problem description.

A :class:`StencilProblem` is the one description of a Smache problem: the
grid, stencil and boundary, the architecture knobs (stream-buffer mode, word
width, planner bounds), the computation *kernel* and, optionally, a
non-contiguous *iteration pattern*.  It is designed to be used as a cache
key, so the whole compilation (planning, partitioning, costing, synthesis)
can be memoized per problem; :func:`repro.pipeline.compile` is the only way
from a problem to its plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Tuple

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec, IterationPattern
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.reference.kernels import AveragingKernel, StencilKernel


def default_kernel(stencil: StencilShape) -> StencilKernel:
    """The kernel assumed when a problem does not name one (paper's filter).

    It depends on the tuple size alone and is frozen, so one instance per
    size is shared: every analytic evaluation resolves it.
    """
    return _averaging_kernel(stencil.n_points)


@lru_cache(maxsize=64)
def _averaging_kernel(points: int) -> AveragingKernel:
    return AveragingKernel(expected_points=points)


@dataclass(frozen=True)
class StencilProblem:
    """Everything needed to compile and evaluate one stencil workload."""

    grid: GridSpec
    stencil: StencilShape
    boundary: BoundarySpec
    # Excluded from the generated hash (kernels may hold dict fields, e.g.
    # WeightedKernel's weights) but still part of equality; cache_key() carries
    # the kernel identity through its repr instead.
    kernel: Optional[StencilKernel] = field(default=None, hash=False)
    pattern: Optional[IterationPattern] = field(default=None, compare=False)
    mode: StreamBufferMode = StreamBufferMode.HYBRID
    word_bits: Optional[int] = None
    max_stream_reach: Optional[int] = None
    max_total_bits: Optional[int] = None
    register_elements: Optional[int] = None
    name: str = "problem"

    def __post_init__(self) -> None:
        if self.mode is StreamBufferMode.CUSTOM and self.register_elements is None:
            raise ValueError("mode CUSTOM requires register_elements")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_example(cls, rows: int = 11, cols: int = 11, **overrides) -> "StencilProblem":
        """The paper's validation case: RxC grid, 4-point stencil, circular
        top/bottom and open left/right boundaries."""
        problem = cls(
            grid=GridSpec(shape=(rows, cols), word_bytes=4),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.paper_2d(),
            name=f"paper-{rows}x{cols}",
        )
        return replace(problem, **overrides) if overrides else problem

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def effective_kernel(self) -> StencilKernel:
        """The kernel to compile for (defaults to the paper's averaging filter)."""
        return self.kernel if self.kernel is not None else default_kernel(self.stencil)

    # ------------------------------------------------------------------ #
    # caching
    # ------------------------------------------------------------------ #
    @property
    def is_cacheable(self) -> bool:
        """Only problems with a contiguous (or default) pattern are memoized.

        A custom :class:`IterationPattern` is a mutable, identity-keyed object;
        compiling one bypasses the plan cache rather than risking a stale hit.
        """
        return self.pattern is None or self.pattern.is_contiguous()

    def cache_key(self) -> str:
        """The ``repr`` of everything :func:`compile` depends on, as one string.

        Deterministic across processes (unlike ``hash()``) and blind to the
        name.  The plan cache, the knob cache and ``SweepPoint.key()`` share
        it, so it is memoized on the (frozen) instance; a ``str`` caches its
        own hash and pickles without it.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = self._memoize_keys()[1]
        return key

    def range_key(self) -> str:
        """The ``repr`` of ``(grid, stencil, boundary)``: what the range partition reads.

        The key of the contiguous partition and of everything derived from
        it alone (the scored planner windows, the baseline fetch schedule).
        Memoized in the same pass as :meth:`cache_key`, whose first three
        fields it prints.
        """
        key = self.__dict__.get("_range_key")
        if key is None:
            key = self._memoize_keys()[0]
        return key

    def _memoize_keys(self) -> Tuple[str, str]:
        # repr of a tuple is its items' reprs joined by ", ", so both keys
        # come from one repr of each field, byte-identical to repr(tuple).
        kernel = self.effective_kernel
        head = ", ".join(map(repr, (self.grid, self.stencil, self.boundary)))
        tail = ", ".join(map(repr, (
            self.mode,
            self.word_bits,
            self.max_stream_reach,
            self.max_total_bits,
            self.register_elements,
            type(kernel).__name__,
            repr(kernel),
        )))
        range_key = f"({head})"
        cache_key = f"({head}, {tail})"
        object.__setattr__(self, "_range_key", range_key)
        object.__setattr__(self, "_cache_key", cache_key)
        return range_key, cache_key

    def describe(self) -> str:
        """One-line summary used by sweep reports."""
        return (
            f"{self.name}: {self.stencil} on {self.grid.describe()}, "
            f"mode={self.mode.value}, kernel={self.effective_kernel.name}"
        )
