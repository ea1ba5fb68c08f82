"""Static analysis of a stencil problem.

Section III of the paper describes a two-level customisation of the Smache
architecture: the *number of static buffers* is fixed structurally (it is
determined by a static analysis of the stencil code), and a set of runtime
parameters then specialises the fixed structure to a concrete problem.

This module provides that static analysis: from a grid, stencil and boundary
specification it derives how many static buffers are needed, which grid
regions they must hold, which stencil offsets they serve and how large the
stream buffer has to be.  The result is a thin, report-friendly wrapper around
the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.boundary import BoundarySpec
from repro.core.buffers import BufferPlan
from repro.core.grid import GridSpec
from repro.core.planner import plan_buffers
from repro.core.ranges import classify_cases, partition_into_ranges
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class StaticBufferRequirement:
    """One static buffer identified by the analysis."""

    name: str
    start: int
    length: int
    serves_offsets: Tuple[int, ...]

    @property
    def end(self) -> int:
        """One past the last linear grid index covered."""
        return self.start + self.length


@dataclass(frozen=True)
class StencilAnalysis:
    """Result of statically analysing a stencil problem."""

    grid: GridSpec
    stencil: StencilShape
    boundary: BoundarySpec
    n_cases: int
    n_ranges: int
    max_reach: int
    stream_reach: int
    static_buffers: Tuple[StaticBufferRequirement, ...]
    plan: BufferPlan

    @property
    def n_static_buffers(self) -> int:
        """The structural parameter: how many static buffers the design needs."""
        return len(self.static_buffers)

    @property
    def needs_static_buffers(self) -> bool:
        """True when the stream buffer alone cannot economically serve the stencil."""
        return self.n_static_buffers > 0

    def describe(self) -> str:
        """Multi-line human-readable summary (used by examples and reports)."""
        lines = [
            f"Stencil analysis: {self.stencil} on {self.grid.describe()}",
            f"  boundaries        : {self.boundary.describe()}",
            f"  stencil cases     : {self.n_cases}",
            f"  stream ranges     : {self.n_ranges}",
            f"  max tuple reach   : {self.max_reach} elements",
            f"  stream buffer     : reach {self.stream_reach} "
            f"({self.plan.stream.depth} slots)",
            f"  static buffers    : {self.n_static_buffers}",
        ]
        for req in self.static_buffers:
            lines.append(
                f"    - {req.name}: grid[{req.start}:{req.end}] "
                f"({req.length} elements), serves offsets {list(req.serves_offsets)}"
            )
        return "\n".join(lines)


def analyse_static_buffers(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    *,
    max_stream_reach: Optional[int] = None,
    max_total_bits: Optional[int] = None,
) -> StencilAnalysis:
    """Statically analyse a stencil problem and derive its buffer requirements.

    This is the entry point used by :class:`repro.core.config.SmacheConfig`
    and by the examples; constraints model the available on-chip memory.
    """
    ranges = partition_into_ranges(grid, stencil, boundary)
    cases = classify_cases(ranges)
    plan = plan_buffers(
        grid,
        stencil,
        boundary,
        ranges=ranges,
        max_stream_reach=max_stream_reach,
        max_total_bits=max_total_bits,
    )
    statics = tuple(
        StaticBufferRequirement(
            name=s.name,
            start=s.start,
            length=s.length,
            serves_offsets=s.serves_offsets,
        )
        for s in plan.statics
    )
    max_reach = max((r.reach for r in ranges), default=0)
    return StencilAnalysis(
        grid=grid,
        stencil=stencil,
        boundary=boundary,
        n_cases=len(cases),
        n_ranges=len(ranges),
        max_reach=max_reach,
        stream_reach=plan.stream.reach,
        static_buffers=statics,
        plan=plan,
    )


def required_static_buffer_count(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Shortcut: the number of static buffers a problem needs (structural layer)."""
    return analyse_static_buffers(grid, stencil, boundary).n_static_buffers
