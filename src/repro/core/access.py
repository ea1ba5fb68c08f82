"""The formal stream / tuple / range / reach model of Section II.

Given a grid (the memory vector ``m``), an iteration pattern ``p`` and a
stencil with boundary conditions, each stream position ``i`` has a *stream
tuple*: the set of elements of ``m`` that participate in the computation for
``s[i] = m[p(i)]``.  From the tuple we derive the two quantities the paper's
buffer planner works with:

* the **reach** — the difference between the largest and smallest offset
  (in stream positions) from the centre element to the tuple elements; and
* the **range** — a run of consecutive stream positions whose tuples share
  the same *shape* (the same set of offsets), see :mod:`repro.core.ranges`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.boundary import BoundarySpec, ResolvedPoint, ResolutionKind
from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class StreamTuple:
    """The tuple of accesses needed to compute one stream element.

    Attributes
    ----------
    position:
        Position in the stream (index into the iteration pattern).
    centre_linear:
        Linear index of the centre element in ``m``.
    points:
        The resolved stencil accesses (grid elements, constants or skipped).
    stream_offsets:
        For each *existing* point, its offset in stream positions relative to
        the centre (``linear_index − centre_linear`` for a contiguous
        pattern).  This is the quantity whose spread defines the reach.
    """

    position: int
    centre_linear: int
    points: Tuple[ResolvedPoint, ...]
    stream_offsets: Tuple[int, ...]

    @property
    def n_existing(self) -> int:
        """Number of accesses that read an actual grid element."""
        return len(self.stream_offsets)

    @property
    def reach(self) -> int:
        """max − min stream offset over the existing accesses (0 if <=1 access)."""
        return reach_of(self.stream_offsets)

    @property
    def max_abs_offset(self) -> int:
        """Largest absolute stream offset (useful for window sizing)."""
        if not self.stream_offsets:
            return 0
        return max(abs(o) for o in self.stream_offsets)

    @property
    def shape_key(self) -> Tuple[int, ...]:
        """Canonical key describing the tuple's shape (sorted stream offsets).

        Two stream positions belong to the same *stencil case* exactly when
        their shape keys are equal.  Skipped accesses are excluded; constant
        accesses are encoded as a sentinel so that e.g. a constant-padded
        corner is a different case from an open corner.
        """
        key = sorted(self.stream_offsets)
        n_const = sum(1 for p in self.points if p.kind is ResolutionKind.CONSTANT)
        n_skip = sum(1 for p in self.points if p.kind is ResolutionKind.SKIPPED)
        return tuple(key) + ("const", n_const) + ("skip", n_skip) if (n_const or n_skip) else tuple(key)


def reach_of(offsets: Sequence[int]) -> int:
    """The paper's *reach*: ``max(offsets) − min(offsets)`` (0 for empty/singleton)."""
    if len(offsets) <= 1:
        return 0
    return max(offsets) - min(offsets)


def tuple_for(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    position: int,
    centre_linear: Optional[int] = None,
) -> StreamTuple:
    """Build the stream tuple for one stream position.

    ``centre_linear`` defaults to ``position`` (contiguous iteration pattern).
    """
    if centre_linear is None:
        centre_linear = position
    centre = grid.coord(centre_linear)
    points = boundary.resolve_stencil(grid, centre, stencil)
    offsets = tuple(
        p.linear_index - centre_linear for p in points if p.exists and p.linear_index is not None
    )
    return StreamTuple(
        position=position,
        centre_linear=centre_linear,
        points=points,
        stream_offsets=offsets,
    )


def stream_tuples(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> Iterator[StreamTuple]:
    """Yield the stream tuple for every position of the iteration pattern."""
    if pattern is None:
        pattern = IterationPattern.contiguous(grid)
    for position, centre_linear in enumerate(pattern.indices()):
        yield tuple_for(grid, stencil, boundary, position, centre_linear)


def max_reach(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> int:
    """The largest reach over the whole stream.

    For a grid with circular boundaries this is typically of the order of the
    whole grid size, which is exactly the situation static buffers address.
    """
    return max((t.reach for t in stream_tuples(grid, stencil, boundary, pattern)), default=0)


def interior_reach(grid: GridSpec, stencil: StencilShape) -> int:
    """Reach of an interior (no boundary rule applied) element."""
    return stencil.interior_reach(grid.strides)


def access_histogram(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> Dict[Tuple[int, ...], int]:
    """Histogram of tuple shapes over the stream.

    Returns a mapping from shape key to the number of stream positions having
    that shape.  For the paper's 11x11 example with circular top/bottom and
    open left/right boundaries this has exactly nine entries (4 corners,
    4 edges, 1 interior).
    """
    hist: Dict[Tuple[int, ...], int] = {}
    for t in stream_tuples(grid, stencil, boundary):
        hist[t.shape_key] = hist.get(t.shape_key, 0) + 1
    return hist
