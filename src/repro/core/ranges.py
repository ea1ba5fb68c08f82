"""Partitioning the stream into ranges of identical stencil cases.

Section II of the paper divides the stream into ``k`` non-overlapping ranges,
each with a fixed tuple shape; the buffer-configuration algorithm then works
per range.  For the paper's 11x11 validation grid (4-point stencil, circular
top/bottom boundaries, open left/right boundaries) there are nine distinct
*cases* — 4 corners, 4 edges, 1 interior — and, because cases interleave along
the stream, considerably more *ranges* (each row of the grid contributes a
left-edge range, an interior range and a right-edge range).

Two implementations are provided:

* an analytic *banded* partitioner for contiguous iteration patterns, which
  scales to the paper's 1024x1024 grid without enumerating a million tuples;
* a generic enumerating partitioner used for arbitrary iteration patterns and
  as a cross-check in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.access import StreamTuple, tuple_for
from repro.core.boundary import BoundarySpec, ResolvedPoint
from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class StreamRange:
    """A run of consecutive stream positions sharing one tuple shape.

    Every position in ``[start, end)`` has the same shape key, so the
    representative's stream offsets hold for the whole range.  A range is not
    necessarily *maximal*: the banded partitioner emits one range per
    (outer row, inner band) and does not merge neighbouring ranges of equal
    shape.  Those arise when two bands resolve alike, e.g. two edge columns
    whose only out-of-grid access both become the same constant.  Such
    ranges are still sound, only finer than needed: their static runs merge
    in the planner, so the chosen buffers are the same.
    """

    start: int
    length: int
    case_id: int
    representative: StreamTuple

    @property
    def end(self) -> int:
        """One past the last stream position of the range."""
        return self.start + self.length

    @property
    def stream_offsets(self) -> Tuple[int, ...]:
        """Stream offsets of the existing accesses (shared by the whole range)."""
        return self.representative.stream_offsets

    @property
    def reach(self) -> int:
        """Reach of the range's tuple."""
        return self.representative.reach

    @property
    def n_points(self) -> int:
        """Number of existing accesses per tuple in this range."""
        return self.representative.n_existing


@dataclass(frozen=True)
class CaseInfo:
    """Aggregate information about one stencil case (a set of ranges)."""

    case_id: int
    shape_key: Tuple
    n_ranges: int
    n_positions: int
    reach: int
    representative: StreamTuple


def _dimension_bands(extent: int, lo_radius: int, hi_radius: int) -> List[Tuple[int, int]]:
    """Split one dimension into bands of indices with identical boundary behaviour.

    Indices closer to an edge than the stencil radius behave individually
    (different subsets of offsets cross the edge); the remaining middle
    indices form a single interior band.
    """
    if extent <= lo_radius + hi_radius:
        # Degenerate: every index may interact with a boundary differently.
        return [(i, 1) for i in range(extent)]
    bands: List[Tuple[int, int]] = [(i, 1) for i in range(lo_radius)]
    bands.append((lo_radius, extent - lo_radius - hi_radius))
    bands.extend((extent - hi_radius + i, 1) for i in range(hi_radius))
    return bands


def _banded_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> List[StreamRange]:
    """Analytic partitioner for the contiguous (row-major) iteration pattern."""
    radii_lo = []
    radii_hi = []
    for d in range(grid.ndim):
        lo, hi = stencil.extent(d)
        radii_lo.append(max(0, -lo))
        radii_hi.append(max(0, hi))

    inner = grid.ndim - 1
    inner_bands = _dimension_bands(grid.shape[inner], radii_lo[inner], radii_hi[inner])

    outer_bands_per_dim = [
        _dimension_bands(grid.shape[d], radii_lo[d], radii_hi[d]) for d in range(inner)
    ]

    # Enumerate outer coordinates row by row so that ranges come out already in
    # stream order; the band decomposition is only applied to the innermost
    # dimension, which is the one that is contiguous in the stream.
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}

    def outer_coords(dim: int, prefix: Tuple[int, ...]):
        if dim == inner:
            yield prefix
            return
        for start, length in outer_bands_per_dim[dim]:
            for idx in range(start, start + length):
                yield from outer_coords(dim + 1, prefix + (idx,))

    # A row whose outer coordinates all lie in the interior band never crosses
    # an outer boundary, so its accesses resolve exactly like those of any
    # other interior row, shifted by the rows' linear distance.  The first
    # interior row is resolved in full; later ones are translated from it.
    interior = [range(radii_lo[d], grid.shape[d] - radii_hi[d]) for d in range(inner)]
    first_interior: Optional[List[Tuple[StreamTuple, int]]] = None

    for prefix in outer_coords(0, ()):
        row_linear = grid.linear_index(prefix + (0,))
        is_interior = all(i in band for i, band in zip(prefix, interior))
        if is_interior and first_interior is not None:
            for (start, length), (base, case_id) in zip(inner_bands, first_interior):
                shift = row_linear + start - base.centre_linear
                ranges.append(
                    StreamRange(
                        start=row_linear + start,
                        length=length,
                        case_id=case_id,
                        representative=_translated(base, shift),
                    )
                )
            continue
        row: List[Tuple[StreamTuple, int]] = []
        for start, length in inner_bands:
            centre_linear = row_linear + start
            rep = tuple_for(grid, stencil, boundary, centre_linear, centre_linear)
            case_id = case_ids.setdefault(rep.shape_key, len(case_ids))
            row.append((rep, case_id))
            ranges.append(
                StreamRange(
                    start=centre_linear,
                    length=length,
                    case_id=case_id,
                    representative=rep,
                )
            )
        if is_interior:
            first_interior = row
    return ranges


def _translated(base: StreamTuple, shift: int) -> StreamTuple:
    """``base`` moved ``shift`` positions along the stream.

    Only valid where every access resolves the same way at both centres (the
    interior rows of :func:`_banded_partition`): in-grid accesses move with
    the centre, constants and skipped accesses are shared unchanged, and the
    stream offsets are the same tuple.
    """
    points = tuple(
        p
        if p.linear_index is None
        else ResolvedPoint(
            kind=p.kind,
            offset=p.offset,
            linear_index=p.linear_index + shift,
            constant_value=p.constant_value,
        )
        for p in base.points
    )
    return StreamTuple(
        position=base.position + shift,
        centre_linear=base.centre_linear + shift,
        points=points,
        stream_offsets=base.stream_offsets,
    )


def _enumerating_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: IterationPattern,
    max_positions: int = 2_000_000,
) -> List[StreamRange]:
    """Generic partitioner: walk every position and merge equal-shaped runs."""
    if len(pattern) > max_positions:
        raise ValueError(
            f"iteration pattern has {len(pattern)} positions, above the enumeration "
            f"limit of {max_positions}; use a contiguous pattern for the analytic path"
        )
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}
    current_key = None
    current_start = 0
    current_rep: Optional[StreamTuple] = None
    count = 0

    for position, centre_linear in enumerate(pattern.indices()):
        t = tuple_for(grid, stencil, boundary, position, centre_linear)
        key = t.shape_key
        if key != current_key:
            if current_rep is not None:
                case_id = case_ids.setdefault(current_key, len(case_ids))
                ranges.append(
                    StreamRange(
                        start=current_start,
                        length=count,
                        case_id=case_id,
                        representative=current_rep,
                    )
                )
            current_key = key
            current_start = position
            current_rep = t
            count = 0
        count += 1
    if current_rep is not None:
        case_id = case_ids.setdefault(current_key, len(case_ids))
        ranges.append(
            StreamRange(
                start=current_start, length=count, case_id=case_id, representative=current_rep
            )
        )
    return ranges


def partition_into_ranges(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> List[StreamRange]:
    """Divide the stream into non-overlapping ranges of constant tuple shape.

    For contiguous iteration patterns the analytic banded partitioner is used
    (it never enumerates more positions than ``number of rows x bands``); for
    other patterns the positions are enumerated directly.
    """
    if pattern is None or pattern.is_contiguous():
        return _banded_partition(grid, stencil, boundary)
    return _enumerating_partition(grid, stencil, boundary, pattern)


def classify_cases(ranges: Sequence[StreamRange]) -> Dict[int, CaseInfo]:
    """Aggregate ranges by case id (tuple shape)."""
    cases: Dict[int, CaseInfo] = {}
    for r in ranges:
        existing = cases.get(r.case_id)
        if existing is None:
            cases[r.case_id] = CaseInfo(
                case_id=r.case_id,
                shape_key=r.representative.shape_key,
                n_ranges=1,
                n_positions=r.length,
                reach=r.reach,
                representative=r.representative,
            )
        else:
            cases[r.case_id] = CaseInfo(
                case_id=existing.case_id,
                shape_key=existing.shape_key,
                n_ranges=existing.n_ranges + 1,
                n_positions=existing.n_positions + r.length,
                reach=existing.reach,
                representative=existing.representative,
            )
    return cases


def n_cases(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Number of distinct stencil cases (the paper's nine for the 11x11 example)."""
    return len(classify_cases(partition_into_ranges(grid, stencil, boundary)))
