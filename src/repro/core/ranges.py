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

import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.access import StreamTuple, tuple_for
from repro.core.boundary import BoundarySpec, ResolvedPoint
from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape


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

    A range of a later interior row is *translated* (see
    :meth:`translated`): it keeps the first interior row's tuple as its
    :attr:`template` plus the shift between the two rows, and builds its
    ``representative`` only when that is first read.  ``stream_offsets``,
    ``reach`` and ``n_points`` read the template, which shares them, so
    compiling and pricing a problem never build it.  Either way the range
    behaves as the frozen record ``(start, length, case_id,
    representative)``: ``repr``, ``==``, ``hash`` and a pickle round-trip
    equal those of the range built with its representative.
    """

    __slots__ = ("start", "length", "case_id", "template", "_shift", "_representative")

    start: int
    length: int
    case_id: int
    #: The tuple the representative is (or is translated from); it shares the
    #: representative's points relative to the centre and its stream offsets.
    template: StreamTuple

    def __init__(
        self, start: int, length: int, case_id: int, representative: StreamTuple
    ) -> None:
        self._fill(start, length, case_id, representative, 0, representative)

    @classmethod
    def translated(
        cls, start: int, length: int, case_id: int, template: StreamTuple, shift: int
    ) -> "StreamRange":
        """A range whose representative is ``template`` moved ``shift`` positions.

        Only valid where every access resolves the same way at both centres
        (see :func:`_translated`); the representative is built on first read.
        """
        r = cls.__new__(cls)
        r._fill(start, length, case_id, template, shift, None)
        return r

    def _fill(
        self,
        start: int,
        length: int,
        case_id: int,
        template: StreamTuple,
        shift: int,
        representative: Optional[StreamTuple],
    ) -> None:
        _set = object.__setattr__
        _set(self, "start", start)
        _set(self, "length", length)
        _set(self, "case_id", case_id)
        _set(self, "template", template)
        _set(self, "_shift", shift)
        _set(self, "_representative", representative)

    @property
    def representative(self) -> StreamTuple:
        """The stream tuple at the range's first position."""
        rep = self._representative
        if rep is None:
            rep = _translated(self.template, self._shift)
            object.__setattr__(self, "_representative", rep)
        return rep

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _record(self) -> Tuple[int, int, int, StreamTuple]:
        return (self.start, self.length, self.case_id, self.representative)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record() == other._record()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._record())

    def __repr__(self) -> str:
        return (
            f"StreamRange(start={self.start!r}, length={self.length!r}, "
            f"case_id={self.case_id!r}, representative={self.representative!r})"
        )

    def __reduce__(self):
        if self.template is self._representative:
            return (StreamRange, (self.start, self.length, self.case_id, self.template))
        return (
            StreamRange.translated,
            (self.start, self.length, self.case_id, self.template, self._shift),
        )

    @property
    def end(self) -> int:
        """One past the last stream position of the range."""
        return self.start + self.length

    @property
    def stream_offsets(self) -> Tuple[int, ...]:
        """Stream offsets of the existing accesses (shared by the whole range)."""
        return self.template.stream_offsets

    @property
    def reach(self) -> int:
        """Reach of the range's tuple."""
        return self.template.reach

    @property
    def n_points(self) -> int:
        """Number of existing accesses per tuple in this range."""
        return self.template.n_existing


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
    row_length = grid.shape[inner]

    # Walk the rows (outer coordinates) in row-major order, so that ranges come
    # out already in stream order and row ``k`` starts at ``k * row_length``;
    # the band decomposition is only applied to the innermost dimension, which
    # is the one that is contiguous in the stream.
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}

    # A row whose outer coordinates all lie in the interior band never crosses
    # an outer boundary, so its accesses resolve exactly like those of any
    # other interior row, shifted by the rows' linear distance.  The first
    # interior row is resolved in full; later ones are translated from it.
    interior_flags = [
        [radii_lo[d] <= i < grid.shape[d] - radii_hi[d] for i in range(grid.shape[d])]
        for d in range(inner)
    ]
    first_interior: Optional[List[Tuple[StreamTuple, int]]] = None
    first_interior_linear = 0

    for row, flags in enumerate(itertools.product(*interior_flags)):
        row_linear = row * row_length
        is_interior = all(flags)
        if is_interior and first_interior is not None:
            shift = row_linear - first_interior_linear
            for (start, length), (base, case_id) in zip(inner_bands, first_interior):
                ranges.append(
                    StreamRange.translated(row_linear + start, length, case_id, base, shift)
                )
            continue
        resolved: List[Tuple[StreamTuple, int]] = []
        for start, length in inner_bands:
            centre_linear = row_linear + start
            rep = tuple_for(grid, stencil, boundary, centre_linear, centre_linear)
            case_id = case_ids.setdefault(rep.shape_key, len(case_ids))
            resolved.append((rep, case_id))
            ranges.append(StreamRange(centre_linear, length, case_id, rep))
        if is_interior:
            first_interior = resolved
            first_interior_linear = row_linear
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
    """Aggregate ranges by case id (tuple shape).

    Each case is described by its first range, whose representative is the
    one :class:`CaseInfo` carries.
    """
    first: Dict[int, StreamRange] = {}
    n_ranges: Dict[int, int] = {}
    n_positions: Dict[int, int] = {}
    for r in ranges:
        case_id = r.case_id
        if case_id in first:
            n_ranges[case_id] += 1
            n_positions[case_id] += r.length
        else:
            first[case_id] = r
            n_ranges[case_id] = 1
            n_positions[case_id] = r.length
    return {
        case_id: CaseInfo(
            case_id=case_id,
            shape_key=r.representative.shape_key,
            n_ranges=n_ranges[case_id],
            n_positions=n_positions[case_id],
            reach=r.reach,
            representative=r.representative,
        )
        for case_id, r in first.items()
    }


def n_cases(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Number of distinct stencil cases (the paper's nine for the 11x11 example)."""
    return len(classify_cases(partition_into_ranges(grid, stencil, boundary)))
