"""Partitioning the stream into ranges of identical stencil cases.

Section II of the paper divides the stream into ``k`` non-overlapping ranges,
each with a fixed tuple shape; the buffer-configuration algorithm then works
per range.  For the paper's 11x11 validation grid (4-point stencil, circular
top/bottom boundaries, open left/right boundaries) there are nine distinct
*cases* — 4 corners, 4 edges, 1 interior — and, because cases interleave along
the stream, considerably more *ranges* (each row of the grid contributes a
left-edge range, an interior range and a right-edge range).

Both partitioners return a :class:`RangePartition`, an ordered list of
*row runs*: consecutive rows whose ranges repeat one row apart, held once.

* The analytic *banded* partitioner, for contiguous iteration patterns,
  resolves one row per run, so the paper's 1024x1024 grid costs what its
  11x11 grid does.
* The generic *enumerating* partitioner, for arbitrary iteration patterns
  and as a cross-check in the test-suite, emits one run per range.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.access import StreamTuple, tuple_for
from repro.core.boundary import BoundarySpec
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
    #: The stream tuple at the range's first position.
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


class Band(NamedTuple):
    """One slice of every row of a :class:`RowRun`: one range per row."""

    #: First position of the slice within its row.
    offset: int
    length: int
    case_id: int
    #: The stream tuple at the slice's first position in the run's first row.
    template: StreamTuple


class RowRun(NamedTuple):
    """Consecutive stream rows whose accesses resolve alike, one row apart."""

    first_row: int
    rows: int
    bands: Tuple[Band, ...]


class RangePartition(Sequence):
    """A problem's stream ranges, held as row runs.

    Row ``first_row + k`` of a run starts at stream position ``(first_row +
    k) * row_length``; each band of the run is one range of every row, with
    the band's offsets, case and shape.  A grid's interior rows are one run,
    so a consumer that works per run and multiplies by its row count works
    in proportion to the distinct kinds of row, not to the rows.

    The partition still behaves as the ``Sequence[StreamRange]`` of its
    ranges in stream order (``len``, indexing, iteration, ``==`` with a list
    or tuple of ranges, ``repr``, pickling), building a range only when it
    is read: a later row of a run resolves its representative with
    :func:`~repro.core.access.tuple_for` on ``problem``, the ``(grid,
    stencil, boundary)`` partitioned.
    """

    def __init__(self, row_length: int, runs: Sequence[RowRun], problem: Tuple = ()) -> None:
        self.row_length = row_length
        self.runs: Tuple[RowRun, ...] = tuple(runs)
        self._problem = problem
        #: The index of each run's first range, then the number of ranges.
        self._firsts = list(
            itertools.accumulate((run.rows * len(run.bands) for run in self.runs), initial=0)
        )

    @classmethod
    def of(cls, ranges: Sequence[StreamRange]) -> "RangePartition":
        """``ranges`` itself when it is a partition, else one run per range."""
        if isinstance(ranges, RangePartition):
            return ranges
        q = max((r.length for r in ranges), default=1)
        return cls(q, [
            RowRun(r.start // q, 1, (Band(r.start % q, r.length, r.case_id, r.representative),))
            for r in ranges
        ])

    @property
    def n_cases(self) -> int:
        """Number of distinct stencil cases."""
        return len({band.case_id for run in self.runs for band in run.bands})

    def _range(self, run: RowRun, row: int, band: Band) -> StreamRange:
        start = (run.first_row + row) * self.row_length + band.offset
        rep = band.template if row == 0 else tuple_for(*self._problem, start)
        return StreamRange(start, band.length, band.case_id, rep)

    def __len__(self) -> int:
        return self._firsts[-1]

    def __getitem__(self, index):
        index = range(len(self))[index]  # a negative index counts from the end
        i = bisect_right(self._firsts, index) - 1
        run = self.runs[i]
        row, band = divmod(index - self._firsts[i], len(run.bands))
        return self._range(run, row, run.bands[band])

    def __iter__(self) -> Iterator[StreamRange]:
        for run in self.runs:
            for row in range(run.rows):
                for band in run.bands:
                    yield self._range(run, row, band)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RangePartition):
            if (self.row_length, self.runs) == (other.row_length, other.runs):
                return True
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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
) -> RangePartition:
    """Analytic partitioner for the contiguous (row-major) iteration pattern.

    Boundary rules apply per dimension, so rows that differ only in a
    coordinate of the last outer dimension's interior band resolve alike,
    one row apart: each band of that dimension, under each coordinate of
    the dimensions outside it, is one row run.  A 2-D grid has one interior
    run between its boundary rows, a 3-D grid one per plane.  Only a run's
    first row is resolved, band by band along the innermost dimension, the
    one that is contiguous in the stream.
    """
    radii = [(max(0, -lo), max(0, hi)) for lo, hi in map(stencil.extent, range(grid.ndim))]
    if grid.ndim == 1:  # one row, under an outer dimension of extent 1
        radii.insert(0, (0, 0))
    extent, row_length = ((1,) + grid.shape)[-2:]
    row_bands = _dimension_bands(extent, *radii[-2])
    inner_bands = _dimension_bands(row_length, *radii[-1])
    runs: List[RowRun] = []
    case_ids: Dict[Tuple, int] = {}
    for outer in range(grid.size // (extent * row_length)):
        for first, rows in row_bands:
            row = outer * extent + first
            bands = []
            for start, length in inner_bands:
                rep = tuple_for(grid, stencil, boundary, row * row_length + start)
                case_id = case_ids.setdefault(rep.shape_key, len(case_ids))
                bands.append(Band(start, length, case_id, rep))
            runs.append(RowRun(row, rows, tuple(bands)))
    return RangePartition(row_length, runs, (grid, stencil, boundary))


def _enumerating_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: IterationPattern,
    max_positions: int = 2_000_000,
) -> RangePartition:
    """Generic partitioner: walk every position and merge equal-shaped runs.

    Each range is a one-range run of its own.
    """
    if len(pattern) > max_positions:
        raise ValueError(
            f"iteration pattern has {len(pattern)} positions, above the enumeration "
            f"limit of {max_positions}; use a contiguous pattern for the analytic path"
        )
    firsts: List[StreamTuple] = []
    for position, centre_linear in enumerate(pattern.indices()):
        t = tuple_for(grid, stencil, boundary, position, centre_linear)
        if not firsts or t.shape_key != firsts[-1].shape_key:
            firsts.append(t)
    ends = [t.position for t in firsts[1:]] + [len(pattern)]
    case_ids: Dict[Tuple, int] = {}
    ranges = [
        StreamRange(
            t.position, end - t.position, case_ids.setdefault(t.shape_key, len(case_ids)), t
        )
        for t, end in zip(firsts, ends)
    ]
    return RangePartition.of(ranges)


def partition_into_ranges(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> RangePartition:
    """Divide the stream into non-overlapping ranges of constant tuple shape.

    For contiguous iteration patterns the analytic banded partitioner is used
    (it resolves one row per row run, whatever the number of rows); for
    other patterns the positions are enumerated directly.
    """
    if pattern is None or pattern.is_contiguous():
        return _banded_partition(grid, stencil, boundary)
    return _enumerating_partition(grid, stencil, boundary, pattern)


def classify_cases(ranges: Sequence[StreamRange]) -> Dict[int, CaseInfo]:
    """Aggregate ranges by case id (tuple shape), one row run at a time.

    Each case is described by its first range, whose representative is the
    one :class:`CaseInfo` carries.
    """
    cases: Dict[int, CaseInfo] = {}
    for run in RangePartition.of(ranges).runs:
        for band in run.bands:
            t = band.template
            info = cases.get(band.case_id) or CaseInfo(band.case_id, t.shape_key, 0, 0, t.reach, t)
            cases[band.case_id] = replace(
                info,
                n_ranges=info.n_ranges + run.rows,
                n_positions=info.n_positions + run.rows * band.length,
            )
    return cases


def n_cases(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Number of distinct stencil cases (the paper's nine for the 11x11 example)."""
    return partition_into_ranges(grid, stencil, boundary).n_cases
