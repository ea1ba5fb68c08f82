"""Buffer specifications: the output of the buffer-configuration planner.

A :class:`BufferPlan` is the architecture-independent description of *what*
needs to be buffered on chip: one stream (window) buffer plus zero or more
static buffers.  ``repro.arch`` instantiates cycle-accurate hardware from a
plan; ``repro.core.cost_model`` prices it in registers and BRAM bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.utils.validation import check_non_negative, check_positive

#: Extra window slots beyond the raw reach.  The prototype HDL registers the
#: incoming word, the outgoing word and the centre tap separately, so the
#: physical window depth is ``reach + PIPELINE_SLACK`` elements; this constant
#: reproduces the stream-buffer sizes reported in Table I of the paper
#: (2*W + 3 elements for the 4-point stencil on a width-W grid).
PIPELINE_SLACK = 3


@dataclass(frozen=True)
class StreamBufferSpec:
    """The single moving-window (stream) buffer.

    Attributes
    ----------
    reach:
        Largest reach served by the window (max − min stream offset).
    window_lo / window_hi:
        The window covers stream offsets ``[window_lo, window_hi]`` relative
        to the current element, with ``window_hi − window_lo == reach``.
    depth:
        Physical number of element slots (``reach + PIPELINE_SLACK``).
    word_bits:
        Element width in bits.
    """

    reach: int
    window_lo: int
    window_hi: int
    word_bits: int
    slack: int = PIPELINE_SLACK

    def __post_init__(self) -> None:
        check_non_negative("reach", self.reach)
        check_positive("word_bits", self.word_bits)
        if self.window_hi - self.window_lo != self.reach:
            raise ValueError("window bounds are inconsistent with the reach")

    @property
    def depth(self) -> int:
        """Physical element slots including pipeline slack."""
        return self.reach + self.slack

    @property
    def total_bits(self) -> int:
        """Total storage of the stream buffer in bits."""
        return self.depth * self.word_bits


@dataclass(frozen=True)
class StaticBufferSpec:
    """One static buffer: a fixed set of grid elements kept on chip.

    Unlike the stream buffer, a static buffer does not slide with the stream;
    it holds the elements of a fixed linear run ``[start, start + length)`` of
    the grid (for the paper's validation case: the top row and the bottom
    row).  With double buffering each element is stored twice (read bank and
    write bank).
    """

    name: str
    start: int
    length: int
    word_bits: int
    double_buffered: bool = True
    serves_offsets: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)
        check_positive("length", self.length)
        check_positive("word_bits", self.word_bits)

    @property
    def end(self) -> int:
        """One past the last linear grid index held by the buffer."""
        return self.start + self.length

    @property
    def banks(self) -> int:
        """Number of physical copies (2 when double buffered)."""
        return 2 if self.double_buffered else 1

    @property
    def total_bits(self) -> int:
        """Total storage of the static buffer in bits (all banks)."""
        return self.length * self.word_bits * self.banks

    def covers(self, linear_index: int) -> bool:
        """True if the buffer holds grid element ``linear_index``."""
        return self.start <= linear_index < self.end


@dataclass(frozen=True)
class BufferPlan:
    """Complete buffer configuration for one stencil problem."""

    grid: GridSpec
    stencil: StencilShape
    boundary: BoundarySpec
    stream: StreamBufferSpec
    statics: Tuple[StaticBufferSpec, ...]
    #: The window-served offsets of every range, as one sorted union.
    kept_offsets: Tuple[int, ...]

    # ------------------------------------------------------------------ #
    @property
    def n_static_buffers(self) -> int:
        """Number of static buffers (the structural configuration layer)."""
        return len(self.statics)

    @property
    def static_elements(self) -> int:
        """Total static-buffer elements (single bank, i.e. before doubling)."""
        return sum(s.length for s in self.statics)

    @property
    def static_bits(self) -> int:
        """Total static-buffer bits, including double buffering."""
        return sum(s.total_bits for s in self.statics)

    @property
    def stream_bits(self) -> int:
        """Total stream-buffer bits."""
        return self.stream.total_bits

    @property
    def total_bits(self) -> int:
        """Total on-chip buffer storage in bits."""
        return self.static_bits + self.stream_bits

    @property
    def total_cost_elements(self) -> int:
        """The planner's objective: window reach + static elements (single bank)."""
        return self.stream.reach + self.static_elements

    def static_for(self, linear_index: int) -> Optional[StaticBufferSpec]:
        """Return the static buffer covering ``linear_index``, if any."""
        for s in self.statics:
            if s.covers(linear_index):
                return s
        return None

    def lookup_offsets(self) -> Tuple[int, ...]:
        """All distinct kept (window-served) offsets across ranges."""
        return self.kept_offsets

    def describe(self) -> str:
        """Multi-line human-readable summary of the plan."""
        lines = [
            f"Buffer plan for {self.grid.describe()}",
            f"  stencil     : {self.stencil}",
            f"  boundaries  : {self.boundary.describe()}",
            f"  stream buf  : reach {self.stream.reach}, depth {self.stream.depth} "
            f"elements ({self.stream.total_bits} bits), window "
            f"[{self.stream.window_lo}, {self.stream.window_hi}]",
            f"  static bufs : {self.n_static_buffers}",
        ]
        for s in self.statics:
            lines.append(
                f"    - {s.name}: grid[{s.start}:{s.end}] ({s.length} elements, "
                f"{s.total_bits} bits{', double-buffered' if s.double_buffered else ''})"
            )
        lines.append(f"  total       : {self.total_bits} bits on chip")
        return "\n".join(lines)
