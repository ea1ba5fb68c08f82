"""Hybrid register / BRAM partitioning of the stream buffer.

The stream (window) buffer can be realised entirely in registers (the paper's
*Case-R*) or as a hybrid (the paper's *Case-H*): only the window positions
that feed the stencil taps are registers — they must all be readable in the
same cycle — while the stretches of window between taps are plain FIFOs that
only ever need a single sequential read per cycle and can therefore live in
block RAM without inferring extra ports.

The structural accounting used here reproduces the stream-buffer register
counts of Table I:

* register-only: every window slot is a register → ``depth`` registers;
* hybrid: ``2·n_taps + 3`` registers (one register per tap, one transfer
  register where each tap hands off to the neighbouring BRAM FIFO segment,
  plus the input, centre and output pipeline registers), with the remaining
  ``depth − (2·n_taps + 3)`` slots in BRAM FIFO segments.

For the paper's 4-point stencil (4 taps) the hybrid register section is 11
elements regardless of grid size, which is exactly the 352-bit figure in
Table I.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.buffers import BufferPlan, StreamBufferSpec
from repro.utils.validation import check_non_negative


class StreamBufferMode(enum.Enum):
    """How the stream buffer is mapped onto FPGA memory resources."""

    #: Entire window in registers (the paper's Case-R).
    REGISTER_ONLY = "r"
    #: Taps in registers, bulk in BRAM FIFOs (the paper's Case-H).
    HYBRID = "h"
    #: Caller-specified number of register slots (used by DSE sweeps).
    CUSTOM = "custom"


@dataclass(frozen=True)
class HybridPartition:
    """Concrete split of the stream buffer between registers and BRAM."""

    mode: StreamBufferMode
    depth: int
    register_elements: int
    bram_elements: int
    word_bits: int
    n_taps: int
    bram_segments: int

    def __post_init__(self) -> None:
        check_non_negative("register_elements", self.register_elements)
        check_non_negative("bram_elements", self.bram_elements)
        if self.register_elements + self.bram_elements != self.depth:
            raise ValueError(
                "register_elements + bram_elements must equal the window depth "
                f"({self.register_elements} + {self.bram_elements} != {self.depth})"
            )

    @property
    def register_bits(self) -> int:
        """Stream-buffer register bits (the paper's ``Rsm``)."""
        return self.register_elements * self.word_bits

    @property
    def bram_bits(self) -> int:
        """Stream-buffer BRAM bits (the paper's ``Bsm``)."""
        return self.bram_elements * self.word_bits

    @property
    def max_concurrent_bram_reads(self) -> int:
        """Each BRAM FIFO segment needs at most one read per cycle."""
        return 1 if self.bram_segments > 0 else 0

    def describe(self) -> str:
        """One-line summary of the partition."""
        return (
            f"{self.mode.value}: {self.register_elements} register + "
            f"{self.bram_elements} BRAM elements over {self.bram_segments} FIFO segment(s)"
        )


def hybrid_register_slots(n_taps: int) -> int:
    """Register slots used by the hybrid partition for ``n_taps`` stencil taps."""
    check_non_negative("n_taps", n_taps)
    return 2 * n_taps + 3


def partition_stream_buffer(
    stream: StreamBufferSpec,
    n_taps: int,
    mode: StreamBufferMode = StreamBufferMode.HYBRID,
    *,
    register_elements: Optional[int] = None,
) -> HybridPartition:
    """Partition a stream buffer between registers and BRAM.

    Parameters
    ----------
    stream:
        The stream-buffer specification (from a :class:`BufferPlan`).
    n_taps:
        Number of window positions that must be readable concurrently, i.e.
        the number of stencil offsets served by the window (excluding the
        centre, which always has its own pipeline register).
    mode:
        ``REGISTER_ONLY``, ``HYBRID`` or ``CUSTOM``.
    register_elements:
        Required for ``CUSTOM``; ignored otherwise.
    """
    depth = stream.depth
    if mode is StreamBufferMode.REGISTER_ONLY:
        regs = depth
    elif mode is StreamBufferMode.HYBRID:
        regs = min(depth, hybrid_register_slots(n_taps))
    elif mode is StreamBufferMode.CUSTOM:
        if register_elements is None:
            raise ValueError("CUSTOM partition requires register_elements")
        if not (0 <= register_elements <= depth):
            raise ValueError(
                f"register_elements must be in [0, {depth}], got {register_elements}"
            )
        regs = register_elements
    else:  # pragma: no cover - exhaustive over enum
        raise AssertionError(f"unhandled mode {mode}")

    bram = depth - regs
    if bram == 0:
        segments = 0
    else:
        # Between n_taps tap registers there are at most n_taps + 1 stretches of
        # window; in the canonical row-buffer layout the taps split the window
        # into one FIFO segment per full grid row held, which is n_taps - 1 for
        # a symmetric cross stencil.  We bound it by the available BRAM slots.
        segments = max(1, min(n_taps - 1 if n_taps > 1 else 1, bram))
    return HybridPartition(
        mode=mode,
        depth=depth,
        register_elements=regs,
        bram_elements=bram,
        word_bits=stream.word_bits,
        n_taps=n_taps,
        bram_segments=segments,
    )


def partition_for_plan(
    plan: BufferPlan,
    mode: StreamBufferMode = StreamBufferMode.HYBRID,
    *,
    register_elements: Optional[int] = None,
) -> HybridPartition:
    """Partition the stream buffer of a :class:`BufferPlan`.

    The number of taps is the number of distinct window-served offsets of the
    plan, excluding the centre element (offset 0) whose pipeline register is
    part of the fixed overhead.
    """
    kept = set(plan.lookup_offsets())
    kept.discard(0)
    return partition_stream_buffer(
        plan.stream,
        n_taps=len(kept),
        mode=mode,
        register_elements=register_elements,
    )

