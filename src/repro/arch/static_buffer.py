"""Double-buffered static buffers with write-through.

A static buffer holds a *fixed* set of grid elements (in the paper's
validation case: the top row and the bottom row of the grid).  It is double
buffered:

* the **read bank** holds those elements for the work-instance currently
  streaming (i.e. values of grid ``k``);
* the **write bank** is filled transparently, via write-through from the
  kernel output, with the same elements of grid ``k+1`` as they are produced.

At the end of every work-instance the banks swap, so the next instance finds
its boundary data already on chip without touching DRAM — only the very first
instance needs a warm-up prefetch (FSM-1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.buffers import StaticBufferSpec


class StaticBufferError(RuntimeError):
    """Access outside the buffer's coverage or protocol misuse."""


class StaticBufferHW:
    """Hardware model of one double-buffered static buffer."""

    def __init__(self, spec: StaticBufferSpec) -> None:
        self.spec = spec
        self._banks = [
            np.zeros(spec.length, dtype=np.float64),
            np.zeros(spec.length, dtype=np.float64),
        ]
        self._read_bank = 0
        self._prefetch_fill = 0
        # statistics
        self.reads = 0
        self.writes = 0
        self.swaps = 0
        self.prefetched_words = 0

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The buffer's name (from its specification)."""
        return self.spec.name

    @property
    def write_bank_index(self) -> int:
        """Index of the bank currently being written through."""
        return 1 - self._read_bank if self.spec.double_buffered else self._read_bank

    def covers(self, linear_index: int) -> bool:
        """True if the buffer holds grid element ``linear_index``."""
        return self.spec.covers(linear_index)

    # ------------------------------------------------------------------ #
    # FSM-1: warm-up prefetch
    # ------------------------------------------------------------------ #
    def prefetch_word(self, value: float) -> None:
        """Append one prefetched word into the read bank (in element order)."""
        if self._prefetch_fill >= self.spec.length:
            raise StaticBufferError(
                f"static buffer '{self.name}' prefetch overflow "
                f"({self.spec.length} elements)"
            )
        self._banks[self._read_bank][self._prefetch_fill] = value
        self._prefetch_fill += 1
        self.prefetched_words += 1

    @property
    def prefetch_fill(self) -> int:
        """Words prefetched into the read bank since the last (re)start."""
        return self._prefetch_fill

    @property
    def prefetch_complete(self) -> bool:
        """True once the warm-up prefetch has filled the read bank."""
        return self._prefetch_fill >= self.spec.length

    def begin_prefetch(self) -> None:
        """Restart the prefetch fill pointer (used when write-through is disabled
        and the buffer must be re-loaded from DRAM every work-instance)."""
        self._prefetch_fill = 0

    def load_read_bank(self, values: Sequence[float]) -> None:
        """Directly load the read bank (test helper, no cycle cost)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != self.spec.length:
            raise StaticBufferError(
                f"static buffer '{self.name}' expects {self.spec.length} values, got {values.size}"
            )
        self._banks[self._read_bank][:] = values
        self._prefetch_fill = self.spec.length

    # ------------------------------------------------------------------ #
    # FSM-2: reads during tuple assembly
    # ------------------------------------------------------------------ #
    def read(self, linear_index: int) -> float:
        """Read a grid element from the read bank."""
        if not self.covers(linear_index):
            raise StaticBufferError(
                f"static buffer '{self.name}' does not cover grid element {linear_index}"
            )
        self.reads += 1
        return float(self._banks[self._read_bank][linear_index - self.spec.start])

    # ------------------------------------------------------------------ #
    # FSM-3: write-through from the kernel output
    # ------------------------------------------------------------------ #
    def capture(self, linear_index: int, value: float) -> bool:
        """Write-through one kernel result; returns True if it was captured."""
        if not self.covers(linear_index):
            return False
        self._banks[self.write_bank_index][linear_index - self.spec.start] = value
        self.writes += 1
        return True

    # ------------------------------------------------------------------ #
    def swap(self) -> None:
        """Swap read and write banks (end of a work-instance)."""
        if self.spec.double_buffered:
            self._read_bank = 1 - self._read_bank
        self.swaps += 1

    def read_bank_snapshot(self) -> np.ndarray:
        """Copy of the current read bank (tests / debugging)."""
        return self._banks[self._read_bank].copy()

    def write_bank_snapshot(self) -> np.ndarray:
        """Copy of the current write bank (tests / debugging)."""
        return self._banks[self.write_bank_index].copy()

    def reset(self) -> None:
        """Clear both banks and all statistics."""
        for bank in self._banks:
            bank[:] = 0.0
        self._read_bank = 0
        self._prefetch_fill = 0
        self.reads = 0
        self.writes = 0
        self.swaps = 0
        self.prefetched_words = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticBufferHW({self.name!r}, grid[{self.spec.start}:{self.spec.end}], "
            f"{'double' if self.spec.double_buffered else 'single'}-buffered)"
        )
