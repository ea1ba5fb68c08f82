"""Memory substrate: the external DRAM the paper streams from.

On-chip block RAM has no model of its own: the claim that the hybrid stream
buffer never needs more than one concurrent read per BRAM segment is checked
by :class:`repro.arch.stream_buffer.WindowBuffer`'s per-cycle port
accounting.
"""

from repro.memory.dram import DRAMModel, DRAMTiming, DRAMCommand, DRAMResponse

__all__ = [
    "DRAMModel",
    "DRAMTiming",
    "DRAMCommand",
    "DRAMResponse",
]
