"""Memory substrates: DRAM and block RAM.

The DRAM model is the external memory the paper streams from.  The BRAM
model gives FPGA-like port semantics, but no simulated system instantiates
it: the claim that the hybrid stream buffer never needs more than one
concurrent read per BRAM segment is checked by
:class:`repro.arch.stream_buffer.WindowBuffer`'s per-cycle port accounting.
"""

from repro.memory.dram import DRAMModel, DRAMTiming, DRAMCommand, DRAMResponse
from repro.memory.bram import BRAMModel, PortConflictError

__all__ = [
    "DRAMModel",
    "DRAMTiming",
    "DRAMCommand",
    "DRAMResponse",
    "BRAMModel",
    "PortConflictError",
]
