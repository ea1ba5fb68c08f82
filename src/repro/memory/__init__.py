"""Memory substrates: DRAM, block RAM and register files.

The DRAM model is the external memory the paper streams from.  The BRAM and
register-file models give FPGA-like port semantics, but no simulated system
instantiates them: the claim that the hybrid stream buffer never needs more
than one concurrent read per BRAM segment is checked by
:class:`repro.arch.stream_buffer.WindowBuffer`'s per-cycle port accounting.
"""

from repro.memory.dram import DRAMModel, DRAMTiming, DRAMCommand, DRAMResponse
from repro.memory.bram import BRAMModel, PortConflictError
from repro.memory.regfile import RegisterFile

__all__ = [
    "DRAMModel",
    "DRAMTiming",
    "DRAMCommand",
    "DRAMResponse",
    "BRAMModel",
    "PortConflictError",
    "RegisterFile",
]
