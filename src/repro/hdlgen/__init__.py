"""HDL generation: automatic creation of a Smache instance from a problem.

The paper's stated key future work is to "completely automate the creation of
the Smache architecture given a problem with a particular stencil shape and
boundary conditions".  This package implements that step for the reproduction:
from a :class:`repro.pipeline.CompiledDesign` (``compile(problem)``) it
emits a synthesisable-style Verilog-2001 skeleton of the Smache front-end —
a parameter header derived from the design's buffer plan, the top-level
module with the window buffer, static buffers and the three controller FSMs,
and a self-checking testbench stub — so the structural layer of the
two-level customisation can be regenerated mechanically.

The generated code mirrors the cycle-accurate Python model structurally (same
buffer sizes, same tap positions, same FSMs); it is intended as a starting
point for hardware integration, not as verified RTL.
"""

from repro.hdlgen.generator import (
    GeneratedProject,
    generate_parameter_header,
    generate_project,
    generate_smache_module,
    generate_testbench,
)

__all__ = [
    "GeneratedProject",
    "generate_parameter_header",
    "generate_smache_module",
    "generate_testbench",
    "generate_project",
]
