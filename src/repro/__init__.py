"""Smache reproduction: smart-caching for arbitrary stencils and boundaries on FPGAs.

This package reproduces, in pure Python, the system described in

    Nabi & Vanderbauwhede, "Smart-Cache: Optimising Memory Accesses for
    Arbitrary Boundaries and Stencils on FPGAs", RAW @ IPDPS 2019.

The package is organised as:

``repro.core``
    The paper's primary contribution: the formal stream/static buffering
    model, the buffer-configuration planner (Algorithm 1), the hybrid
    register/BRAM partitioning and the memory-resource cost model.

``repro.sim``
    A cycle-accurate, clocked simulation engine (components, channels,
    FSMs) used to model the hardware prototypes.

``repro.memory``
    The external memory substrate: DRAM (streaming vs random access).

``repro.arch``
    The Smache micro-architecture (stream buffer, double-buffered static
    buffers, controller FSMs, kernels) and the no-buffering baseline.

``repro.fpga``
    FPGA device/resource models and the analytical synthesis estimator
    (ALMs, registers, BRAM bits, Fmax).

``repro.reference``
    NumPy golden models used to validate the simulated hardware.

``repro.pipeline``
    The compilation pipeline: a single problem spec, a memoized
    ``compile()`` step and pluggable evaluation backends (cycle-accurate
    simulation, NumPy reference, closed-form analytic model, cost/HDL).

``repro.dse``
    Design-space exploration over buffer configurations and whole
    problems (fast analytic sweeps with Pareto-front re-simulation).

``repro.sweep``
    The parallel sweep engine: declarative campaign specs, serial and
    process-pool runners (cost-balanced chunks), a typed run-event
    stream with pluggable observers, resumable JSONL checkpoints
    (compaction, live ``--follow`` tailing) and adaptive search
    strategies.

``repro.api``
    The unified experiment API: the session-scoped :class:`Workbench`
    owning the plan cache, backends, runner policy and observers, with
    fluent problem/sweep builders.

``repro.eval``
    The experiment harness regenerating every table and figure of the
    paper's evaluation section.
"""

from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.partition import StreamBufferMode
from repro.core.planner import plan_buffers
from repro.core.cost_model import MemoryCostEstimate, estimate_memory_cost
from repro.pipeline import (
    CompiledDesign,
    EvaluationRequest,
    EvaluationResult,
    StencilProblem,
    compile,
    evaluate,
)
from repro.sweep import CampaignResult, SweepSpec
from repro.api import Workbench

__all__ = [
    "Workbench",
    "CampaignResult",
    "SweepSpec",
    "CompiledDesign",
    "EvaluationRequest",
    "EvaluationResult",
    "StencilProblem",
    "compile",
    "evaluate",
    "GridSpec",
    "IterationPattern",
    "StencilShape",
    "BoundaryKind",
    "BoundarySpec",
    "EdgeBehaviour",
    "StreamBufferMode",
    "plan_buffers",
    "MemoryCostEstimate",
    "estimate_memory_cost",
]

__version__ = "1.0.0"
