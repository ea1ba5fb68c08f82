"""The paper's primary contribution: the Smache formal model and planner.

This subpackage contains everything that is *architecture-independent*: the
description of grids, stencils and boundary conditions; the formal
stream/tuple/range/reach model of Section II; the buffer-configuration
planner (Algorithm 1); the hybrid register/BRAM partitioning of the stream
buffer; and the memory-resource cost model used for design-space
exploration (Table I estimates).

The cycle-accurate hardware realisation of a plan lives in ``repro.arch``.
"""

from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour, ResolvedPoint
from repro.core.access import StreamTuple, tuple_for, reach_of, stream_tuples
from repro.core.ranges import StreamRange, partition_into_ranges, classify_cases
from repro.core.buffers import StreamBufferSpec, StaticBufferSpec, BufferPlan
from repro.core.planner import plan_buffers, optimal_split_for_range
from repro.core.partition import HybridPartition, StreamBufferMode, partition_stream_buffer
from repro.core.cost_model import MemoryCostEstimate, estimate_memory_cost

__all__ = [
    "GridSpec",
    "IterationPattern",
    "StencilShape",
    "BoundaryKind",
    "BoundarySpec",
    "EdgeBehaviour",
    "ResolvedPoint",
    "StreamTuple",
    "tuple_for",
    "reach_of",
    "stream_tuples",
    "StreamRange",
    "partition_into_ranges",
    "classify_cases",
    "StreamBufferSpec",
    "StaticBufferSpec",
    "BufferPlan",
    "plan_buffers",
    "optimal_split_for_range",
    "HybridPartition",
    "partition_stream_buffer",
    "StreamBufferMode",
    "MemoryCostEstimate",
    "estimate_memory_cost",
]
