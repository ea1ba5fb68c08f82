"""Design-space exploration over Smache buffer configurations.

The paper motivates its memory cost model with design-space exploration
(DSE): because the hybrid stream buffer lets the designer trade BRAM bits
against registers, a tool (or a human) can pick the mapping that fits the
resources left over by the computation kernel and the shell.  This package
provides that exploration loop: sweep candidate register/BRAM partitions
(and, optionally, problem sizes), compile each candidate problem (plan, cost
model and synthesis estimate), check it against a device, and pick the best
one under a caller-supplied objective.
"""

from repro.dse.objectives import (
    minimise_bram_bits,
    minimise_registers,
    minimise_total_memory_bits,
    weighted_balance,
)
from repro.dse.explorer import (
    DesignPoint,
    PerformancePoint,
    PerformanceSweep,
    explore_grid_sizes,
    explore_partitions,
    pareto_front,
    performance_pareto_front,
    select_best,
)

__all__ = [
    "DesignPoint",
    "PerformancePoint",
    "PerformanceSweep",
    "explore_partitions",
    "explore_grid_sizes",
    "pareto_front",
    "performance_pareto_front",
    "select_best",
    "minimise_bram_bits",
    "minimise_registers",
    "minimise_total_memory_bits",
    "weighted_balance",
]
