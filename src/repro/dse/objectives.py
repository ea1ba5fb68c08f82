"""Objective functions for design-space exploration.

Each objective maps a :class:`repro.dse.explorer.DesignPoint` to a scalar
score where *smaller is better*; :func:`repro.dse.explorer.select_best` simply
minimises the score over the feasible points.
"""

from __future__ import annotations

from typing import Callable

Objective = Callable[["DesignPoint"], float]  # noqa: F821 - documented forward ref


def minimise_bram_bits(point) -> float:
    """Prefer the configuration using the fewest BRAM bits."""
    return float(point.design.cost.b_total_bits)


def minimise_registers(point) -> float:
    """Prefer the configuration using the fewest register bits."""
    return float(point.design.cost.r_total_bits)


def minimise_total_memory_bits(point) -> float:
    """Prefer the configuration using the least on-chip memory overall."""
    return float(point.design.cost.total_bits)


def weighted_balance(register_weight: float = 1.0, bram_weight: float = 1.0) -> Objective:
    """Weighted combination of register and BRAM usage.

    The weights express how scarce each resource is on the target device for
    the surrounding design (e.g. a kernel that is register-hungry should pass
    a larger ``register_weight``).
    """
    if register_weight < 0 or bram_weight < 0:
        raise ValueError("weights must be non-negative")

    def objective(point) -> float:
        cost = point.design.cost
        return register_weight * cost.r_total_bits + bram_weight * cost.b_total_bits

    return objective


def maximise_fmax(point) -> float:
    """Prefer the configuration with the highest estimated clock frequency."""
    return -float(point.design.synthesis.fmax_mhz)
