"""Golden (NumPy) execution of stencil computations with arbitrary boundaries.

The executor mirrors the work-instance semantics of the hardware: one *step*
reads every value from iteration ``k`` and writes iteration ``k+1`` (Jacobi /
ping-pong), applying the kernel to the tuple of accesses that exist after
boundary resolution.  The cycle-accurate systems in :mod:`repro.arch` are
validated against these functions element by element.

Vectorized execution
--------------------
Boundary resolution is a pure function of ``(grid, stencil, boundary)`` —
the hardware pre-resolves it once per system for the same reason — so the
executor builds a :class:`GatherPlan` once per triple (LRU-cached).  It
groups grid positions by the one thing :meth:`StencilKernel.apply_batch`
depends on, the tuple of *surviving offsets* (those no open boundary skips),
and gives each group an ``(m, k)`` matrix of absolute indices into a *source
buffer*: the flat grid, then one slot per distinct constant-boundary value.
A wrapped access indexes its target cell and a constant one its slot, so a
step is one NumPy gather plus one ``apply_batch`` call per group — one group
on a fully periodic grid, three on the paper's 11x11 case — instead of
``grid.size`` Python-level resolutions.

The vectorized path is **bit-identical** to the scalar one (enforced by
``tests/reference``): kernels fold operand columns left-to-right, matching
the sequential reduction order of their scalar ``apply``, and constant slots
are keyed by bit pattern, so ``-0.0`` and ``0.0`` stay distinct.
:func:`reference_step_scalar` keeps the original per-cell loop as the
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.boundary import BoundarySpec, ResolutionKind
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.reference.kernels import StencilKernel


# --------------------------------------------------------------------------- #
# gather plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GatherGroup:
    """All grid positions sharing one tuple of surviving offsets."""

    #: Linear indices of the member positions, ascending.
    rows: np.ndarray
    #: The common offsets of the surviving accesses, in resolution order.
    offsets: Tuple[Tuple[int, ...], ...]
    #: ``(m, k)`` gather indices into the source buffer (grid, then slots).
    index: np.ndarray


@dataclass(frozen=True)
class GatherPlan:
    """Precomputed vectorized execution plan for one (grid, stencil, boundary)."""

    size: int
    #: Constant-boundary values: slot ``i`` is ``size + i`` in a source buffer.
    constants: Tuple[float, ...]
    groups: Tuple[GatherGroup, ...]

    def execute(self, source: np.ndarray, kernel: StencilKernel, out: np.ndarray) -> None:
        """Apply ``kernel`` over every position of ``source``, writing ``out[:size]``."""
        for group in self.groups:
            out[group.rows] = kernel.apply_batch(group.offsets, source[group.index])


def build_gather_plan(
    grid: GridSpec, stencil: StencilShape, boundary: BoundarySpec
) -> GatherPlan:
    """Resolve every position once and group by surviving offsets."""
    slots: Dict[bytes, int] = {}
    constants: List[float] = []
    buckets: Dict[Tuple, Tuple[List[int], List[List[int]]]] = {}
    for linear in range(grid.size):
        centre = grid.coord(linear)
        offsets: List[Tuple[int, ...]] = []
        indices: List[int] = []
        for point in boundary.resolve_stencil(grid, centre, stencil):
            if point.kind is ResolutionKind.SKIPPED:
                continue
            if point.kind is ResolutionKind.CONSTANT:
                value = float(point.constant_value)
                # keyed by bit pattern: as floats, -0.0 == 0.0 and nan != nan
                key = np.float64(value).tobytes()
                if key not in slots:
                    slots[key] = len(constants)
                    constants.append(value)
                indices.append(grid.size + slots[key])
            else:
                indices.append(point.linear_index)
            offsets.append(point.offset)
        rows, index = buckets.setdefault(tuple(offsets), ([], []))
        rows.append(linear)
        index.append(indices)
    groups = tuple(
        GatherGroup(
            rows=np.asarray(rows, dtype=np.intp),
            offsets=offsets,
            index=np.asarray(index, dtype=np.intp).reshape(len(rows), len(offsets)),
        )
        for offsets, (rows, index) in buckets.items()
    )
    return GatherPlan(size=grid.size, constants=tuple(constants), groups=groups)


@lru_cache(maxsize=64)
def _cached_plan(
    grid: GridSpec, stencil: StencilShape, boundary: BoundarySpec, constant: bytes
) -> GatherPlan:
    return build_gather_plan(grid, stencil, boundary)


def gather_plan(grid: GridSpec, stencil: StencilShape, boundary: BoundarySpec) -> GatherPlan:
    """The memoized plan, keyed by the frozen specs and the constant's bits.

    Specs that differ only in a ``0.0`` or ``-0.0`` constant compare equal.
    """
    constant = np.float64(boundary.constant_value).tobytes()
    return _cached_plan(grid, stencil, boundary, constant)


def clear_gather_plan_cache() -> None:
    """Drop every cached gather plan (benchmarks measuring cold builds)."""
    _cached_plan.cache_clear()


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def _check_input(array: np.ndarray, grid: GridSpec) -> np.ndarray:
    array = np.asarray(array, dtype=np.float64)
    if array.shape != grid.shape:
        raise ValueError(f"array shape {array.shape} does not match grid {grid.shape}")
    return array


def reference_step(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
) -> np.ndarray:
    """Apply one work-instance of the stencil kernel to ``array``.

    ``array`` must have the grid's shape; the returned array is a new
    allocation (Jacobi semantics — no in-place update).  Uses the vectorized
    gather-plan path; :func:`reference_step_scalar` is the per-cell original,
    bit-identical by construction.
    """
    return reference_run(array, grid, stencil, boundary, kernel, iterations=1)


def reference_step_scalar(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
) -> np.ndarray:
    """The original per-cell executor (the vectorized path's cross-check)."""
    array = _check_input(array, grid)
    flat = array.reshape(-1)
    out = np.empty_like(flat)

    for linear in range(grid.size):
        centre = grid.coord(linear)
        offsets = []
        values = []
        for point in boundary.resolve_stencil(grid, centre, stencil):
            if point.kind is ResolutionKind.SKIPPED:
                continue
            if point.kind is ResolutionKind.CONSTANT:
                offsets.append(point.offset)
                values.append(float(point.constant_value))
            else:
                offsets.append(point.offset)
                values.append(float(flat[point.linear_index]))
        out[linear] = kernel.apply(offsets, values)
    return out.reshape(grid.shape)


def reference_run(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
    iterations: int = 1,
) -> np.ndarray:
    """Apply ``iterations`` work-instances (ping-pong between two buffers).

    The gather plan is built (or fetched from the cache) once and reused for
    every iteration — index construction happens once per
    (grid, stencil, boundary), not once per step.  Both source buffers hold
    the plan's constant slots after the grid, so a step writes only the grid
    part of the other; the result is a fresh grid-shaped array.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    current = _check_input(array, grid)
    if iterations == 0:
        return current.copy()
    plan = gather_plan(grid, stencil, boundary)
    source = np.concatenate((current.reshape(-1), plan.constants))
    out = source.copy()
    for _ in range(iterations):
        plan.execute(source, kernel, out)
        source, out = out, source
    return source[: plan.size].reshape(grid.shape).copy()


def make_test_grid(grid: GridSpec, seed: Optional[int] = 0, kind: str = "ramp") -> np.ndarray:
    """Generate a deterministic input grid for validation and benchmarking.

    ``kind`` selects the pattern: ``"ramp"`` (0, 1, 2, ... which makes index
    mix-ups visible), ``"random"`` (uniform in [0, 1)), or ``"impulse"`` (a
    single 1.0 in the centre, useful for watching boundary wrap-around).
    """
    if kind == "ramp":
        return np.arange(grid.size, dtype=np.float64).reshape(grid.shape)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return rng.random(grid.shape)
    if kind == "impulse":
        data = np.zeros(grid.shape, dtype=np.float64)
        data[tuple(s // 2 for s in grid.shape)] = 1.0
        return data
    raise ValueError(f"unknown test-grid kind {kind!r}")
