"""Arbitrary stencil shapes.

A stencil is a set of relative offsets around a centre element.  The paper's
headline example is a 2D 4-point stencil (north, south, east, west), but the
whole point of Smache is to support *arbitrary* shapes, including asymmetric
ones and ones with very large reaches; :class:`StencilShape` therefore accepts
any finite set of integer offset vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.utils.memo import memoized_repr
from repro.utils.validation import check_positive, check_unique

Offset = Tuple[int, ...]


@memoized_repr
@dataclass(frozen=True)
class StencilShape:
    """A finite set of relative offsets defining a stencil.

    Parameters
    ----------
    offsets:
        Offset vectors relative to the centre element.  The centre ``(0,..,0)``
        may or may not be included — the 4-point averaging filter of the paper
        does not read the centre.
    name:
        Optional label used in reports.
    """

    offsets: Tuple[Offset, ...]
    name: str = "stencil"

    def __post_init__(self) -> None:
        offsets = tuple(tuple(int(c) for c in off) for off in self.offsets)
        if not offsets:
            raise ValueError("a stencil needs at least one offset")
        arity = len(offsets[0])
        for off in offsets:
            if len(off) != arity:
                raise ValueError(f"all offsets must have the same arity, got {offsets!r}")
        check_unique("stencil offsets", offsets)
        object.__setattr__(self, "offsets", offsets)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        """Dimensionality of the stencil's offsets."""
        return len(self.offsets[0])

    @property
    def n_points(self) -> int:
        """Number of points in the stencil."""
        return len(self.offsets)

    @property
    def includes_centre(self) -> bool:
        """True if the all-zero offset is part of the stencil."""
        return tuple([0] * self.ndim) in self.offsets

    def extent(self, dim: int) -> Tuple[int, int]:
        """(min, max) offset along dimension ``dim``."""
        vals = [off[dim] for off in self.offsets]
        return (min(vals), max(vals))

    def radius(self, dim: int) -> int:
        """Largest absolute offset along dimension ``dim``."""
        lo, hi = self.extent(dim)
        return max(abs(lo), abs(hi))

    def linear_offsets(self, strides: Sequence[int]) -> Tuple[int, ...]:
        """Linearise the offsets for a row-major grid with the given strides.

        This is the offset pattern seen by an element in the *interior* of the
        grid; boundary elements get different (resolved) patterns, which is
        exactly what the static-buffer machinery deals with.
        """
        if len(strides) != self.ndim:
            raise ValueError("strides arity does not match stencil dimensionality")
        return tuple(sum(o * s for o, s in zip(off, strides)) for off in self.offsets)

    def interior_reach(self, strides: Sequence[int]) -> int:
        """The reach (max − min linear offset) for an interior element."""
        lin = self.linear_offsets(strides)
        return max(lin) - min(lin)

    def with_centre(self) -> "StencilShape":
        """Return a copy with the centre offset added (if missing)."""
        centre = tuple([0] * self.ndim)
        if centre in self.offsets:
            return self
        return StencilShape(offsets=self.offsets + (centre,), name=self.name)

    # ------------------------------------------------------------------ #
    # predefined shapes
    # ------------------------------------------------------------------ #
    @classmethod
    def four_point_2d(cls) -> "StencilShape":
        """The paper's 4-point stencil: N, S, E, W neighbours (no centre)."""
        return cls(offsets=((-1, 0), (1, 0), (0, -1), (0, 1)), name="4-point")

    @classmethod
    def five_point_2d(cls) -> "StencilShape":
        """Classic 5-point Laplacian stencil (4-point plus centre)."""
        return cls(offsets=((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)), name="5-point")

    @classmethod
    def von_neumann(cls, ndim: int, radius: int = 1, include_centre: bool = True) -> "StencilShape":
        """Von Neumann (diamond) neighbourhood of the given radius."""
        check_positive("radius", radius)
        offsets = []

        def rec(prefix, remaining_dims, budget):
            if remaining_dims == 0:
                offsets.append(tuple(prefix))
                return
            for v in range(-budget, budget + 1):
                rec(prefix + [v], remaining_dims - 1, budget - abs(v))

        rec([], ndim, radius)
        pts = [o for o in offsets if include_centre or any(c != 0 for c in o)]
        return cls(offsets=tuple(pts), name=f"von-neumann-r{radius}-{ndim}d")

    @classmethod
    def moore(cls, ndim: int, radius: int = 1, include_centre: bool = True) -> "StencilShape":
        """Moore (box) neighbourhood of the given radius."""
        check_positive("radius", radius)
        offsets = [()]
        for _ in range(ndim):
            offsets = [o + (v,) for o in offsets for v in range(-radius, radius + 1)]
        pts = [o for o in offsets if include_centre or any(c != 0 for c in o)]
        return cls(offsets=tuple(pts), name=f"moore-r{radius}-{ndim}d")

    @classmethod
    def star_2d(cls, radius: int) -> "StencilShape":
        """Axis-aligned star of the given radius (used in higher-order FD)."""
        check_positive("radius", radius)
        offsets = [(0, 0)]
        for r in range(1, radius + 1):
            offsets += [(-r, 0), (r, 0), (0, -r), (0, r)]
        return cls(offsets=tuple(offsets), name=f"star-r{radius}")

    @classmethod
    def asymmetric_2d(cls) -> "StencilShape":
        """A deliberately asymmetric shape used in tests and examples."""
        return cls(offsets=((0, 0), (-1, 0), (0, 2), (3, -1)), name="asymmetric")

    @classmethod
    def from_offsets(cls, offsets: Iterable[Sequence[int]], name: str = "custom") -> "StencilShape":
        """Build a stencil from an arbitrary iterable of offset vectors."""
        return cls(offsets=tuple(tuple(o) for o in offsets), name=name)

    def __str__(self) -> str:
        return f"{self.name}({self.n_points} points, {self.ndim}D)"
