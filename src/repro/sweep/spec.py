"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole problem space once — grid sizes ×
stencils × buffer partitions × reach constraints × backends × systems — and
:meth:`SweepSpec.expand` turns it into concrete :class:`SweepPoint`\\ s, each
a fully self-contained, picklable unit of work (problem + backend + request).

Every point carries a *stable key*: a content hash over everything the
evaluation depends on.  The key is what makes campaigns resumable (a JSONL
checkpoint records completed keys, see :mod:`repro.sweep.checkpoint`) and
deterministic (serial and parallel runs sort records by the same keys).  The
spec itself has a :meth:`SweepSpec.fingerprint` so a checkpoint can refuse to
resume a different campaign under the same file name.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import EvaluationRequest
from repro.pipeline.problem import StencilProblem


def _digest(payload: str, length: int = 16) -> str:
    """A short, process-stable hex digest of a canonical string."""
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:length]


def fingerprint_points(name: str, points: Sequence["SweepPoint"]) -> str:
    """Digest of a campaign (name + every point key), for checkpoint headers.

    Callers that already hold the expanded point list use this directly
    instead of :meth:`SweepSpec.fingerprint` to avoid re-expanding the spec.
    """
    payload = "\n".join(p.key() for p in points)
    return _digest(f"{name}\n{payload}")


@dataclass(frozen=True)
class SweepPoint:
    """One unit of campaign work: evaluate one problem with one backend."""

    problem: StencilProblem
    backend: str = "analytic"
    request: EvaluationRequest = field(default_factory=EvaluationRequest)
    #: Successive-halving rung (0 for single-stage strategies).
    rung: int = 0
    #: Report label; defaults to the problem's name.
    label: Optional[str] = None

    @property
    def display_label(self) -> str:
        """The label shown in reports and records."""
        return self.label if self.label is not None else self.problem.name

    def key(self) -> str:
        """Stable content key identifying this evaluation across processes.

        Built from dataclass ``repr``\\ s (the problem's name and its
        ``cache_key()`` string), which are deterministic, unlike ``hash()``.
        A request-supplied input grid contributes its raw bytes, not its
        (truncated) repr.  Memoized on the (frozen) point: a campaign asks
        for each key several times.
        """
        key = self.__dict__.get("_key")
        if key is not None:
            return key
        req = self.request
        grid_digest = ""
        if req.input_grid is not None:
            grid_digest = hashlib.sha1(np.ascontiguousarray(req.input_grid).tobytes()).hexdigest()
        payload = "|".join(
            (
                self.problem.name,
                self.problem.cache_key(),
                self.backend,
                req.system,
                str(req.iterations),
                repr(req.kernel),
                repr(req.dram_timing),
                str(req.write_through),
                req.input_kind,
                grid_digest,
                str(req.max_cycles),
                str(self.rung),
            )
        )
        key = _digest(payload)
        object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class SweepSpec:
    """A declarative problem space that expands to :class:`SweepPoint`\\ s.

    Axes default to "keep the base problem's value"; every supplied axis
    multiplies the space.  Alternatively pass an explicit ``problems`` list
    (the unification seam for :meth:`repro.api.Workbench.explore`-style
    sweeps), in which case the per-problem axes are ignored.
    """

    name: str = "campaign"
    base: Optional[StencilProblem] = None
    problems: Optional[Tuple[StencilProblem, ...]] = None
    grid_sizes: Optional[Tuple[Tuple[int, ...], ...]] = None
    stencils: Optional[Tuple[StencilShape, ...]] = None
    modes: Optional[Tuple[StreamBufferMode, ...]] = None
    max_stream_reaches: Optional[Tuple[Optional[int], ...]] = None
    backends: Tuple[str, ...] = ("analytic",)
    systems: Tuple[str, ...] = ("smache",)
    iterations: int = 1
    dram_timing: Optional[DRAMTiming] = None
    write_through: bool = True

    def __post_init__(self) -> None:
        if self.base is None and not self.problems:
            raise ValueError("SweepSpec needs a base problem or an explicit problem list")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        for axis in ("problems", "grid_sizes", "stencils", "modes",
                     "max_stream_reaches", "backends", "systems"):
            value = getattr(self, axis)
            if value is not None:
                object.__setattr__(self, axis, tuple(value))
        if self.grid_sizes is not None:
            object.__setattr__(
                self, "grid_sizes", tuple(tuple(int(s) for s in g) for g in self.grid_sizes)
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_problems(
        cls,
        problems: Sequence[StencilProblem],
        name: str = "campaign",
        **kwargs,
    ) -> "SweepSpec":
        """Wrap an explicit problem list as a spec (names must be unique)."""
        return cls(name=name, problems=tuple(problems), **kwargs)

    # ------------------------------------------------------------------ #
    def _expand_problems(self) -> List[StencilProblem]:
        if self.problems is not None:
            return list(self.problems)
        out = []
        grids = self.grid_sizes or (self.base.grid.shape,)
        stencils = self.stencils or (self.base.stencil,)
        modes = self.modes or (self.base.mode,)
        reaches = self.max_stream_reaches or (self.base.max_stream_reach,)
        for shape, stencil, mode, reach in itertools.product(grids, stencils, modes, reaches):
            parts = [self.name, "x".join(str(s) for s in shape)]
            if len(stencils) > 1:
                parts.append(stencil.name)
            if len(modes) > 1:
                parts.append(mode.value)
            if len(reaches) > 1:
                parts.append(f"reach-{reach if reach is not None else 'inf'}")
            out.append(
                replace(
                    self.base,
                    grid=type(self.base.grid)(
                        shape=shape, word_bytes=self.base.grid.word_bytes
                    ),
                    stencil=stencil,
                    mode=mode,
                    max_stream_reach=reach,
                    name="-".join(parts),
                )
            )
        return out

    def expand(self) -> List[SweepPoint]:
        """The concrete points of the campaign, in deterministic order."""
        request_base = dict(
            iterations=self.iterations,
            dram_timing=self.dram_timing,
            write_through=self.write_through,
        )
        points = []
        for problem in self._expand_problems():
            for backend in self.backends:
                for system in self.systems:
                    points.append(
                        SweepPoint(
                            problem=problem,
                            backend=backend,
                            request=EvaluationRequest(system=system, **request_base),
                        )
                    )
        return points

    @property
    def size(self) -> int:
        """Number of points the spec expands to."""
        return len(self.expand())

    def fingerprint(self) -> str:
        """A stable digest of the whole spec, written to checkpoint headers."""
        return fingerprint_points(self.name, self.expand())

    def describe(self) -> str:
        """One-line summary used in reports and checkpoint headers."""
        points = self.expand()
        backends = ",".join(self.backends)
        return f"{self.name}: {len(points)} points, backends [{backends}]"


def smoke_spec(name: str = "smoke", iterations: int = 2) -> SweepSpec:
    """A small built-in campaign used by the CLI default and CI smoke runs."""
    return SweepSpec(
        name=name,
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=((11, 11), (16, 16), (24, 24)),
        max_stream_reaches=(0, 4, None),
        modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
        backends=("analytic",),
        iterations=iterations,
    )


def _parse_grid_list(text: str) -> Tuple[Tuple[int, ...], ...]:
    """Parse ``"11x11,16x16"`` into grid shapes (CLI helper)."""
    grids = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            grids.append(tuple(int(s) for s in chunk.lower().split("x")))
    if not grids:
        raise ValueError(f"no grid sizes in {text!r}")
    return tuple(grids)


def _parse_reach_list(text: str) -> Tuple[Optional[int], ...]:
    """Parse ``"0,4,none"`` into reach constraints (CLI helper)."""
    reaches: List[Optional[int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        if not chunk:
            continue
        reaches.append(None if chunk in ("none", "inf") else int(chunk))
    if not reaches:
        raise ValueError(f"no reach values in {text!r}")
    return tuple(reaches)
