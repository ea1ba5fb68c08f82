"""Vectorized analytic pricing: thousands of sweep points per NumPy call.

The closed-form model of :mod:`repro.pipeline.analytic` already prices one
design in microseconds, but a broad campaign calls it once per point, so the
sweep's wall clock is dominated by per-point Python overhead — attribute
walks, dict building, the interpreter loop — not by the model's arithmetic.
This module applies the gather-plan idiom of
:mod:`repro.reference.stencil_exec` to pricing itself:

* **group** a batch of ``(CompiledDesign, EvaluationRequest)`` pairs by
  system; everything else (grid, plan, timing, write policy, instance
  count, kernel) varies freely within a group;

* **pack** each design's knobs (:func:`~repro.pipeline.analytic.design_knobs`,
  memoized in a bounded :class:`~repro.pipeline.cache.PlanCache`: the
  Smache knobs once per design, the baseline knobs once per range
  partition) into int64 columns, so
  re-pricing a design space touches no plan objects at all;

* **fold** the system's terms over the columns: the
  :func:`~repro.pipeline.analytic.smache_terms` /
  :func:`~repro.pipeline.analytic.baseline_terms` that the scalar backend
  calls with Python ints.

On top of the per-call grouping sits a **packed-session cache**
(:meth:`AnalyticBatchEngine.price_batch`): a bounded identity-keyed memo of
whole batches.  When the same problem list is priced again — a
:class:`~repro.api.Workbench` session re-pricing its space under new
timings, instance counts or write policies — compilation, knob extraction
and grouping are all skipped: the cached design-side columns are folded
against the new request, so a warm re-price is pure array arithmetic plus
result construction.  The cache key is the identity of the problem objects
(plus the plan cache in use), which is sound because every entry holds
strong references to exactly those objects: a key can only match while the
original problems are alive and unchanged (they are frozen dataclasses).
A **fold memo** keeps the fold's outputs per session and request operands,
so an identical re-price skips the array work too.  The knob, session and
fold caches are all bounded :class:`~repro.pipeline.cache.PlanCache` LRUs.

Both paths evaluate one formula in the same IEEE operations on the same
values, so results are **bitwise-equal per point** to the scalar backend,
including the exact ``detail`` int/float types that canonical campaign JSON
serialises.  ``tests/pipeline/test_analytic_batch.py`` checks both against
an independent literal form of the model kept in the test suite;
``tests/sweep`` holds campaign output byte-identical between scalar and
vectorized pricing.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.analytic import (
    DEFAULT_TIMING,
    DETAIL_FIELDS,
    TERMS,
    PerformancePrediction,
    design_knobs,
)
from repro.pipeline.backends import EvaluationRequest, EvaluationResult
from repro.pipeline.cache import PlanCache, plan_cache
from repro.pipeline.compile import CompiledDesign, compile_batch

#: One batch item: an already-compiled design and the request to price it on.
PricingItem = Tuple[CompiledDesign, EvaluationRequest]

#: Fold memo entries per packed session the engine may hold.
_MAX_FOLDS_PER_SESSION = 16


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


# --------------------------------------------------------------------------- #
# packed columns and the fold
# --------------------------------------------------------------------------- #
class Cols(NamedTuple):
    """Design-side columns of one system's rows (request-independent).

    ``knobs`` is the system's knob tuple with every field an int64 column; a
    per-instance field is a ``(3, m)`` matrix whose row ``i`` is instance
    ``i``, as item ``i`` is in one design's knobs.
    """

    system: str
    indices: Tuple[int, ...]
    designs: Tuple[CompiledDesign, ...]
    knobs: Any
    kernel_latency: np.ndarray  # the problems' effective kernels
    kernel_ops: np.ndarray


# --------------------------------------------------------------------------- #
# result assembly
# --------------------------------------------------------------------------- #
class Lists(NamedTuple):
    """A group's fold outputs as native-typed Python lists.

    ``ndarray.tolist()`` converts int64 to ``int`` and float64 to ``float``
    exactly, so these carry the same native values the scalar path produces
    (canonical JSON depends on the types).  ``details`` holds one detail
    dict per row, which the assembler copies for every result.  Pure data —
    safe to memoize per request signature and share across calls.
    """

    cycles: list
    words_read: list
    words_written: list
    dram_bytes: list
    operations: list
    grid_points: list
    details: list


def _fold(
    cols: Cols, it, swc, rac, read_latency, write_through, kernel_latency, kernel_ops
) -> Lists:
    """The system's terms over the columns, as native lists.

    Each request operand is an int64 column or, for a packed session's one
    request, a Python scalar shared by every row; a term that depends on
    such scalars alone comes back as a scalar and is repeated per row.
    ``None`` kernel operands fold the columns' own kernels.
    """
    if kernel_latency is None:
        kernel_latency, kernel_ops = cols.kernel_latency, cols.kernel_ops
    terms = TERMS[cols.system](
        cols.knobs, it, swc, rac, read_latency, write_through, kernel_latency, kernel_ops
    )
    m = len(cols.indices)

    def native(value) -> list:
        return value.tolist() if isinstance(value, np.ndarray) else [value] * m

    keys = DETAIL_FIELDS[cols.system]
    return Lists(
        *map(native, terms[:5]),
        cols.knobs.n.tolist(),
        [dict(zip(keys, row)) for row in zip(*map(native, terms.detail))],
    )


# The assembler constructs result objects with ``object.__new__`` + a
# ``__dict__`` literal instead of the dataclass ``__init__`` — field-for-field
# identical to what the scalar :class:`AnalyticBackend` builds, but skipping
# the per-field interpreter work that would otherwise dominate a
# thousand-point warm re-price.  It scatters straight into ``out`` at the
# group's indices, so the group→input permutation happens exactly once.
def _assemble(
    out: List[Optional[EvaluationResult]],
    cols: Cols,
    lists: Lists,
    iterations: List[int],
    with_artifacts: bool,
) -> None:
    new = object.__new__
    result_cls = EvaluationResult
    prediction_cls = PerformancePrediction
    set_frozen = object.__setattr__
    system = cols.system
    for index, design, it, cyc, wr, ww, db, ops, npts, template in zip(
        cols.indices, cols.designs, iterations, *lists
    ):
        detail = template.copy()
        if with_artifacts:
            prediction = new(prediction_cls)
            # Frozen dataclass: route around __setattr__ like replace() does.
            set_frozen(prediction, "__dict__", {
                "system": system,
                "cycles": cyc,
                "iterations": it,
                "grid_points": npts,
                "dram_words_read": wr,
                "dram_words_written": ww,
                "dram_bytes": db,
                "operations": ops,
                "detail": detail,
            })
            artifacts = {"prediction": prediction}
            extra = template.copy()
        else:
            artifacts = {}
            extra = detail
        result = new(result_cls)
        result.__dict__ = {
            "backend": "analytic",
            "system": system,
            "design": design,
            "iterations": it,
            "cycles": cyc,
            "dram_words_read": wr,
            "dram_words_written": ww,
            "dram_bytes": db,
            "operations": ops,
            "output": None,
            "extra": extra,
            "perf": {},
            "artifacts": artifacts,
        }
        out[index] = result


class EngineCacheInfo(NamedTuple):
    """Counters of an :class:`AnalyticBatchEngine`'s three cache layers.

    The first four fields mirror :class:`~repro.pipeline.cache.CacheInfo`
    exactly (they are the knob cache's counters, see
    :meth:`AnalyticBatchEngine.knobs_for` for its keys), so existing consumers of the engine's ``cache_info()``
    keep reading the same numbers; the remaining fields expose the
    packed-session LRU and the fold memo, which is what a long-running
    serving layer watches (`/stats` surfaces this whole tuple).  Every field
    is read from one of the engine's three
    :class:`~repro.pipeline.cache.PlanCache` instances.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    session_hits: int
    session_misses: int
    session_evictions: int
    session_maxsize: int
    session_currsize: int
    fold_hits: int
    fold_misses: int

    @property
    def session_hit_rate(self) -> float:
        """Fraction of ``price_batch`` calls answered by a packed session."""
        lookups = self.session_hits + self.session_misses
        return self.session_hits / lookups if lookups else 0.0

    @property
    def fold_hit_rate(self) -> float:
        """Fraction of session folds answered by the fold memo."""
        lookups = self.fold_hits + self.fold_misses
        return self.fold_hits / lookups if lookups else 0.0


class _SessionEntry:
    """One packed batch: strong refs pin the identity keys, columns persist."""

    __slots__ = ("problems", "cache", "designs", "serial", "packed")

    def __init__(self, problems, cache, designs, serial: int) -> None:
        self.problems = problems
        self.cache = cache
        self.designs = designs
        #: Never reused within an engine, unlike ``id()`` of a dead session,
        #: so a fold memoized for an evicted session is never served again.
        self.serial = serial
        #: Per system: the packed design-side columns.
        self.packed: Dict[str, Cols] = {}


class AnalyticBatchEngine:
    """Prices batches of analytic requests through the vectorized folds.

    One engine holds a bounded knob cache, a bounded packed-session cache
    and a bounded fold memo (three :class:`~repro.pipeline.cache.PlanCache`
    instances); the process-wide instance lives on the registered
    :class:`~repro.pipeline.backends.AnalyticBackend`, whose single
    evaluations read the same knob cache, and a :class:`~repro.api.Workbench`
    session keeps its own so repeated ``evaluate_batch`` calls reuse the
    packed columns.  One engine may be shared by every connection of the
    evaluation service (:mod:`repro.serve`); the caches are thread-safe, and
    packing and folds run outside their locks (when two threads race, the
    loser adopts the winner's entry).
    """

    def __init__(self, max_entries: int = 1024, max_sessions: int = 32) -> None:
        self._knobs = PlanCache(max_entries=max_entries)
        self._sessions = PlanCache(max_entries=max_sessions)
        self._folds = PlanCache(max_entries=max_sessions * _MAX_FOLDS_PER_SESSION)
        self._serials = itertools.count()

    def cache_info(self) -> EngineCacheInfo:
        """Counters of every cache layer the engine owns.

        The first four fields are the knob cache's
        :class:`~repro.pipeline.cache.CacheInfo` (one Smache entry per
        distinct design and one baseline entry per distinct range
        partition, see :meth:`knobs_for`); the session and
        fold fields track the packed-session cache and the fold memo behind
        :meth:`price_batch`.
        """
        knobs = self._knobs.cache_info()
        sessions = self._sessions.cache_info()
        folds = self._folds.cache_info()
        return EngineCacheInfo(
            hits=knobs.hits,
            misses=knobs.misses,
            maxsize=knobs.maxsize,
            currsize=knobs.currsize,
            session_hits=sessions.hits,
            session_misses=sessions.misses,
            session_evictions=sessions.evictions,
            session_maxsize=sessions.maxsize,
            session_currsize=sessions.currsize,
            fold_hits=folds.hits,
            fold_misses=folds.misses,
        )

    def clear(self) -> None:
        """Drop packed knobs, sessions and folds (benchmarks measuring cold packs)."""
        self._knobs.clear()
        self._sessions.clear()
        self._folds.clear()

    def knobs_for(self, design: CompiledDesign, system: str):
        """The design's knobs on ``system``, through the bounded knob cache.

        An entry is keyed by what its knobs read: the Smache knobs read the
        plan, so they are cached per design (its ``cache_key()``); the
        baseline knobs read only the ranges and the grid, so designs of one
        range partition (its ``range_key()``) share them, whatever their
        mode or bounds.
        """
        problem = design.problem
        if not problem.is_cacheable:
            # Custom iteration patterns compile outside the plan cache; their
            # knobs stay outside the knob cache for the same reason.
            return design_knobs(design, system)
        key = problem.range_key() if system == "baseline" else problem.cache_key()
        return self._knobs.get_or_compile((system, key), lambda: design_knobs(design, system))

    # ------------------------------------------------------------------ #
    def price(
        self, items: Sequence[PricingItem], with_artifacts: bool = True
    ) -> List[EvaluationResult]:
        """Price every item, returning results **in input order**.

        Items are regrouped by system internally; the result list is
        re-scattered so ``out[i]`` always answers ``items[i]`` — an asserted
        invariant, not a convention.  With ``with_artifacts=False`` the
        per-point :class:`~repro.pipeline.analytic.PerformancePrediction`
        artifact is skipped (runners that strip artifacts anyway need not
        build them).
        """
        items = list(items)
        if not items:
            # An empty batch has nothing to group; building zero-length
            # packed columns would only exercise NumPy edge cases for free.
            return []
        out: List[Optional[EvaluationResult]] = [None] * len(items)
        groups: Dict[str, List[int]] = {}
        for index, (_, request) in enumerate(items):
            groups.setdefault(request.system, []).append(index)
        for system, indices in groups.items():
            designs = [items[i][0] for i in indices]
            requests = [items[i][1] for i in indices]
            # Resolved per row: the request's override or the problem's kernel.
            kernels = [r.resolve_kernel(d) for d, r in zip(designs, requests)]
            timings = [r.dram_timing or DEFAULT_TIMING for r in requests]
            iterations = [r.iterations for r in requests]
            cols = self._pack(system, indices, designs, kernels)
            lists = _fold(
                cols,
                _column(iterations),
                _column([t.stream_word_cycles for t in timings]),
                _column([t.random_access_cycles for t in timings]),
                _column([t.read_latency for t in timings]),
                np.asarray([r.write_through for r in requests], dtype=bool),
                cols.kernel_latency,
                cols.kernel_ops,
            )
            _assemble(out, cols, lists, iterations, with_artifacts)
        assert all(r is not None for r in out), (
            "vectorized pricing must fill every input slot exactly once"
        )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def price_batch(
        self,
        problems: Sequence[object],
        request: EvaluationRequest,
        cache: Optional[PlanCache] = plan_cache,
        with_artifacts: bool = True,
    ) -> List[EvaluationResult]:
        """Price one shared request over a problem list, session-cached.

        The batch facade behind ``Workbench.evaluate_batch``: the first call
        for a given problem list compiles (via
        :func:`~repro.pipeline.compile.compile_batch`), extracts knobs and
        packs design-side columns; every later call with the *same problem
        objects* — under any iterations / DRAM timing / write policy —
        reuses the packed columns and only broadcasts the request.  Results
        come back in input order, same invariant as :meth:`price`.

        ``cache=None`` (an explicit cache bypass) disables the session memo
        too: every call recompiles, exactly like the scalar path.
        """
        problems = list(problems)
        if not problems:
            return []
        if cache is None:
            designs = compile_batch(problems, cache=None)
            return self.price([(d, request) for d in designs], with_artifacts)

        def pack_session() -> _SessionEntry:
            designs = compile_batch(problems, cache=cache)
            return _SessionEntry(problems, cache, designs, next(self._serials))

        entry = self._sessions.get_or_compile(
            (id(cache), tuple(map(id, problems))), pack_session
        )
        system = request.system
        cols = entry.packed.get(system)
        if cols is None:
            kernels = [design.problem.effective_kernel for design in entry.designs]
            cols = self._pack(system, range(len(entry.designs)), entry.designs, kernels)
            # dict.setdefault is atomic: a racing packer adopts the first columns.
            cols = entry.packed.setdefault(system, cols)

        m = len(problems)
        timing = request.dram_timing or DEFAULT_TIMING
        override = request.kernel
        # Every scalar the fold consumes besides the packed columns; a None
        # kernel operand folds the problems' own kernels.  The memo key is
        # exactly these operands, so no fold input can be left out of it;
        # result objects are still built fresh each call.
        operands = (
            request.iterations,
            timing.stream_word_cycles,
            timing.random_access_cycles,
            timing.read_latency,
            request.write_through,
            None if override is None else override.latency,
            None if override is None else override.ops_per_point,
        )
        folded = self._folds.get_or_compile(
            (entry.serial, system) + operands, lambda: _fold(cols, *operands)
        )

        # A session packs its columns over range(m) in order, so a
        # length check is a full fill/no-collision check.
        assert len(cols.indices) == m, (
            "vectorized pricing must fill every input slot exactly once"
        )
        out: List[Optional[EvaluationResult]] = [None] * m
        _assemble(out, cols, folded, [request.iterations] * m, with_artifacts)
        return out  # type: ignore[return-value]

    def _pack(self, system: str, indices, designs, kernels) -> Cols:
        """Pack the design-side columns of one system's rows."""
        knobs = [self.knobs_for(design, system) for design in designs]
        return Cols(
            system,
            tuple(indices),
            tuple(designs),
            type(knobs[0])._make(_column(values).T for values in zip(*knobs)),
            _column([kernel.latency for kernel in kernels]),
            _column([kernel.ops_per_point for kernel in kernels]),
        )
