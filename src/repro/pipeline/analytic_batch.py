"""Vectorized analytic pricing: thousands of sweep points per NumPy call.

The closed-form model of :mod:`repro.pipeline.analytic` already prices one
design in microseconds, but a broad campaign calls it once per point, so the
sweep's wall clock is dominated by per-point Python overhead — attribute
walks, dict building, the interpreter loop — not by the model's arithmetic.
This module applies the gather-plan idiom of
:mod:`repro.reference.stencil_exec` to pricing itself:

* **group** a batch of ``(CompiledDesign, EvaluationRequest)`` pairs by
  *plan-structure signature* — the system (Smache or baseline) and the
  static-buffer count, the only structural properties that change the shape
  of the fold.  Everything else (grid size, window reach, buffer extents,
  DRAM timing, write-through, instance count) varies freely *within* a
  group;

* **pack** the per-point knobs into int64/float64 columns.  Knob extraction
  walks the compiled plan once per distinct design and is memoized in a
  bounded :class:`~repro.pipeline.cache.PlanCache` keyed like the plan cache
  itself, so re-pricing a design space under new timings or instance counts
  touches no plan objects at all;

* **fold** the Smache and baseline formulas over the columns — the
  three-instance warm-up walk, the period-two tail extrapolation, the
  burst-break bookkeeping — as masked NumPy array ops.

On top of the per-call grouping sits a **packed-session cache**
(:meth:`AnalyticBatchEngine.price_batch`): a bounded identity-keyed memo of
whole batches.  When the same problem list is priced again — a
:class:`~repro.api.Workbench` session re-pricing its space under new
timings, instance counts or write policies — compilation, knob extraction
and grouping are all skipped: the cached design-side columns are folded
against freshly broadcast request-side columns, so a warm re-price is pure
array arithmetic plus result construction.  The cache key is the identity
of the problem objects (plus the plan cache in use), which is sound because
every entry holds strong references to exactly those objects: a key can
only match while the original problems are alive and unchanged (they are
frozen dataclasses).

The scalar path stays the reference (the same contract as
``reference_step_scalar``): every array fold below mirrors one line of
:func:`~repro.pipeline.analytic.predict_smache` /
:func:`~repro.pipeline.analytic.predict_baseline`, computed in the same IEEE
operations on the same values, so results are **bitwise-equal per point** —
including the ``int(streamed * word_period)`` truncation and the exact
``detail`` integer/float types that canonical campaign JSON serialises.
Both entry points share one set of fold kernels, so the session path cannot
drift from the grouped path.  ``tests/pipeline/test_analytic_batch.py``
enforces the equality across the sweep axes; ``tests/sweep`` holds campaign
output byte-identical between scalar and vectorized pricing.  The parity
suites take their scalar reference from
:meth:`~repro.pipeline.backends.AnalyticBackend.evaluate`, or from a
registered subclass that prices through the base per-point
``evaluate_many`` loop (the fast lanes only take the exact class).
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.memory.dram import DRAMTiming
from repro.pipeline.analytic import (
    BASELINE_DRAIN_OVERHEAD,
    RESPONSE_CAPACITY,
    SMACHE_PIPELINE_OVERHEAD,
    PerformancePrediction,
    baseline_schedule_constants,
)
from repro.pipeline.backends import EvaluationRequest, EvaluationResult
from repro.pipeline.cache import PlanCache, plan_cache
from repro.pipeline.compile import CompiledDesign

#: One batch item: an already-compiled design and the request to price it on.
PricingItem = Tuple[CompiledDesign, EvaluationRequest]

#: Distinct request signatures whose fold outputs a packed session retains.
_MAX_FOLDS_PER_SESSION = 16


class SmacheKnobs(NamedTuple):
    """Per-design constants of the Smache fold (everything read off the plan)."""

    n: int
    window_hi: int
    starts: Tuple[int, ...]
    lengths: Tuple[int, ...]
    prefetch_words: int
    word_bytes: int


class BaselineKnobs(NamedTuple):
    """Per-design constants of the baseline fold (the fetch-schedule walk)."""

    n: int
    n_points: int
    seq_intra: int
    first_rel: int
    last_rel: int
    word_bytes: int


def _smache_knobs(design: CompiledDesign) -> SmacheKnobs:
    plan = design.plan
    statics = tuple((s.start, s.length) for s in plan.statics)
    return SmacheKnobs(
        n=plan.grid.size,
        window_hi=plan.stream.window_hi,
        starts=tuple(s for s, _ in statics),
        lengths=tuple(l for _, l in statics),
        prefetch_words=sum(l for _, l in statics),
        word_bytes=plan.grid.word_bytes,
    )


def _baseline_knobs(design: CompiledDesign) -> BaselineKnobs:
    n_points, seq_intra, first_rel, last_rel = baseline_schedule_constants(
        design.plan, design.ranges
    )
    return BaselineKnobs(
        n=design.plan.grid.size,
        n_points=n_points,
        seq_intra=seq_intra,
        first_rel=first_rel,
        last_rel=last_rel,
        word_bytes=design.plan.grid.word_bytes,
    )


#: One fully-resolved point inside a group: (input index, design, request,
#: kernel latency, kernel ops/point, timing, knobs).
_Row = Tuple[int, CompiledDesign, EvaluationRequest, int, int, DRAMTiming, tuple]


def _masked_extrapolate(per_inst: np.ndarray, it: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.pipeline.analytic._extrapolate`.

    ``per_inst`` is a ``(3, m)`` matrix of the warm-up instance values;
    instances beyond ``min(it, 3)`` are masked out, and the period-two tail
    (odd instances repeat row 1, even instances row 2) is added in closed
    form — exactly the counts the scalar loop derives.
    """
    summed = (
        np.where(it >= 1, per_inst[0], 0)
        + np.where(it >= 2, per_inst[1], 0)
        + np.where(it >= 3, per_inst[2], 0)
    )
    remaining_odd = np.maximum(it - 2, 0) // 2
    remaining_even = np.maximum(it - 3, 0) - remaining_odd
    return summed + remaining_odd * per_inst[1] + remaining_even * per_inst[2]


def _column(values: List[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


# --------------------------------------------------------------------------- #
# packed design-side columns
# --------------------------------------------------------------------------- #
class SmacheCols(NamedTuple):
    """Design-side columns of one Smache group (request-independent)."""

    indices: Tuple[int, ...]
    designs: Tuple[CompiledDesign, ...]
    n: np.ndarray
    window_hi: np.ndarray
    prefetch_words: np.ndarray
    word_bytes: np.ndarray
    starts: np.ndarray  # (m, n_statics)
    lengths: np.ndarray  # (m, n_statics)
    kernel_latency: np.ndarray  # the problems' effective kernels
    kernel_ops: np.ndarray


class BaselineCols(NamedTuple):
    """Design-side columns of one baseline group (request-independent)."""

    indices: Tuple[int, ...]
    designs: Tuple[CompiledDesign, ...]
    n: np.ndarray
    n_points: np.ndarray
    seq_intra: np.ndarray
    first_rel: np.ndarray
    last_rel: np.ndarray
    word_bytes: np.ndarray
    kernel_latency: np.ndarray
    kernel_ops: np.ndarray


class RequestCols(NamedTuple):
    """Request-side columns: everything a re-price is allowed to change."""

    it: np.ndarray
    swc: np.ndarray
    rac: np.ndarray
    read_latency: np.ndarray
    write_through: np.ndarray  # bool
    kernel_latency: Optional[np.ndarray]  # overrides the design-side columns
    kernel_ops: Optional[np.ndarray]


def _pack_smache(indices, designs, knobs, klat, kops) -> SmacheCols:
    m = len(indices)
    n_statics = len(knobs[0].starts)
    return SmacheCols(
        indices=tuple(indices),
        designs=tuple(designs),
        n=_column([k.n for k in knobs]),
        window_hi=_column([k.window_hi for k in knobs]),
        prefetch_words=_column([k.prefetch_words for k in knobs]),
        word_bytes=_column([k.word_bytes for k in knobs]),
        starts=np.asarray([k.starts for k in knobs], dtype=np.int64).reshape(m, n_statics),
        lengths=np.asarray([k.lengths for k in knobs], dtype=np.int64).reshape(m, n_statics),
        kernel_latency=_column(klat),
        kernel_ops=_column(kops),
    )


def _pack_baseline(indices, designs, knobs, klat, kops) -> BaselineCols:
    return BaselineCols(
        indices=tuple(indices),
        designs=tuple(designs),
        n=_column([k.n for k in knobs]),
        n_points=_column([k.n_points for k in knobs]),
        seq_intra=_column([k.seq_intra for k in knobs]),
        first_rel=_column([k.first_rel for k in knobs]),
        last_rel=_column([k.last_rel for k in knobs]),
        word_bytes=_column([k.word_bytes for k in knobs]),
        kernel_latency=_column(klat),
        kernel_ops=_column(kops),
    )


# --------------------------------------------------------------------------- #
# fold kernels (shared by the grouped and the packed-session paths)
# --------------------------------------------------------------------------- #
class SmacheFold(NamedTuple):
    word_period: np.ndarray
    fill_overhead: np.ndarray
    total_breaks: np.ndarray
    cycles: np.ndarray
    words_read: np.ndarray
    words_written: np.ndarray
    dram_bytes: np.ndarray
    operations: np.ndarray


class BaselineFold(NamedTuple):
    seq_total: np.ndarray
    rand_total: np.ndarray
    bus_cycles: np.ndarray
    drain: np.ndarray
    cycles: np.ndarray
    words_read: np.ndarray
    words_written: np.ndarray
    dram_bytes: np.ndarray
    operations: np.ndarray


def _fold_smache(cols: SmacheCols, req: RequestCols) -> SmacheFold:
    """The Smache fold: predict_smache over columns, one instance at a time."""
    m = len(cols.indices)
    n = cols.n
    starts, lengths = cols.starts, cols.lengths
    n_statics = starts.shape[1]
    kernel_latency = req.kernel_latency if req.kernel_latency is not None else cols.kernel_latency
    kernel_ops = req.kernel_ops if req.kernel_ops is not None else cols.kernel_ops
    it, swc, rac, read_latency = req.it, req.swc, req.rac, req.read_latency
    write_through = req.write_through

    penalty = rac - swc
    word_period = np.maximum(
        swc.astype(np.float64), (read_latency + swc) / RESPONSE_CAPACITY
    )
    fill_overhead = cols.window_hi + read_latency + kernel_latency + SMACHE_PIPELINE_OVERHEAD

    zero = np.zeros(m, dtype=np.int64)
    read_last = zero.copy()
    has_read = np.zeros(m, dtype=bool)
    write_last = zero.copy()
    has_write = np.zeros(m, dtype=bool)
    per_instance = np.zeros((3, m), dtype=np.int64)
    total_breaks = zero.copy()
    for instance in range(3):
        src = zero if instance % 2 == 0 else n
        dst = n if instance % 2 == 0 else zero
        if instance == 0:
            prefetching = np.ones(m, dtype=bool)
        else:
            prefetching = ~write_through
        breaks = np.zeros(m, dtype=np.int64)
        for j in range(n_statics):
            addr = src + starts[:, j]
            breaks += prefetching & (~has_read | (addr != read_last + 1))
            read_last = np.where(prefetching, addr + lengths[:, j] - 1, read_last)
            has_read = has_read | prefetching
        breaks += ~has_read | (src != read_last + 1)
        read_last = src + n - 1
        has_read = np.ones(m, dtype=bool)
        breaks += ~has_write | (dst != write_last + 1)
        write_last = dst + n - 1
        has_write = np.ones(m, dtype=bool)
        streamed = n + np.where(prefetching, cols.prefetch_words, 0)
        per_instance[instance] = (
            (streamed * word_period).astype(np.int64)
            + fill_overhead
            + breaks * penalty
        )
        total_breaks += np.where(instance < it, breaks, 0)

    cycles = np.where(it > 0, 1 + _masked_extrapolate(per_instance, it), 0)
    prefetch_instances = np.where(write_through & (it > 0), 1, it)
    words_read = cols.prefetch_words * prefetch_instances + n * it
    words_written = n * it
    dram_bytes = (words_read + words_written) * cols.word_bytes
    operations = kernel_ops * n * it
    return SmacheFold(
        word_period, fill_overhead, total_breaks, cycles,
        words_read, words_written, dram_bytes, operations,
    )


def _fold_baseline(cols: BaselineCols, req: RequestCols) -> BaselineFold:
    """The baseline fold: predict_baseline over columns."""
    m = len(cols.indices)
    n = cols.n
    kernel_latency = req.kernel_latency if req.kernel_latency is not None else cols.kernel_latency
    kernel_ops = req.kernel_ops if req.kernel_ops is not None else cols.kernel_ops
    it, swc, rac, read_latency = req.it, req.swc, req.rac, req.read_latency

    zero = np.zeros(m, dtype=np.int64)
    read_last = zero.copy()
    has_read = np.zeros(m, dtype=bool)
    write_last = zero.copy()
    has_write = np.zeros(m, dtype=bool)
    per_instance_seq = np.zeros((3, m), dtype=np.int64)
    for instance in range(3):
        src = zero if instance % 2 == 0 else n
        dst = n if instance % 2 == 0 else zero
        seq = cols.seq_intra + (has_read & (src + cols.first_rel == read_last + 1))
        read_last = src + cols.last_rel
        has_read = np.ones(m, dtype=bool)
        # writes walk the destination copy in order; only the first can break.
        seq = seq + (n - 1) + (has_write & (dst == write_last + 1))
        write_last = dst + n - 1
        has_write = np.ones(m, dtype=bool)
        per_instance_seq[instance] = seq

    seq_total = _masked_extrapolate(per_instance_seq, it)
    accesses = (cols.n_points + 1) * n * it
    rand_total = accesses - seq_total
    bus_cycles = seq_total * swc + rand_total * rac
    drain = read_latency + kernel_latency + BASELINE_DRAIN_OVERHEAD
    cycles = np.where(it > 0, bus_cycles + it * drain + 1, 0)

    words_read = cols.n_points * n * it
    words_written = n * it
    dram_bytes = (words_read + words_written) * cols.word_bytes
    operations = kernel_ops * n * it
    return BaselineFold(
        seq_total, rand_total, bus_cycles, drain, cycles,
        words_read, words_written, dram_bytes, operations,
    )


# --------------------------------------------------------------------------- #
# result assembly
# --------------------------------------------------------------------------- #
class SmacheLists(NamedTuple):
    """A Smache group's fold outputs as native-typed Python lists.

    ``ndarray.tolist()`` converts int64 to ``int`` and float64 to ``float``
    exactly, so these carry the same native values the scalar path produces
    (canonical JSON depends on the types).  Pure data — safe to memoize per
    request signature and share across calls; the assemblers build fresh
    result objects from them every time.
    """

    word_period: list
    fill_overhead: list
    prefetch_words: list
    total_breaks: list
    cycles: list
    words_read: list
    words_written: list
    dram_bytes: list
    operations: list
    grid_points: list


class BaselineLists(NamedTuple):
    """A baseline group's fold outputs as native-typed Python lists."""

    seq_total: list
    rand_total: list
    bus_cycles: list
    drain: list
    cycles: list
    words_read: list
    words_written: list
    dram_bytes: list
    operations: list
    grid_points: list


def _lists_smache(cols: SmacheCols, fold: SmacheFold) -> SmacheLists:
    return SmacheLists(
        fold.word_period.tolist(),
        fold.fill_overhead.tolist(),
        cols.prefetch_words.tolist(),
        fold.total_breaks.tolist(),
        fold.cycles.tolist(),
        fold.words_read.tolist(),
        fold.words_written.tolist(),
        fold.dram_bytes.tolist(),
        fold.operations.tolist(),
        cols.n.tolist(),
    )


def _lists_baseline(cols: BaselineCols, fold: BaselineFold) -> BaselineLists:
    return BaselineLists(
        fold.seq_total.tolist(),
        fold.rand_total.tolist(),
        fold.bus_cycles.tolist(),
        fold.drain.tolist(),
        fold.cycles.tolist(),
        fold.words_read.tolist(),
        fold.words_written.tolist(),
        fold.dram_bytes.tolist(),
        fold.operations.tolist(),
        cols.n.tolist(),
    )


# The assemblers construct result objects with ``object.__new__`` + a
# ``__dict__`` literal instead of the dataclass ``__init__`` — field-for-field
# identical to what the scalar :class:`AnalyticBackend` builds, but skipping
# the per-field interpreter work that would otherwise dominate a
# thousand-point warm re-price.  They scatter straight into ``out`` at the
# group's indices, so the group→input permutation happens exactly once.
def _assemble_smache(
    out: List[Optional[EvaluationResult]],
    indices: Tuple[int, ...],
    designs: Tuple[CompiledDesign, ...],
    lists: SmacheLists,
    iterations: List[int],
    with_artifacts: bool,
) -> None:
    new = object.__new__
    result_cls = EvaluationResult
    prediction_cls = PerformancePrediction
    set_frozen = object.__setattr__
    for index, design, it, wp, fo, pw, tb, cyc, wr, ww, db, ops, npts in zip(
        indices, designs, iterations, *lists
    ):
        detail = {
            "word_period": wp,
            "fill_overhead": fo,
            "prefetch_words": pw,
            "burst_breaks_first_instances": tb,
        }
        if with_artifacts:
            prediction = new(prediction_cls)
            # Frozen dataclass: route around __setattr__ like replace() does.
            set_frozen(prediction, "__dict__", {
                "system": "smache",
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
            extra = dict(detail)
        else:
            artifacts = {}
            extra = detail
        result = new(result_cls)
        result.__dict__ = {
            "backend": "analytic",
            "system": "smache",
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


def _assemble_baseline(
    out: List[Optional[EvaluationResult]],
    indices: Tuple[int, ...],
    designs: Tuple[CompiledDesign, ...],
    lists: BaselineLists,
    iterations: List[int],
    with_artifacts: bool,
) -> None:
    new = object.__new__
    result_cls = EvaluationResult
    prediction_cls = PerformancePrediction
    set_frozen = object.__setattr__
    for index, design, it, st, rt, bc, dr, cyc, wr, ww, db, ops, npts in zip(
        indices, designs, iterations, *lists
    ):
        detail = {
            "sequential_accesses": st,
            "random_accesses": rt,
            "bus_cycles": bc,
            "per_instance_drain": dr,
        }
        if with_artifacts:
            prediction = new(prediction_cls)
            set_frozen(prediction, "__dict__", {
                "system": "baseline",
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
            extra = dict(detail)
        else:
            artifacts = {}
            extra = detail
        result = new(result_cls)
        result.__dict__ = {
            "backend": "analytic",
            "system": "baseline",
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
    exactly (they are the knob cache's counters, one entry per distinct
    design/system), so existing consumers of the engine's ``cache_info()``
    keep reading the same numbers; the remaining fields expose the
    packed-session LRU and the per-session fold memo, which is what a
    long-running serving layer watches (`/stats` surfaces this whole tuple).
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

    __slots__ = ("problems", "cache", "designs", "packed", "folded")

    def __init__(self, problems, cache, designs) -> None:
        self.problems = problems
        self.cache = cache
        self.designs = designs
        #: Per system: the list of packed design-side column groups.
        self.packed: Dict[str, List[object]] = {}
        #: Per request signature: the folds' outputs as native lists, one per
        #: group.  The fold is a pure function of the packed columns and the
        #: scalar request knobs in the key, so identical re-prices skip the
        #: array work too — only result objects are built fresh each call.
        self.folded: "OrderedDict[tuple, List[object]]" = OrderedDict()


class AnalyticBatchEngine:
    """Prices batches of analytic requests through the vectorized folds.

    One engine holds one bounded knob cache plus a bounded packed-session
    cache; the process-wide instance lives on the registered
    :class:`~repro.pipeline.backends.AnalyticBackend`, and a
    :class:`~repro.api.Workbench` session keeps its own so repeated
    ``evaluate_batch`` calls reuse the packed columns.
    """

    def __init__(self, max_entries: int = 1024, max_sessions: int = 32) -> None:
        self._knobs = PlanCache(max_entries=max_entries)
        self._sessions: "OrderedDict[tuple, _SessionEntry]" = OrderedDict()
        self._max_sessions = max_sessions
        # One engine may be shared by every connection of the evaluation
        # service (repro.serve), so the identity-keyed session LRU and the
        # per-session fold memos are guarded like PlanCache guards its
        # entries.  Folds and packing run outside the lock (pure functions);
        # when two threads race, the loser adopts the winner's entry.
        self._lock = Lock()
        self._session_hits = 0
        self._session_misses = 0
        self._session_evictions = 0
        self._fold_hits = 0
        self._fold_misses = 0

    def cache_info(self) -> EngineCacheInfo:
        """Counters of every cache layer the engine owns.

        The first four fields are the knob cache's
        :class:`~repro.pipeline.cache.CacheInfo` (one entry per distinct
        design/system), unchanged from earlier releases; the session and
        fold fields track the packed-session LRU behind :meth:`price_batch`.
        """
        knobs = self._knobs.cache_info()
        with self._lock:
            return EngineCacheInfo(
                hits=knobs.hits,
                misses=knobs.misses,
                maxsize=knobs.maxsize,
                currsize=knobs.currsize,
                session_hits=self._session_hits,
                session_misses=self._session_misses,
                session_evictions=self._session_evictions,
                session_maxsize=self._max_sessions,
                session_currsize=len(self._sessions),
                fold_hits=self._fold_hits,
                fold_misses=self._fold_misses,
            )

    def clear(self) -> None:
        """Drop packed knobs and sessions (benchmarks measuring cold packs)."""
        self._knobs.clear()
        with self._lock:
            self._sessions.clear()
            self._session_hits = 0
            self._session_misses = 0
            self._session_evictions = 0
            self._fold_hits = 0
            self._fold_misses = 0

    # ------------------------------------------------------------------ #
    def price(
        self, items: Sequence[PricingItem], with_artifacts: bool = True
    ) -> List[EvaluationResult]:
        """Price every item, returning results **in input order**.

        Items are regrouped by plan-structure signature internally; the
        result list is re-scattered so ``out[i]`` always answers
        ``items[i]`` — an asserted invariant, not a convention.  With
        ``with_artifacts=False`` the per-point
        :class:`~repro.pipeline.analytic.PerformancePrediction` artifact is
        skipped (runners that strip artifacts anyway need not build them).
        """
        items = list(items)
        if not items:
            # An empty batch has nothing to group; building zero-length
            # packed columns would only exercise NumPy edge cases for free.
            return []
        out: List[Optional[EvaluationResult]] = [None] * len(items)
        groups: Dict[tuple, List[_Row]] = {}
        for index, (design, request) in enumerate(items):
            kernel = request.resolve_kernel(design)
            timing = request.dram_timing or DRAMTiming()
            knobs = self._knobs_for(design, request.system)
            if request.system == "smache":
                signature = ("smache", len(knobs.starts))
            else:
                signature = ("baseline",)
            groups.setdefault(signature, []).append(
                (index, design, request, kernel.latency, kernel.ops_per_point, timing, knobs)
            )
        for signature, rows in groups.items():
            indices = [row[0] for row in rows]
            designs = [row[1] for row in rows]
            knobs = [row[6] for row in rows]
            klat = [row[3] for row in rows]
            kops = [row[4] for row in rows]
            iterations = [row[2].iterations for row in rows]
            req_cols = RequestCols(
                it=_column(iterations),
                swc=_column([row[5].stream_word_cycles for row in rows]),
                rac=_column([row[5].random_access_cycles for row in rows]),
                read_latency=_column([row[5].read_latency for row in rows]),
                write_through=np.asarray([row[2].write_through for row in rows], dtype=bool),
                # Already resolved per row (request override or problem default).
                kernel_latency=None,
                kernel_ops=None,
            )
            if signature[0] == "smache":
                cols = _pack_smache(indices, designs, knobs, klat, kops)
                lists = _lists_smache(cols, _fold_smache(cols, req_cols))
                _assemble_smache(
                    out, cols.indices, cols.designs, lists, iterations, with_artifacts
                )
            else:
                cols = _pack_baseline(indices, designs, knobs, klat, kops)
                lists = _lists_baseline(cols, _fold_baseline(cols, req_cols))
                _assemble_baseline(
                    out, cols.indices, cols.designs, lists, iterations, with_artifacts
                )
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
            from repro.pipeline.compile import compile_batch

            designs = compile_batch(problems, cache=None)
            return self.price([(d, request) for d in designs], with_artifacts)

        key = (id(cache), tuple(map(id, problems)))
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                self._sessions.move_to_end(key)
                self._session_hits += 1
        if entry is None:
            from repro.pipeline.compile import compile_batch

            designs = compile_batch(problems, cache=cache)
            with self._lock:
                entry = self._sessions.get(key)
                if entry is not None:
                    # A concurrent caller packed the same list first.
                    self._sessions.move_to_end(key)
                    self._session_hits += 1
                else:
                    self._session_misses += 1
                    entry = _SessionEntry(problems, cache, designs)
                    self._sessions[key] = entry
                    while len(self._sessions) > self._max_sessions:
                        self._sessions.popitem(last=False)
                        self._session_evictions += 1

        system = request.system
        with self._lock:
            groups = entry.packed.get(system)
        if groups is None:
            groups = self._pack_session(entry.designs, system)
            with self._lock:
                groups = entry.packed.setdefault(system, groups)

        m = len(problems)
        timing = request.dram_timing or DRAMTiming()
        override = request.kernel
        # Everything the folds consume besides the packed columns.  Identical
        # knobs give identical fold outputs, so the native-list form is
        # memoized per signature; result objects are still built fresh.
        fold_key = (
            system,
            request.iterations,
            request.write_through,
            timing.stream_word_cycles,
            timing.random_access_cycles,
            timing.read_latency,
            None if override is None else (override.latency, override.ops_per_point),
        )
        with self._lock:
            folded = entry.folded.get(fold_key)
            if folded is not None:
                entry.folded.move_to_end(fold_key)
                self._fold_hits += 1
            else:
                self._fold_misses += 1
        if folded is None:
            folded = []
            for cols in groups:
                g = len(cols.indices)
                req_cols = RequestCols(
                    it=np.full(g, request.iterations, dtype=np.int64),
                    swc=np.full(g, timing.stream_word_cycles, dtype=np.int64),
                    rac=np.full(g, timing.random_access_cycles, dtype=np.int64),
                    read_latency=np.full(g, timing.read_latency, dtype=np.int64),
                    write_through=np.full(g, request.write_through, dtype=bool),
                    kernel_latency=(
                        np.full(g, override.latency, dtype=np.int64)
                        if override is not None
                        else None
                    ),
                    kernel_ops=(
                        np.full(g, override.ops_per_point, dtype=np.int64)
                        if override is not None
                        else None
                    ),
                )
                if system == "smache":
                    folded.append(_lists_smache(cols, _fold_smache(cols, req_cols)))
                else:
                    folded.append(_lists_baseline(cols, _fold_baseline(cols, req_cols)))
            with self._lock:
                existing = entry.folded.get(fold_key)
                if existing is not None:
                    folded = existing
                else:
                    entry.folded[fold_key] = folded
                    while len(entry.folded) > _MAX_FOLDS_PER_SESSION:
                        entry.folded.popitem(last=False)

        out: List[Optional[EvaluationResult]] = [None] * m
        assemble = _assemble_smache if system == "smache" else _assemble_baseline
        for cols, lists in zip(groups, folded):
            iterations = [request.iterations] * len(cols.indices)
            assemble(out, cols.indices, cols.designs, lists, iterations, with_artifacts)
        # The packed groups partition range(m) by construction (enumerate in
        # _pack_session), so a total-count check is a full fill/no-collision
        # check without a per-element scan.
        assert sum(len(cols.indices) for cols in groups) == m, (
            "vectorized pricing must fill every input slot exactly once"
        )
        return out  # type: ignore[return-value]

    def _pack_session(self, designs: Sequence[CompiledDesign], system: str):
        """Pack design-side columns for one system, grouped by signature."""
        grouped: Dict[tuple, List[int]] = {}
        knobs = [self._knobs_for(design, system) for design in designs]
        for index, k in enumerate(knobs):
            signature = ("smache", len(k.starts)) if system == "smache" else ("baseline",)
            grouped.setdefault(signature, []).append(index)
        packed = []
        for signature, indices in grouped.items():
            group_designs = [designs[i] for i in indices]
            group_knobs = [knobs[i] for i in indices]
            kernels = [d.problem.effective_kernel for d in group_designs]
            klat = [k.latency for k in kernels]
            kops = [k.ops_per_point for k in kernels]
            pack = _pack_smache if signature[0] == "smache" else _pack_baseline
            packed.append(pack(indices, group_designs, group_knobs, klat, kops))
        return packed

    # ------------------------------------------------------------------ #
    def _knobs_for(self, design: CompiledDesign, system: str):
        builder = _smache_knobs if system == "smache" else _baseline_knobs
        problem = design.problem
        if not problem.is_cacheable:
            # Custom iteration patterns compile outside the plan cache; their
            # knobs stay outside the knob cache for the same reason.
            return builder(design)
        key = (system,) + problem.cache_key()
        return self._knobs.get_or_compile(key, lambda: builder(design))
