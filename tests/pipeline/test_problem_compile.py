"""Tests for repro.pipeline: StencilProblem, compile() and the plan cache."""

import importlib
import re
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.planner
import repro.fpga.synthesis
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.cost_model import estimate_memory_cost
from repro.core.grid import GridSpec, IterationPattern
from repro.core.partition import StreamBufferMode, partition_for_plan
from repro.core.planner import ScoredWindows, plan_buffers
from repro.core.ranges import classify_cases, partition_into_ranges
from repro.core.stencil import StencilShape
from repro.fpga.synthesis import synthesize_smache
from repro.pipeline import (
    EvaluationRequest,
    StencilProblem,
    UnsupportedPatternError,
    compile,
    evaluate,
)
from repro.pipeline.analytic import design_knobs
from repro.pipeline.analytic_batch import AnalyticBatchEngine
from repro.pipeline.cache import PlanCache
from repro.pipeline.compile import CompiledDesign, _build, compile_batch
from tests.core.conftest import stencil_cases
from tests.core.planner_oracle import sort_ranked_window

# ``repro.pipeline`` re-exports the ``compile`` function under the submodule's
# name, so the module is looked up by its full name.
compile_module = importlib.import_module("repro.pipeline.compile")


@pytest.fixture
def paper_problem() -> StencilProblem:
    return StencilProblem.paper_example()


class TestStencilProblem:
    def test_default_kernel_matches_stencil_points(self, paper_problem):
        kernel = paper_problem.effective_kernel
        assert kernel.name == "average"
        assert kernel.expected_points == paper_problem.stencil.n_points

    def test_cache_key_is_hashable_and_stable(self, paper_problem):
        assert hash(paper_problem.cache_key()) == hash(StencilProblem.paper_example().cache_key())

    def test_cache_key_is_one_shared_string(self, paper_problem):
        import pickle

        key = paper_problem.cache_key()
        renamed = StencilProblem.paper_example(name="renamed")
        assert isinstance(key, str) and key == renamed.cache_key()
        assert paper_problem.cache_key() is key  # built once per problem
        assert pickle.loads(pickle.dumps(paper_problem)).cache_key() == key
        cache = PlanCache()
        design = compile(paper_problem, cache=cache)
        assert compile(renamed, cache=cache).plan is design.plan
        assert cache.peek(renamed.cache_key()) is design
        assert cache.peek(pickle.loads(pickle.dumps(key))) is design
        assert cache.cache_info()[:2] == (1, 1)

    def test_shared_parts_print_once_and_keys_stay_byte_identical(self):
        problems = [StencilProblem.paper_example(rows, 9) for rows in (5, 6, 7)]
        stencil, boundary = problems[0].stencil, problems[0].boundary
        problems = [replace(p, stencil=stencil, boundary=boundary) for p in problems]
        assert repr(stencil) == f"StencilShape(offsets={stencil.offsets!r}, name={stencil.name!r})"
        assert repr(boundary) == (
            f"BoundarySpec(edges={boundary.edges!r}, constant_value={boundary.constant_value!r})"
        )
        for problem in problems:
            kernel = problem.effective_kernel
            assert problem.cache_key() == repr((
                problem.grid, stencil, boundary, problem.mode, problem.word_bits,
                problem.max_stream_reach, problem.max_total_bits, problem.register_elements,
                type(kernel).__name__, repr(kernel),
            ))
            assert problem.range_key() == repr((problem.grid, stencil, boundary))
        # One printed string per shared part, reused by every problem's key.
        assert repr(stencil) is repr(stencil) and repr(boundary) is repr(boundary)

    def test_custom_mode_needs_register_elements(self):
        with pytest.raises(ValueError, match="register_elements"):
            StencilProblem.paper_example(mode=StreamBufferMode.CUSTOM)
        problem = StencilProblem.paper_example(
            mode=StreamBufferMode.CUSTOM, register_elements=4
        )
        assert compile(problem, cache=None).partition.register_elements == 4

    def test_cache_key_distinguishes_modes(self, paper_problem):
        other = StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY)
        assert paper_problem.cache_key() != other.cache_key()

    def test_describe_names_the_kernel(self, paper_problem):
        assert "average" in paper_problem.describe()

    def test_problem_with_dict_backed_kernel_is_hashable(self):
        # Regression: WeightedKernel carries a dict field; the problem hash
        # must not include it (equality still does).
        from repro.reference.kernels import WeightedKernel

        problem = StencilProblem.paper_example(kernel=WeightedKernel.diffusion_2d(nu=0.2))
        assert isinstance(hash(problem), int)
        assert problem in {problem}
        assert hash(problem.cache_key()) == hash(
            StencilProblem.paper_example(kernel=WeightedKernel.diffusion_2d(nu=0.2)).cache_key()
        )


class TestCompile:
    def test_compile_matches_legacy_config_path(self, paper_problem):
        """The core stages called one by one give the compiled plan, partition and cost."""
        design = compile(paper_problem, cache=None)
        plan = plan_buffers(paper_problem.grid, paper_problem.stencil, paper_problem.boundary)
        partition = partition_for_plan(plan, paper_problem.mode)
        assert design.plan == plan
        assert design.partition == partition
        assert design.cost == estimate_memory_cost(plan, paper_problem.mode, partition=partition)

    def test_compile_carries_range_structure(self, paper_problem):
        design = compile(paper_problem, cache=None)
        assert design.n_cases == 9  # the paper's nine stencil cases
        assert design.n_ranges == len(design.ranges)
        assert design.ranges[0].start == 0

    def test_describe_mentions_cases_and_cost(self, paper_problem):
        text = compile(paper_problem, cache=None).describe()
        assert "cases" in text and "memory cost" in text

    def test_a_renamed_cache_hit_reports_its_own_synthesis_name(self):
        alpha = StencilProblem.paper_example(11, 11, name="alpha")
        beta = replace(alpha, name="beta")
        cache = PlanCache()
        compile(alpha, cache=cache)
        for design in (compile(beta, cache=cache), compile_batch([beta], cache=cache)[0]):
            assert design.problem is beta
            assert design.synthesis == compile(beta, cache=None).synthesis
            assert design.synthesis.design == "smache-beta-h"
            assert "smache-alpha" not in design.synthesis.describe()
        assert cache.cache_info()[:2] == (2, 1)

    def test_designs_sharing_a_synthesis_keep_their_own_names(self):
        # Both reach bounds choose the unbounded window: one plan, one synthesis.
        wide = StencilProblem.paper_example(11, 11, name="wide")
        bounded = replace(wide, max_stream_reach=10**6, name="bounded")
        first, second = compile_batch([wide, bounded], cache=PlanCache())
        assert first.plan is second.plan and first.cost is second.cost
        assert first.synthesis.usage is second.synthesis.usage
        assert first.synthesis == compile(wide, cache=None).synthesis
        assert second.synthesis == compile(bounded, cache=None).synthesis
        assert second.synthesis.design == "smache-bounded-h"


class TestPlanCache:
    def test_second_compile_hits_the_cache(self, paper_problem):
        cache = PlanCache()
        first = compile(paper_problem, cache=cache)
        second = compile(StencilProblem.paper_example(), cache=cache)
        assert first is second
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert info.hit_rate == 0.5

    def test_distinct_problems_occupy_distinct_entries(self):
        cache = PlanCache()
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(9, 11), cache=cache)
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        a = StencilProblem.paper_example(7, 9)
        b = StencilProblem.paper_example(9, 11)
        c = StencilProblem.paper_example(11, 11)
        compile(a, cache=cache)
        compile(b, cache=cache)
        compile(c, cache=cache)  # evicts a
        assert len(cache) == 2
        assert cache.cache_info().evictions == 1
        assert cache.peek(a.cache_key()) is None
        assert cache.peek(c.cache_key()) is not None

    def test_clear_resets_counters(self, paper_problem):
        cache = PlanCache()
        compile(paper_problem, cache=cache)
        cache.clear()
        info = cache.cache_info()
        assert len(cache) == 0
        assert info.misses == 0 and info.hits == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_rejects_nonpositive_bound(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_entries must be positive"):
                PlanCache(max_entries=bound)

    def test_get_put_miss_then_hit(self):
        cache = PlanCache(max_entries=4)
        assert cache.get("k") is None
        assert cache.put("k", {"cycles": 1}) == {"cycles": 1}
        assert cache.get("k") == {"cycles": 1}
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_put_keeps_the_first_writer(self):
        cache = PlanCache()
        first, second = {"v": 1}, {"v": 1}
        assert cache.put("k", first) is first
        assert cache.put("k", second) is first
        assert cache.peek("k") is first

    def test_get_put_lru_eviction_order(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.cache_info().evictions == 1

    def test_get_put_clear_resets_counters(self):
        cache = PlanCache(max_entries=2)
        for key in "abc":
            cache.put(key, {})
        cache.get("c")
        cache.get("a")
        cache.clear()
        assert cache.cache_info() == (0, 0, 2, 0, 0)
        assert len(cache) == 0

    def test_concurrent_lookups_are_all_counted(self):
        """More threads than cores race get_or_compile, get and put on a
        small cache: no lookup is lost and every entry is its key's value."""
        cache = PlanCache(max_entries=8)
        threads_n, rounds, keys = 8, 400, 12
        errors = []

        def hammer(tid):
            try:
                for i in range(rounds):
                    key = (tid + i) % keys
                    assert cache.get_or_compile(key, lambda: ("v", key)) == ("v", key)
                    value = cache.get(key)
                    assert value is None or value == ("v", key)
                    assert cache.put(key, ("v", key)) == ("v", key)
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        info = cache.cache_info()
        assert info.hits + info.misses == threads_n * rounds * 2
        assert info.currsize == len(cache) <= 8
        assert info.evictions >= keys - 8

    def test_cache_info_reports_hits_misses_and_sizes(self):
        cache = PlanCache(max_entries=8)
        info = cache.cache_info()
        assert info == (0, 0, 8, 0, 0)
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(9, 11), cache=cache)
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == 2
        assert info.maxsize == 8 and info.currsize == 2
        assert info.hit_rate == pytest.approx(1 / 3)

    def test_cache_none_bypasses(self, paper_problem):
        first = compile(paper_problem, cache=None)
        second = compile(paper_problem, cache=None)
        assert first is not second
        assert first.plan == second.plan


@pytest.fixture
def ranges_calls(monkeypatch):
    """Count ``partition_into_ranges`` calls from every compile stage."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return partition_into_ranges(*args, **kwargs)

    for module in (
        compile_module,
        repro.core.planner,
        repro.fpga.synthesis,
    ):
        monkeypatch.setattr(module, "partition_into_ranges", counting)
    return calls


class TestOnePartitionPerCompile:
    def test_build_partitions_a_cacheable_problem_once(self, paper_problem, ranges_calls):
        _build(paper_problem)
        assert len(ranges_calls) == 1

    def test_analyse_partitions_once(self, paper_problem, ranges_calls):
        # compile is the only analysis of a problem: one partition for plan and synthesis
        compile(paper_problem, cache=None)
        assert len(ranges_calls) == 1

    def test_synthesis_counts_cases_over_the_contiguous_stream(self):
        # A shape key depends only on the centre element, so a permutation
        # pattern has the contiguous stream's case set; synthesis partitions
        # the contiguous stream on its own for such (uncacheable) problems.
        grid = GridSpec(shape=(11, 11))
        problem = StencilProblem(
            grid=grid,
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.all_open(2),
            pattern=IterationPattern.strided(grid, 2),
        )
        assert not problem.is_cacheable
        design = compile(problem)
        contiguous = partition_into_ranges(grid, problem.stencil, problem.boundary)
        assert design.n_cases == len(classify_cases(contiguous))
        assert design.synthesis == synthesize_smache(
            design.problem,
            design.plan,
            partition=design.partition,
            n_cases=design.n_cases,
        )


@st.composite
def stencil_problems(draw):
    """A small 1-D/2-D/3-D stencil problem with per-side boundaries and knobs."""
    ndim = draw(st.integers(1, 3))
    max_extent = {1: 40, 2: 14, 3: 6}[ndim]
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    stencils = [StencilShape.moore(ndim), StencilShape.von_neumann(ndim)]
    if ndim == 2:
        stencils += [
            StencilShape.four_point_2d(),
            StencilShape.asymmetric_2d(),
            StencilShape.star_2d(2),
        ]
    kinds = st.sampled_from(list(BoundaryKind))
    boundary = BoundarySpec(
        edges=tuple(EdgeBehaviour(draw(kinds), draw(kinds)) for _ in range(ndim))
    )
    mode = draw(st.sampled_from(list(StreamBufferMode)))
    grid = GridSpec(shape=shape)
    return StencilProblem(
        grid=grid,
        stencil=draw(st.sampled_from(stencils)),
        boundary=boundary,
        mode=mode,
        register_elements=draw(st.integers(0, 40)) if mode is StreamBufferMode.CUSTOM else None,
        max_stream_reach=draw(st.none() | st.integers(0, 60)),
        pattern=draw(st.sampled_from([None, IterationPattern.strided(grid, 2)])),
    )


def _staged(problem: StencilProblem) -> CompiledDesign:
    """Compile stage by stage, each stage partitioning the problem itself."""
    ranges = tuple(
        partition_into_ranges(problem.grid, problem.stencil, problem.boundary, problem.pattern)
    )
    plan = plan_buffers(
        problem.grid,
        problem.stencil,
        problem.boundary,
        problem.pattern,
        word_bits=problem.word_bits,
        max_stream_reach=problem.max_stream_reach,
        max_total_bits=problem.max_total_bits,
    )
    partition = partition_for_plan(plan, problem.mode, register_elements=problem.register_elements)
    return CompiledDesign(
        problem=problem,
        ranges=ranges,
        n_cases=len(classify_cases(ranges)),
        plan=plan,
        partition=partition,
        cost=estimate_memory_cost(plan, problem.mode, partition=partition),
        synthesis=synthesize_smache(problem, plan, partition=partition),
    )


class TestSharedPartitionEquivalence:
    @given(problem=stencil_problems())
    @settings(max_examples=50, deadline=None)
    def test_build_equals_stage_by_stage_composition(self, problem):
        try:
            expected = _staged(problem)
        except ValueError as error:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                _build(problem)
            return
        assert _build(problem) == expected


class TestNonContiguousPatterns:
    """Regression: a non-contiguous pattern with a circular dimension 0 used to
    crash the planner with a negative static-buffer start."""

    @pytest.mark.parametrize("pattern_name", ["strided", "reversed"])
    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_dimension_0_boundary(self, pattern_name, kind):
        base = StencilProblem.paper_example(11, 11)
        grid = base.grid
        pattern = (
            IterationPattern.strided(grid, 2)
            if pattern_name == "strided"
            else IterationPattern.from_indices(grid, range(grid.size - 1, -1, -1))
        )
        edges = (EdgeBehaviour(kind, kind), base.boundary.edges[1])
        problem = StencilProblem.paper_example(
            11, 11, boundary=BoundarySpec(edges=edges), pattern=pattern
        )
        if kind is BoundaryKind.CIRCULAR:
            with pytest.raises(UnsupportedPatternError, match="contiguous pattern"):
                compile(problem)
            return
        design = compile(problem)
        assert design.plan.statics == ()
        simulated = evaluate(design, backend="simulate", iterations=2)
        reference = evaluate(design, backend="reference", iterations=2)
        analytic = evaluate(design, backend="analytic", iterations=2)
        assert (simulated.output == reference.output).all()
        assert analytic.cycles == simulated.cycles


def _batch_space(kind: BoundaryKind):
    """Problems over 2-D and 3-D grids x modes x reaches, one boundary kind."""
    problems = []
    for shape, stencil in (
        ((7, 9), StencilShape.four_point_2d()),
        ((7, 9), StencilShape.moore(2)),
        ((9, 6), StencilShape.four_point_2d()),
        ((4, 5, 3), StencilShape.von_neumann(3)),
    ):
        boundary = BoundarySpec(edges=tuple(EdgeBehaviour(kind, kind) for _ in shape))
        for mode in StreamBufferMode:
            for reach in (None, 0, 2, 8):
                problems.append(
                    StencilProblem(
                        grid=GridSpec(shape=shape),
                        stencil=stencil,
                        boundary=boundary,
                        mode=mode,
                        register_elements=3 if mode is StreamBufferMode.CUSTOM else None,
                        max_stream_reach=reach,
                    )
                )
    return problems


@st.composite
def problem_batches(draw):
    """A batch drawn from a few (grid, stencil, boundary) cases, with duplicates."""
    cases = draw(st.lists(stencil_cases(), min_size=1, max_size=3))
    problems = []
    for _ in range(draw(st.integers(1, 8))):
        grid, stencil, boundary = draw(st.sampled_from(cases))
        mode = draw(st.sampled_from(list(StreamBufferMode)))
        problems.append(
            StencilProblem(
                grid=grid,
                stencil=stencil,
                boundary=boundary,
                mode=mode,
                register_elements=(
                    draw(st.integers(0, 20)) if mode is StreamBufferMode.CUSTOM else None
                ),
                max_stream_reach=draw(st.sampled_from([None, 0, 2, 8])),
                word_bits=draw(st.sampled_from([None, 16])),
            )
        )
    return problems


@pytest.fixture
def stage_calls(monkeypatch):
    """Record the inputs of each range and plan stage call made by compile."""
    calls = {"ranges": [], "plans": []}

    def counting_ranges(grid, stencil, boundary, pattern=None):
        calls["ranges"].append(repr((grid, stencil, boundary)))
        return partition_into_ranges(grid, stencil, boundary, pattern)

    def counting_plans(grid, stencil, boundary, pattern=None, **knobs):
        bounds = sorted((k, v) for k, v in knobs.items() if k != "ranges")
        calls["plans"].append(repr((grid, stencil, boundary, bounds)))
        return plan_buffers(grid, stencil, boundary, pattern, **knobs)

    monkeypatch.setattr(compile_module, "partition_into_ranges", counting_ranges)
    monkeypatch.setattr(compile_module, "plan_buffers", counting_plans)
    return calls


def _range_key(problem):
    return repr((problem.grid, problem.stencil, problem.boundary))


def _plan_key(problem):
    return (_range_key(problem), problem.word_bits, problem.max_stream_reach,
            problem.max_total_bits)


class TestBatchStageSharing:
    """compile_batch runs the range and plan stages once per distinct input."""

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_batch_equals_scalar_compile(self, kind):
        problems = _batch_space(kind)
        designs = compile_batch(problems, cache=PlanCache())
        for problem, design in zip(problems, designs):
            expected = compile(problem, cache=None)
            assert design == expected
            assert repr(design) == repr(expected)

    @given(problems=problem_batches())
    @settings(max_examples=40, deadline=None)
    def test_generated_batches_equal_scalar_compile(self, problems):
        expected = []
        for problem in problems:
            try:
                expected.append(compile(problem, cache=None))
            except ValueError as error:
                # The batch fails on its first failing problem, the same way.
                with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                    compile_batch(problems, cache=PlanCache())
                return
        designs = compile_batch(problems, cache=PlanCache())
        assert designs == expected
        assert [repr(d) for d in designs] == [repr(d) for d in expected]

    def test_one_stage_call_per_distinct_input(self, stage_calls):
        problems = [
            replace(problem, word_bits=word_bits)
            for kind in (BoundaryKind.OPEN, BoundaryKind.CIRCULAR)
            for problem in _batch_space(kind)
            for word_bits in (None, 16)
        ]
        cache = PlanCache()
        compile_batch(problems, cache=cache)
        range_keys = {_range_key(p) for p in problems}
        plan_keys = {_plan_key(p) for p in problems}
        assert len(stage_calls["ranges"]) == len(range_keys) == 8
        assert sorted(stage_calls["ranges"]) == sorted(range_keys)
        assert len(stage_calls["plans"]) == len(plan_keys) == 64
        assert len(set(stage_calls["plans"])) == len(plan_keys)
        # Modes and register counts still compile a design each.
        assert cache.cache_info().misses == len(problems) == 192

    def test_uncacheable_problems_build_alone(self, stage_calls):
        contiguous = StencilProblem.paper_example(11, 11, boundary=BoundarySpec.all_open(2))
        strided = replace(contiguous, pattern=IterationPattern.strided(contiguous.grid, 2))
        assert not strided.is_cacheable
        compile_batch([strided, strided, contiguous], cache=PlanCache())
        assert len(stage_calls["ranges"]) == 3
        assert len(stage_calls["plans"]) == 3

    def test_no_stage_outlives_the_call(self, stage_calls):
        problems = _batch_space(BoundaryKind.OPEN)
        compile_batch(problems, cache=PlanCache())
        first = len(stage_calls["ranges"])
        compile_batch(problems, cache=PlanCache())
        assert len(stage_calls["ranges"]) == 2 * first


#: The reach bounds of the differential guard: unbounded, the zero window,
#: and bounds below, near and above typical row offsets.
GUARD_REACHES = (None, 0, 1, 4, 16)
GUARD_MODES = (StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY)


class TestScoredWindowsDifferential:
    """Scoring once per partition and selecting per bound moves no plan or design."""

    @given(case=stencil_cases())
    @settings(max_examples=40, deadline=None)
    def test_selection_plans_and_designs_match_the_per_bound_paths(self, case):
        grid, stencil, boundary = case
        ranges = partition_into_ranges(grid, stencil, boundary)
        windows = ScoredWindows(ranges)
        # One bit below the best plan's: its window is infeasible, so the
        # bound moves the choice or forces the fallback.
        tight = plan_buffers(grid, stencil, boundary).total_bits - 1
        problems = []
        for reach in GUARD_REACHES:
            for bits in (None, tight):
                assert windows.select(grid.word_bits, reach, bits) == sort_ranked_window(
                    ranges, grid.word_bits, reach, bits
                )
                bounds = {"max_stream_reach": reach, "max_total_bits": bits}
                shared = plan_buffers(grid, stencil, boundary, windows=windows, **bounds)
                alone = plan_buffers(grid, stencil, boundary, **bounds)
                assert shared == alone
                assert repr(shared) == repr(alone)
                problems += [
                    StencilProblem(grid=grid, stencil=stencil, boundary=boundary, mode=mode,
                                   max_stream_reach=reach, max_total_bits=bits)
                    for mode in GUARD_MODES
                ]
        designs = compile_batch(problems, cache=PlanCache())
        for problem, design in zip(problems, designs):
            expected = compile(problem, cache=None)
            assert design == expected
            assert repr(design) == repr(expected)


def _cold_space():
    """A 12-grid x 2-mode x 4-reach space like the cold campaign's, on small grids."""
    return [
        StencilProblem.paper_example(rows, cols, mode=mode, max_stream_reach=reach)
        for rows, cols in zip(range(5, 17), (9, 6, 12, 7, 10, 5, 11, 8, 13, 6, 9, 14))
        for mode in GUARD_MODES
        for reach in (0, 4, 16, None)
    ]


class TestColdSpaceWorkCounts:
    """A cold batch scores, plans, synthesizes and walks baseline schedules once per distinct input."""

    def test_scores_once_per_partition_and_plans_once_per_window(self, monkeypatch):
        counts = {"scored": 0, "plans": 0}
        real_spans, real_plan = repro.core.planner._OffsetSpans, repro.core.planner.BufferPlan

        class CountingSpans(real_spans):
            def __init__(self, ranges):
                counts["scored"] += 1
                super().__init__(ranges)

        def counting_plan(**fields):
            counts["plans"] += 1
            return real_plan(**fields)

        monkeypatch.setattr(repro.core.planner, "_OffsetSpans", CountingSpans)
        monkeypatch.setattr(repro.core.planner, "BufferPlan", counting_plan)
        problems = _cold_space()
        designs = compile_batch(problems, cache=PlanCache())
        assert len(designs) == 96
        assert counts["scored"] == len({p.range_key() for p in problems}) == 12
        by_window = {}
        for problem, design in zip(problems, designs):
            stream = design.plan.stream
            key = (problem.range_key(), stream.window_lo, stream.window_hi)
            # Bounds that choose one window share one plan object.
            assert by_window.setdefault(key, design.plan) is design.plan
        assert counts["plans"] == len(by_window) < 48

    def test_partition_cost_and_synthesis_run_once_per_plan_and_mode(self, monkeypatch):
        calls = {"partition_for_plan": 0, "estimate_memory_cost": 0, "synthesize_smache": 0}
        for name in calls:
            real = getattr(compile_module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(compile_module, name, counting)
        # Distinct names, so a design that shares a synthesis must rename it.
        problems = [
            replace(p, name=f"{p.name}-{p.mode.value}-{p.max_stream_reach}") for p in _cold_space()
        ]
        designs = compile_batch(problems, cache=PlanCache())
        assert len(designs) == 96
        pairs = {(id(d.plan), p.mode) for p, d in zip(problems, designs)}
        assert len(pairs) == 48
        assert calls == dict.fromkeys(calls, 48)
        monkeypatch.undo()
        for problem, design in zip(problems, designs):
            expected = compile(problem, cache=None)
            assert design.problem is problem
            assert design.plan == expected.plan
            assert design.partition == expected.partition
            assert design.cost == expected.cost
            assert design.synthesis == expected.synthesis
            assert design.synthesis.design == f"smache-{problem.name}-{problem.mode.value}"

    def test_baseline_knobs_walk_once_per_partition(self):
        designs = compile_batch(_cold_space(), cache=PlanCache())
        engine = AnalyticBatchEngine()
        engine.clear()
        engine.price([(d, EvaluationRequest(system="baseline", iterations=1)) for d in designs])
        info = engine.cache_info()
        assert (info.misses, info.hits) == (12, 84)
        for design in designs:
            assert engine.knobs_for(design, "baseline") == design_knobs(design, "baseline")
