"""The vectorized pricing engine must be bitwise-equal to the scalar model.

The scalar backend and the engine share one formula, so the reference here
is the independent literal model of ``analytic_oracle`` (the same contract
as ``reference_step_scalar``): for every point of a batch, the engine's
cycles, traffic, operation counts, ``extra`` detail (values *and* Python
types — the canonical campaign JSON serialises them) and the ``prediction``
artifact must equal the oracle's output exactly.  Alongside the parity
sweep live the structural guarantees: input-order preservation under
regrouping by system, the grouping edge cases, and the plan-cache batch
counting contract (one miss + N−1 hits for a shared design).
"""

import gc
import random
import threading
from dataclasses import replace

import pytest

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline import (
    EvaluationRequest,
    PlanCache,
    StencilProblem,
    batch_evaluate,
    compile,
    compile_batch,
    evaluate,
)
from repro.pipeline.analytic_batch import AnalyticBatchEngine
from repro.reference.kernels import SumKernel, WeightedKernel
from tests.pipeline import analytic_oracle
from tests.pipeline.analytic_oracle import assert_bitwise_equal

@pytest.fixture()
def engine():
    return AnalyticBatchEngine()


@pytest.fixture(scope="module")
def scalar():
    return analytic_oracle.evaluate


def price_and_compare(engine, scalar, items):
    results = engine.price(items)
    assert len(results) == len(items)
    for (design, request), result in zip(items, results):
        assert result.design is design
        assert_bitwise_equal(scalar(design, request), result)
    return results


class TestSweepAxesParity:
    """vectorized == scalar across grid × stencil × partition × reach ×
    timing × boundary × system × write-through × instance-count axes."""

    @pytest.mark.parametrize(
        "grid_shape", [(7, 9), (11, 11), (20, 24), (96, 96)]
    )
    def test_grid_sizes(self, engine, scalar, grid_shape):
        design = compile(StencilProblem.paper_example(*grid_shape))
        items = [
            (design, EvaluationRequest(system=system, iterations=iterations))
            for system in ("smache", "baseline")
            for iterations in (0, 1, 2, 3, 4, 5, 100)
        ]
        price_and_compare(engine, scalar, items)

    @pytest.mark.parametrize(
        "stencil",
        [
            StencilShape.four_point_2d(),
            StencilShape.five_point_2d(),
            StencilShape.asymmetric_2d(),
            StencilShape.moore(2),
        ],
    )
    def test_stencils(self, engine, scalar, stencil):
        problem = StencilProblem(
            grid=GridSpec(shape=(16, 12), word_bytes=4),
            stencil=stencil,
            boundary=BoundarySpec.paper_2d(),
            name=f"stencil-{stencil.n_points}",
        )
        design = compile(problem)
        items = [
            (design, EvaluationRequest(system=system, iterations=3))
            for system in ("smache", "baseline")
        ]
        price_and_compare(engine, scalar, items)

    @pytest.mark.parametrize(
        "boundary",
        [BoundarySpec.paper_2d(), BoundarySpec.all_open(2), BoundarySpec.all_circular(2)],
    )
    def test_boundary_modes(self, engine, scalar, boundary):
        problem = StencilProblem.paper_example(13, 11)
        design = compile(replace(problem, boundary=boundary))
        items = [
            (design, EvaluationRequest(system=system, iterations=iterations))
            for system in ("smache", "baseline")
            for iterations in (1, 4)
        ]
        price_and_compare(engine, scalar, items)

    @pytest.mark.parametrize(
        "mode", [StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY]
    )
    @pytest.mark.parametrize("reach", [0, 4, None])
    def test_partitions_and_reaches(self, engine, scalar, mode, reach):
        design = compile(
            StencilProblem.paper_example(11, 11, mode=mode, max_stream_reach=reach)
        )
        items = [
            (design, EvaluationRequest(system=system, iterations=5, write_through=wt))
            for system in ("smache", "baseline")
            for wt in (True, False)
        ]
        price_and_compare(engine, scalar, items)

    @pytest.mark.parametrize(
        "timing",
        [
            None,
            DRAMTiming(random_access_cycles=5),
            DRAMTiming(read_latency=8),
            # Latency so large the response window cannot hide it: the
            # fractional word_period exercises the float truncation path.
            DRAMTiming(read_latency=300),
            DRAMTiming(stream_word_cycles=2, random_access_cycles=9, read_latency=40),
        ],
    )
    def test_dram_timings(self, engine, scalar, timing):
        design = compile(StencilProblem.paper_example(11, 11))
        items = [
            (design, EvaluationRequest(system=system, iterations=iterations, dram_timing=timing))
            for system in ("smache", "baseline")
            for iterations in (1, 3, 7)
        ]
        price_and_compare(engine, scalar, items)

    def test_kernel_overrides(self, engine, scalar):
        design = compile(StencilProblem.paper_example(11, 11))
        items = [
            (design, EvaluationRequest(system=system, iterations=3, kernel=kernel))
            for system in ("smache", "baseline")
            for kernel in (SumKernel(), WeightedKernel.jacobi_2d())
        ]
        price_and_compare(engine, scalar, items)

    def test_broad_shuffled_cross_product(self, engine, scalar):
        """One big mixed batch over every axis at once, in random order."""
        items = []
        for rows, cols in [(7, 9), (11, 11), (16, 12)]:
            for reach in (0, 4, None):
                design = compile(
                    StencilProblem.paper_example(rows, cols, max_stream_reach=reach)
                )
                for system in ("smache", "baseline"):
                    for iterations in (0, 2, 5):
                        for timing in (None, DRAMTiming(random_access_cycles=5)):
                            items.append(
                                (
                                    design,
                                    EvaluationRequest(
                                        system=system,
                                        iterations=iterations,
                                        dram_timing=timing,
                                        write_through=(iterations % 2 == 0),
                                    ),
                                )
                            )
        random.Random(42).shuffle(items)
        price_and_compare(engine, scalar, items)


class TestGroupingEdgeCases:
    def test_singleton_batch(self, engine, scalar):
        design = compile(StencilProblem.paper_example(7, 9))
        price_and_compare(engine, scalar, [(design, EvaluationRequest(iterations=4))])

    def test_all_identical_batch(self, engine, scalar):
        design = compile(StencilProblem.paper_example(7, 9))
        request = EvaluationRequest(iterations=3)
        results = price_and_compare(engine, scalar, [(design, request)] * 8)
        first = results[0]
        assert all(r.cycles == first.cycles for r in results)

    def test_mixed_smache_baseline_batch(self, engine, scalar):
        design = compile(StencilProblem.paper_example(11, 11))
        items = [
            (design, EvaluationRequest(system="smache", iterations=2)),
            (design, EvaluationRequest(system="baseline", iterations=2)),
            (design, EvaluationRequest(system="smache", iterations=5)),
            (design, EvaluationRequest(system="baseline", iterations=5)),
        ]
        price_and_compare(engine, scalar, items)

    def test_singleton_groups_within_a_batch(self, engine, scalar):
        """Designs with different static-buffer counts share one Smache group."""
        designs = [
            compile(StencilProblem.paper_example(11, 11)),
            compile(StencilProblem.paper_example(11, 11, max_stream_reach=0)),
            compile(
                StencilProblem.paper_example(
                    20, 24, stencil=StencilShape.asymmetric_2d()
                )
            ),
        ]
        items = [(d, EvaluationRequest(iterations=3)) for d in designs]
        price_and_compare(engine, scalar, items)

    def test_input_order_preserved_after_regrouping(self, engine, scalar):
        """Shuffled mixed batch: result i must answer item i exactly."""
        designs = [
            compile(StencilProblem.paper_example(rows, cols))
            for rows, cols in [(7, 9), (11, 11), (16, 12)]
        ]
        items = []
        for design in designs:
            for system in ("smache", "baseline"):
                for iterations in (1, 2, 6):
                    items.append(
                        (design, EvaluationRequest(system=system, iterations=iterations))
                    )
        random.Random(7).shuffle(items)
        results = price_and_compare(engine, scalar, items)
        for (design, request), result in zip(items, results):
            assert result.design is design
            assert result.system == request.system
            assert result.iterations == request.iterations

    def test_without_artifacts(self, engine):
        design = compile(StencilProblem.paper_example(7, 9))
        request = EvaluationRequest(iterations=2)
        slim, full = engine.price([(design, request)] * 2, with_artifacts=False)
        assert slim.artifacts == {} and full.artifacts == {}
        with_pred = engine.price([(design, request)])[0]
        assert slim.cycles == with_pred.cycles
        assert "prediction" in with_pred.artifacts

    def test_knob_cache_is_reused_across_calls(self, scalar):
        engine = AnalyticBatchEngine()
        design = compile(StencilProblem.paper_example(11, 11))
        engine.price([(design, EvaluationRequest(iterations=1))] * 4)
        info = engine.cache_info()
        assert info.misses == 1 and info.hits == 3
        # A second call under different knobs re-uses the packed constants.
        engine.price([(design, EvaluationRequest(iterations=9))] * 2)
        info = engine.cache_info()
        assert info.misses == 1 and info.hits == 5


class TestPlanCacheBatchCounting:
    """Satellite: N points sharing a design = 1 miss + N−1 hits, not N misses."""

    def test_shared_design_counts_one_miss(self):
        cache = PlanCache()
        problem = StencilProblem.paper_example(9, 9)
        designs = compile_batch([problem] * 5, cache=cache)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 4
        assert all(d is designs[0] for d in designs)

    def test_mixed_batch_counts_per_distinct_design(self):
        cache = PlanCache()
        a = StencilProblem.paper_example(9, 9)
        b = StencilProblem.paper_example(11, 11)
        compile_batch([a, a, b, b, a], cache=cache)
        info = cache.cache_info()
        assert info.misses == 2
        assert info.hits == 3

    def test_warm_cache_batch_is_all_hits(self):
        cache = PlanCache()
        problem = StencilProblem.paper_example(9, 9)
        compile_batch([problem], cache=cache)
        compile_batch([problem] * 3, cache=cache)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 3

    def test_label_variants_share_the_compiled_artifacts(self):
        cache = PlanCache()
        base = StencilProblem.paper_example(9, 9)
        renamed = replace(base, name="renamed")
        designs = compile_batch([base, renamed], cache=cache)
        assert cache.cache_info().misses == 1
        assert designs[0].plan is designs[1].plan
        assert designs[1].problem.name == "renamed"

    def test_precompiled_designs_pass_through(self):
        cache = PlanCache()
        design = compile(StencilProblem.paper_example(9, 9))
        out = compile_batch([design], cache=cache)
        assert out[0] is design
        assert cache.cache_info().misses == 0

    def test_get_or_compile_batch_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PlanCache().get_or_compile_batch([("k",)], [])


class TestBatchEvaluateFastPath:
    def problems(self):
        return [
            StencilProblem.paper_example(rows, cols, max_stream_reach=reach)
            for rows, cols in [(7, 9), (11, 11)]
            for reach in (0, None)
        ]

    def test_matches_scalar_loop_exactly(self, scalar):
        problems = self.problems()
        scalar_results = [
            evaluate(p, backend="analytic", iterations=3) for p in problems
        ]
        fast_results = batch_evaluate(problems, iterations=3)
        request = EvaluationRequest(iterations=3)
        for problem, scalar_result, fast_result in zip(problems, scalar_results, fast_results):
            reference = scalar(compile(problem), request)
            assert_bitwise_equal(reference, scalar_result)
            assert_bitwise_equal(reference, fast_result)

    def test_preserves_input_order_when_shuffled(self):
        problems = self.problems() * 2
        random.Random(3).shuffle(problems)
        results = batch_evaluate(problems, iterations=2)
        assert len(results) == len(problems)
        for problem, result in zip(problems, results):
            assert result.design.problem.cache_key() == problem.cache_key()

    def test_session_engine_is_used(self, scalar):
        from repro.api import Workbench

        workbench = Workbench()
        problems = self.problems()
        workbench.evaluate_batch(problems, iterations=2)
        info = workbench.analytic_engine.cache_info()
        assert info.misses == len(set(p.cache_key() for p in problems))
        # A warm re-price of the same problem list hits the packed-session
        # cache: neither the knob cache nor the plan cache is consulted.
        warm = workbench.evaluate_batch(problems, iterations=7)
        again = workbench.analytic_engine.cache_info()
        assert again.misses == info.misses and again.hits == info.hits
        for problem, result in zip(problems, warm):
            reference = scalar(compile(problem), EvaluationRequest(iterations=7))
            assert_bitwise_equal(reference, result)

    def test_single_problem_stays_on_the_scalar_path(self, scalar):
        problem = StencilProblem.paper_example(7, 9)
        result = batch_evaluate([problem], iterations=2)[0]
        reference = scalar(compile(problem), EvaluationRequest(iterations=2))
        assert_bitwise_equal(reference, result)


class TestEngineCacheCounters:
    """Satellites: empty-batch guards, the cache_info() session/fold
    counters, and thread-safety of the shared engine caches."""

    def test_empty_batches_return_empty(self, engine):
        assert engine.price([]) == []
        assert engine.price([], with_artifacts=False) == []
        assert engine.price_batch([], EvaluationRequest(iterations=3)) == []
        info = engine.cache_info()
        assert info.session_misses == 0 and info.fold_misses == 0
        assert info.misses == 0

    def test_session_and_fold_counters(self):
        engine = AnalyticBatchEngine()
        cache = PlanCache()
        problems = [
            StencilProblem.paper_example(9, 9),
            StencilProblem.paper_example(11, 11),
        ]
        engine.price_batch(problems, EvaluationRequest(iterations=2), cache=cache)
        info = engine.cache_info()
        assert (info.session_hits, info.session_misses) == (0, 1)
        assert (info.fold_hits, info.fold_misses) == (0, 1)
        assert info.session_currsize == 1

        # Same problem objects, same knobs: session hit AND fold hit.
        engine.price_batch(problems, EvaluationRequest(iterations=2), cache=cache)
        info = engine.cache_info()
        assert (info.session_hits, info.fold_hits) == (1, 1)

        # Same problem objects, new knobs: session hit, fresh fold.
        engine.price_batch(problems, EvaluationRequest(iterations=5), cache=cache)
        info = engine.cache_info()
        assert (info.session_hits, info.session_misses) == (2, 1)
        assert (info.fold_hits, info.fold_misses) == (1, 2)
        assert info.session_hit_rate == pytest.approx(2 / 3)
        assert info.fold_hit_rate == pytest.approx(1 / 3)

    def test_session_evictions_are_counted(self):
        engine = AnalyticBatchEngine(max_sessions=2)
        cache = PlanCache()
        lists = [[StencilProblem.paper_example(9 + i, 9)] for i in range(3)]
        for problems in lists:
            engine.price_batch(problems, EvaluationRequest(iterations=1), cache=cache)
        info = engine.cache_info()
        assert info.session_misses == 3
        assert info.session_evictions == 1
        assert info.session_currsize == 2 == info.session_maxsize
        # The evicted (oldest) list misses again on re-price.
        engine.price_batch(lists[0], EvaluationRequest(iterations=1), cache=cache)
        assert engine.cache_info().session_misses == 4

    def test_clear_resets_every_counter(self):
        engine = AnalyticBatchEngine()
        cache = PlanCache()
        problems = [StencilProblem.paper_example(9, 9)]
        engine.price_batch(problems, EvaluationRequest(iterations=1), cache=cache)
        engine.price_batch(problems, EvaluationRequest(iterations=1), cache=cache)
        engine.clear()
        info = engine.cache_info()
        assert (info.session_hits, info.session_misses, info.session_evictions) == (0, 0, 0)
        assert (info.fold_hits, info.fold_misses) == (0, 0)
        assert info.session_currsize == 0

    def test_concurrent_price_batch_is_safe_and_exact(self, scalar):
        """Several threads hammer one engine on shared problem lists; every
        result must still be bitwise-equal to the scalar reference."""
        engine = AnalyticBatchEngine()
        cache = PlanCache()
        problems = [
            StencilProblem.paper_example(rows, cols)
            for rows, cols in [(7, 9), (11, 11), (16, 12)]
        ]
        requests = [
            EvaluationRequest(system=system, iterations=iterations)
            for system in ("smache", "baseline")
            for iterations in (1, 3, 5)
        ]
        expected = [
            [scalar(compile(problem), request) for problem in problems]
            for request in requests
        ]
        errors = []
        collected = {}

        def hammer(tid):
            try:
                out = []
                for _ in range(10):
                    for request in requests:
                        out.append(
                            engine.price_batch(problems, request, cache=cache)
                        )
                collected[tid] = out
            except Exception as exc:  # noqa: BLE001 — reraised below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(collected) == 4
        for out in collected.values():
            for call_index, results in enumerate(out):
                references = expected[call_index % len(requests)]
                for reference, result in zip(references, results):
                    assert_bitwise_equal(reference, result)
        info = engine.cache_info()
        # One packed session total, shared by every thread.
        assert info.session_currsize == 1
        assert info.session_hits + info.session_misses == 4 * 10 * len(requests)
        assert info.session_evictions == 0


class TestFoldMemoSessions:
    """The engine-wide fold memo is keyed by a never-reused session serial
    plus exactly the scalar operands the fold consumes."""

    def test_evicted_session_fold_is_never_served_to_a_new_list(self, scalar):
        engine = AnalyticBatchEngine(max_sessions=1)
        cache = PlanCache()
        request = EvaluationRequest(iterations=3)
        for rows in range(7, 17):
            # Each list evicts the previous session, whose folds stay in the
            # memo; dropping the list frees its problems and its session, so
            # a later list may reuse their ids.
            problems = [
                StencilProblem.paper_example(rows, 9),
                StencilProblem.paper_example(rows, 11),
            ]
            results = engine.price_batch(problems, request, cache=cache)
            for problem, result in zip(problems, results):
                assert_bitwise_equal(scalar(compile(problem, cache=cache), request), result)
            del problems, results
            gc.collect()
        info = engine.cache_info()
        assert info.session_evictions == 9
        assert (info.fold_hits, info.fold_misses) == (0, 10)

    def test_kernel_override_is_part_of_the_fold_key(self, engine, scalar):
        cache = PlanCache()
        problems = [StencilProblem.paper_example(11, 11), StencilProblem.paper_example(7, 9)]
        for kernel in (None, SumKernel(), WeightedKernel.jacobi_2d(), None):
            request = EvaluationRequest(iterations=3, kernel=kernel)
            results = engine.price_batch(problems, request, cache=cache)
            for problem, result in zip(problems, results):
                assert_bitwise_equal(scalar(compile(problem, cache=cache), request), result)
        info = engine.cache_info()
        assert (info.fold_hits, info.fold_misses) == (1, 3)
