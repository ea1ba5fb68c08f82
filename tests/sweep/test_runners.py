"""Tests for the executor layer: serial/parallel runners and batch_evaluate."""

import multiprocessing

import pytest

from repro.pipeline import EvaluationRequest, StencilProblem, batch_evaluate, evaluate
from repro.sweep.events import PointCompleted
from repro.sweep.record import canonical_json
from repro.sweep.runners import ProcessPoolRunner, SerialRunner, make_runner
from repro.sweep.spec import SweepSpec, smoke_spec


@pytest.fixture(scope="module")
def points():
    return smoke_spec(iterations=2).expand()


def completed_records(seen):
    """An event sink appending each completed record to ``seen``."""

    def sink(event):
        if isinstance(event, PointCompleted):
            seen.append(event.record)

    return sink


class TestSerialRunner:
    def test_records_in_input_order(self, points):
        records = SerialRunner().run(points)
        assert [r.key for r in records] == [p.key() for p in points]

    def test_callback_sees_every_record(self, points):
        seen = []
        runner = SerialRunner()
        runner.event_sink = completed_records(seen)
        runner.run(points)
        assert len(seen) == len(points)

    def test_keep_results_attaches_full_results(self, points):
        record = SerialRunner().run(points[:1], keep_results=True)[0]
        assert record.result is not None
        assert record.result.cycles == record.cycles
        # Without the flag, records stay slim.
        assert SerialRunner().run(points[:1])[0].result is None

    def test_meta_carries_timing_and_cache_counters(self, points):
        record = SerialRunner().run(points[:1])[0]
        assert record.meta["wall_seconds"] >= 0
        assert "cache_misses" in record.meta and "worker" in record.meta


class TestProcessPoolRunner:
    def test_parallel_matches_serial_byte_for_byte(self, points):
        """The determinism contract of the whole engine."""
        serial = SerialRunner().run(points)
        parallel = ProcessPoolRunner(jobs=2).run(points)
        assert canonical_json(parallel) == canonical_json(serial)

    def test_records_in_input_order(self, points):
        records = ProcessPoolRunner(jobs=2, chunksize=2).run(points)
        assert [r.key for r in records] == [p.key() for p in points]

    def test_callback_sees_every_record(self, points):
        seen = []
        runner = ProcessPoolRunner(jobs=2)
        runner.event_sink = completed_records(seen)
        runner.run(points)
        assert sorted(r.key for r in seen) == sorted(p.key() for p in points)

    def test_keep_results_survives_the_process_boundary(self, points):
        record = ProcessPoolRunner(jobs=2).run(points[:2], keep_results=True)[0]
        assert record.result is not None
        assert record.result.design.total_memory_bits == record.total_bits
        # Live simulation objects are stripped before pickling.
        assert record.result.artifacts == {}

    def test_single_point_fallback_honours_the_parallel_contract(self, points):
        records = ProcessPoolRunner(jobs=4).run(points[:1], keep_results=True)
        assert len(records) == 1
        # Artifacts are stripped exactly as a real worker would strip them,
        # so behaviour does not depend on the batch length.
        assert records[0].result is not None
        assert records[0].result.artifacts == {}

    def test_run_invocations_are_tagged(self, points):
        runner = ProcessPoolRunner(jobs=2)
        first = runner.run(points[:4])
        second = runner.run(points[:4])
        assert {r.meta["run"] for r in first} == {1}
        assert {r.meta["run"] for r in second} == {2}

    def test_empty_input(self):
        assert ProcessPoolRunner(jobs=2).run([]) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(jobs=0)
        with pytest.raises(ValueError):
            ProcessPoolRunner(jobs=2, chunksize=0)

    def test_start_method_is_fixed(self):
        # fork where the platform has it, otherwise the platform default;
        # the choice is not a parameter.
        with pytest.raises(TypeError):
            ProcessPoolRunner(jobs=2, start_method="spawn")
        context = ProcessPoolRunner._context()
        if "fork" in multiprocessing.get_all_start_methods():
            assert context.get_start_method() == "fork"
        else:
            assert context is None

    def test_make_runner_picks_by_jobs(self):
        assert isinstance(make_runner(1), SerialRunner)
        runner = make_runner(3)
        assert isinstance(runner, ProcessPoolRunner) and runner.jobs == 3


class TestParallelEvaluateBatch:
    def test_results_match_serial_evaluation(self):
        problems = [
            StencilProblem.paper_example(7, 9),
            StencilProblem.paper_example(9, 7),
            StencilProblem.paper_example(11, 11),
        ]
        request = EvaluationRequest(iterations=3)
        serial = [evaluate(p, backend="analytic", request=request) for p in problems]
        parallel = batch_evaluate(
            problems, backend="analytic", request=request, jobs=2
        )
        assert [r.cycles for r in parallel] == [r.cycles for r in serial]
        assert [r.dram_bytes for r in parallel] == [r.dram_bytes for r in serial]
        assert [r.design.problem.name for r in parallel] == [p.name for p in problems]

    def test_repeated_problems_match_serial(self):
        """A repeated problem is answered at every position it occupies."""
        p = StencilProblem.paper_example(7, 9)
        q = StencilProblem.paper_example(9, 7)
        for problems in ([p, p], [p, q, p, p]):
            serial = batch_evaluate(problems, iterations=2)
            parallel = batch_evaluate(problems, jobs=2, iterations=2)
            assert len(parallel) == len(problems)
            assert [r.cycles for r in parallel] == [r.cycles for r in serial]
            assert [r.dram_bytes for r in parallel] == [r.dram_bytes for r in serial]
            assert [r.design.problem.name for r in parallel] == [
                x.name for x in problems
            ]

    def test_simulate_backend_round_trips(self):
        problems = [StencilProblem.paper_example(7, 9), StencilProblem.paper_example(9, 7)]
        results = batch_evaluate(problems, backend="simulate", jobs=2, iterations=2)
        for r in results:
            assert r.cycles > 0
            assert r.output is not None  # outputs survive the process boundary

    def test_non_default_cache_stays_serial(self):
        """A bypassed or custom cache cannot be shared with workers."""
        from repro.pipeline.cache import PlanCache

        problems = [StencilProblem.paper_example(7, 9), StencilProblem.paper_example(9, 7)]
        bypassed = batch_evaluate(problems, jobs=2, cache=None, iterations=2)
        custom = PlanCache()
        cached = batch_evaluate(problems, jobs=2, cache=custom, iterations=2)
        assert [r.cycles for r in bypassed] == [r.cycles for r in cached]
        assert custom.cache_info().misses == 2  # really went through the custom cache


class TestCostAwareChunking:
    """Chunks are cut by predicted compile cost, not point count."""

    def giant_and_dwarfs(self):
        giant = StencilProblem.paper_example(96, 96, name="giant")
        dwarfs = [
            StencilProblem.paper_example(7, 9, name=f"dwarf-{i}") for i in range(12)
        ]
        return SweepSpec.from_problems([giant, *dwarfs], name="skew").expand()

    def test_weight_is_the_grid_cell_count(self):
        from repro.sweep.runners import point_cost_weight

        points = self.giant_and_dwarfs()
        assert point_cost_weight(points[0]) == 96 * 96
        assert point_cost_weight(points[1]) == 7 * 9

    def test_chunks_are_contiguous_and_cover_the_input(self):
        from repro.sweep.runners import cost_balanced_chunks

        points = self.giant_and_dwarfs()
        chunks = cost_balanced_chunks(points, n_chunks=4)
        assert 1 <= len(chunks) <= 4
        flattened = [p for chunk in chunks for p in chunk]
        assert [p.key() for p in flattened] == [p.key() for p in points]

    def test_giant_point_does_not_straggle_a_worker(self):
        from repro.sweep.runners import cost_balanced_chunks, point_cost_weight

        points = self.giant_and_dwarfs()
        chunks = cost_balanced_chunks(points, n_chunks=4)
        # The giant problem fills its chunk alone; the dwarfs pack together.
        assert len(chunks[0]) == 1
        assert chunks[0][0].problem.name == "giant"
        # No chunk is heavier than the giant plus one dwarf's worth of slack.
        heaviest = max(sum(point_cost_weight(p) for p in c) for c in chunks)
        assert heaviest <= 96 * 96 + 7 * 9

    def test_uniform_points_split_evenly(self):
        from repro.sweep.runners import cost_balanced_chunks

        points = smoke_spec(iterations=1).expand()  # 18 uniform-ish points
        chunks = cost_balanced_chunks(points, n_chunks=6)
        assert len(chunks) == 6
        assert all(chunk for chunk in chunks)

    def test_points_sharing_a_problem_stay_together(self):
        # backends expand innermost: each problem contributes two adjacent
        # points that share one compiled design.
        spec = SweepSpec(
            name="pairs",
            base=StencilProblem.paper_example(11, 11),
            grid_sizes=((11, 11), (13, 13), (15, 15), (17, 17)),
            backends=("analytic", "cost"),
            iterations=1,
        )
        from repro.sweep.runners import cost_balanced_chunks

        points = spec.expand()
        chunks = cost_balanced_chunks(points, n_chunks=4)
        # A chunk never starts mid-problem: each boundary separates two
        # points belonging to different problems.
        boundaries = [
            (chunks[i][-1].problem, chunks[i + 1][0].problem)
            for i in range(len(chunks) - 1)
        ]
        assert all(prev != nxt for prev, nxt in boundaries)

    def test_more_chunks_than_points_degrades_gracefully(self):
        from repro.sweep.runners import cost_balanced_chunks

        points = smoke_spec(iterations=1).expand()[:3]
        chunks = cost_balanced_chunks(points, n_chunks=16)
        assert len(chunks) == 3

    def test_cost_aware_default_is_still_byte_identical(self, points):
        serial = SerialRunner().run(points)
        parallel = ProcessPoolRunner(jobs=3).run(points)  # no chunksize: cost-aware
        assert canonical_json(parallel) == canonical_json(serial)

    def test_explicit_chunksize_restores_fixed_chunks(self, points):
        runner = ProcessPoolRunner(jobs=2, chunksize=5)
        chunks = runner._chunk(list(points), jobs=2)
        assert [len(c) for c in chunks[:-1]] == [5] * (len(chunks) - 1)
