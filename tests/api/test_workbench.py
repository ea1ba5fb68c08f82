"""Workbench facade tests: fluent lowering, byte-identical campaigns and
session cache ownership."""

import io

import pytest

from repro.api import ProblemBuilder, SweepBuilder, Workbench
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, evaluate
from repro.pipeline.cache import PlanCache
from repro.sweep import (
    EventLog,
    ProgressReporter,
    SuccessiveHalving,
    SweepSpec,
    execute_campaign,
    smoke_spec,
)


class TestFluentLowering:
    def test_problem_builder_lowers_to_a_stencil_problem(self):
        wb = Workbench()
        problem = (
            wb.problem(rows=11, cols=11)
            .with_stencil(StencilShape.asymmetric_2d())
            .with_mode(StreamBufferMode.REGISTER_ONLY)
            .with_reach(4)
            .named("fluent")
            .build()
        )
        assert isinstance(problem, StencilProblem)
        assert problem.stencil == StencilShape.asymmetric_2d()
        assert problem.mode is StreamBufferMode.REGISTER_ONLY
        assert problem.max_stream_reach == 4
        assert problem.name == "fluent"

    def test_builder_steps_do_not_mutate_the_parent(self):
        wb = Workbench()
        base = wb.problem(rows=11, cols=11)
        forked = base.with_reach(2)
        assert base.build().max_stream_reach is None
        assert forked.build().max_stream_reach == 2

    def test_with_grid_resizes(self):
        wb = Workbench()
        problem = wb.problem(rows=11, cols=11).with_grid((24, 32)).build()
        assert problem.grid.shape == (24, 32)

    def test_sweep_builder_lowers_to_the_equivalent_spec(self):
        wb = Workbench()
        base = StencilProblem.paper_example(11, 11)
        built = (
            wb.problem(base)
            .sweep(
                "study",
                grid_sizes=[(11, 11), (16, 16), (24, 24)],
                max_stream_reaches=[0, 4, None],
                modes=[StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY],
                iterations=2,
            )
            .spec()
        )
        manual = SweepSpec(
            name="study",
            base=base,
            grid_sizes=((11, 11), (16, 16), (24, 24)),
            max_stream_reaches=(0, 4, None),
            modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
            backends=("analytic",),
            iterations=2,
        )
        assert built.fingerprint() == manual.fingerprint()
        assert [p.key() for p in built.expand()] == [p.key() for p in manual.expand()]

    def test_sweep_builder_defaults_backend_to_the_session(self):
        wb = Workbench(backend="cost")
        spec = wb.problem(rows=7, cols=9).sweep().spec()
        assert spec.backends == ("cost",)

    def test_problem_accepts_config_and_overrides(self):
        wb = Workbench()
        builder = wb.problem(StencilProblem.paper_example(9, 9), max_stream_reach=3)
        assert isinstance(builder, ProblemBuilder)
        assert builder.build().max_stream_reach == 3

    def test_strategy_accepts_names_and_instances(self):
        wb = Workbench()
        builder = wb.problem(rows=7, cols=9).sweep()
        assert isinstance(builder.strategy("halving", eta=3), SweepBuilder)
        assert builder.strategy(SuccessiveHalving(eta=2)) is builder


class TestCampaignAcceptance:
    """The PR's acceptance criterion: Workbench output is byte-identical to
    the execute_campaign path, serial and jobs=4, progress attached."""

    def test_workbench_matches_legacy_serial_and_parallel(self):
        spec = smoke_spec(iterations=2)
        legacy_serial = execute_campaign(spec, jobs=1)
        legacy_parallel = execute_campaign(spec, jobs=4)

        wb = Workbench()
        stream = io.StringIO()
        fluent = (
            wb.problem(rows=11, cols=11)
            .sweep(
                "smoke",
                grid_sizes=[(11, 11), (16, 16), (24, 24)],
                max_stream_reaches=[0, 4, None],
                modes=[StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY],
                iterations=2,
            )
            .with_progress(stream=stream, min_interval=0.0)
            .run()
        )
        parallel = Workbench(jobs=4).run(spec, progress=True)

        assert fluent.to_json() == legacy_serial.to_json()
        assert parallel.to_json() == legacy_serial.to_json()
        assert legacy_parallel.to_json() == legacy_serial.to_json()
        assert "points/s" in stream.getvalue() and "ETA" in stream.getvalue()

    def test_run_accepts_a_sweep_builder_directly(self):
        wb = Workbench()
        builder = wb.problem(rows=7, cols=9).sweep(iterations=1)
        result = wb.run(builder)
        assert result.size == 1

    def test_builder_checkpoint_and_jobs_flow_through(self, tmp_path):
        wb = Workbench()
        path = str(tmp_path / "wb.jsonl")
        builder = (
            wb.problem(rows=11, cols=11)
            .sweep("ck", grid_sizes=[(11, 11), (13, 13)], iterations=1)
            .jobs(2)
            .checkpoint(path)
        )
        first = builder.run()
        assert first.evaluated == 2 and first.checkpoint_path == path
        second = (
            wb.problem(rows=11, cols=11)
            .sweep("ck", grid_sizes=[(11, 11), (13, 13)], iterations=1)
            .checkpoint(path)
            .run()
        )
        assert second.evaluated == 0 and second.resumed == 2

    def test_session_observers_see_every_campaign(self):
        log = EventLog()
        wb = Workbench(observers=[log])
        wb.run(smoke_spec(iterations=1))
        wb.problem(rows=7, cols=9).sweep(iterations=1).run()
        assert log.count("campaign_started") == 2
        assert log.count("campaign_finished") == 2


class TestSessionOwnership:
    def test_private_cache_collects_the_sessions_compilations(self):
        cache = PlanCache()
        wb = Workbench(cache=cache)
        problem = StencilProblem.paper_example(9, 9)
        wb.compile(problem)
        wb.compile(problem)
        info = wb.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_evaluate_uses_the_session_backend(self):
        wb = Workbench(backend="cost")
        result = wb.evaluate(StencilProblem.paper_example(9, 9))
        assert result.backend == "cost"
        assert wb.evaluate(StencilProblem.paper_example(9, 9), backend="analytic").cycles

    def test_evaluate_batch_uses_session_policy(self):
        wb = Workbench(jobs=2)
        problems = [StencilProblem.paper_example(7, 9), StencilProblem.paper_example(9, 7)]
        results = wb.evaluate_batch(problems, iterations=2)
        assert [r.design.problem.name for r in results] == [p.name for p in problems]
        serial = [evaluate(p, backend="analytic", iterations=2) for p in problems]
        assert [r.cycles for r in results] == [r.cycles for r in serial]

    def test_explore_goes_through_the_session(self):
        problems = [
            StencilProblem.paper_example(11, 11, max_stream_reach=reach, name=f"r{reach}")
            for reach in (0, 4)
        ]
        wb = Workbench(cache=PlanCache())
        sweep = wb.explore(problems, iterations=2)
        # Both problems were compiled through the session's own cache.
        assert wb.cache_info().misses == len(problems)
        reference = Workbench().explore(problems, iterations=2)
        assert sweep.selected.label == reference.selected.label
        assert [p.predicted_cycles for p in sweep.points] == [
            p.predicted_cycles for p in reference.points
        ]

    def test_backends_lists_the_registry(self):
        assert "analytic" in Workbench().backends()
        assert "simulate" in Workbench().backends()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            Workbench(jobs=0)


class TestBuilderConfigCarriesThroughRun:
    """wb.run(builder) must honour everything the builder accumulated."""

    def test_builder_checkpoint_strategy_and_observers_survive(self, tmp_path):
        wb = Workbench()
        path = str(tmp_path / "carried.jsonl")
        log = EventLog()
        builder = (
            wb.problem(rows=11, cols=11)
            .sweep("carried", grid_sizes=[(11, 11), (13, 13)], iterations=1)
            .strategy("halving", eta=2)
            .checkpoint(path)
            .observe(log)
        )
        result = wb.run(builder)
        assert result.strategy == "halving"
        assert result.checkpoint_path == path
        assert log.count("campaign_finished") == 1

    def test_explicit_run_arguments_override_the_builder(self, tmp_path):
        wb = Workbench()
        builder = (
            wb.problem(rows=11, cols=11)
            .sweep("override", grid_sizes=[(11, 11)], iterations=1)
            .strategy("halving", eta=2)
        )
        from repro.sweep import GridSearch

        result = wb.run(builder, strategy=GridSearch())
        assert result.strategy == "grid"


class TestExploreJobsInheritance:
    def test_explore_inherits_the_sessions_jobs(self):
        calls = []

        class Recording(Workbench):
            def evaluate_batch(self, problems, **kwargs):
                calls.append(kwargs.get("jobs"))
                return super().evaluate_batch(problems, **kwargs)

        wb = Recording(jobs=3)
        problems = [
            StencilProblem.paper_example(11, 11, max_stream_reach=r, name=f"j{r}")
            for r in (0, 4)
        ]
        wb.explore(problems, iterations=1)
        # The pricing pass inherits the session's jobs; the Pareto re-sim
        # caps at the front size but never exceeds the session.
        assert calls[0] == 3
        assert all(1 <= j <= 3 for j in calls)

    def test_explicit_jobs_still_overrides_the_session(self):
        calls = []

        class Recording(Workbench):
            def evaluate_batch(self, problems, **kwargs):
                calls.append(kwargs.get("jobs"))
                return super().evaluate_batch(problems, **kwargs)

        wb = Recording(jobs=3)
        wb.explore([StencilProblem.paper_example(11, 11)], iterations=1, jobs=1)
        assert calls[0] == 1
