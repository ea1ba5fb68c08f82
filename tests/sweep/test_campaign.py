"""Campaign orchestration tests: determinism, Pareto ties, cache reporting,
adaptive strategies and the command line."""

import pytest

from repro.core.partition import StreamBufferMode
from repro.pipeline import StencilProblem
from repro.sweep.campaign import CampaignResult, pareto_front_records, execute_campaign
from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepSpec, smoke_spec
from repro.sweep.strategies import (
    GridSearch,
    RandomSearch,
    SuccessiveHalving,
    get_strategy,
    ranking_metric,
)


def record(key, cycles, bits, label=None, rung=0, backend="analytic"):
    return PointRecord(
        key=key,
        label=label or key,
        backend=backend,
        system="smache",
        cycles=cycles,
        total_bits=bits,
        rung=rung,
    )


class TestParetoTieBreaking:
    def test_dominated_points_are_dropped(self):
        records = [record("a", 10, 10), record("b", 20, 20), record("c", 5, 30)]
        front = pareto_front_records(records)
        assert [r.key for r in front] == ["a", "c"]

    def test_exact_ties_both_survive(self):
        """Neither of two identical points dominates the other."""
        records = [record("a", 10, 10), record("b", 10, 10), record("c", 30, 5)]
        front = pareto_front_records(records)
        assert [r.key for r in front] == ["a", "b", "c"]

    def test_tie_on_one_axis_only(self):
        # Same cycles, strictly more memory: dominated.
        records = [record("a", 10, 10), record("b", 10, 11)]
        assert [r.key for r in pareto_front_records(records)] == ["a"]

    def test_records_without_timing_are_excluded(self):
        records = [record("a", None, 10), record("b", 10, 10)]
        assert [r.key for r in pareto_front_records(records)] == ["b"]

    def test_best_breaks_metric_ties_by_key(self):
        result = CampaignResult(
            spec=smoke_spec(), records=[record("zz", 10, 10), record("aa", 10, 10)]
        )
        assert result.best().key == "aa"
        # And the ranking metric itself ends with the key.
        assert ranking_metric(record("aa", 10, 10))[-1] == "aa"


class TestCampaignDeterminism:
    def test_parallel_campaign_is_byte_identical_to_serial(self):
        """Acceptance: jobs=N must not change the campaign's canonical output."""
        spec = smoke_spec(iterations=2)
        serial = execute_campaign(spec, jobs=1)
        parallel = execute_campaign(spec, jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.canonical_rows() == parallel.canonical_rows()

    def test_canonical_rows_exclude_run_specific_meta(self):
        result = execute_campaign(smoke_spec(iterations=1))
        for row in result.canonical_rows():
            assert "meta" not in row and "wall_seconds" not in row


class TestCacheReporting:
    def test_cache_info_is_surfaced_in_result_and_report(self):
        from repro.pipeline import clear_plan_cache

        clear_plan_cache()  # the suite shares the process-global cache
        spec = SweepSpec(
            name="cache",
            base=StencilProblem.paper_example(11, 11),
            # Two systems share one compiled design: the second evaluation of
            # each problem must be a plan-cache hit.
            grid_sizes=((11, 11), (16, 16)),
            systems=("smache", "baseline"),
            iterations=1,
        )
        result = execute_campaign(spec)
        info = result.cache_info()
        assert info.misses == 2
        assert info.hits == 2
        assert "plan cache: 2 hits / 2 misses" in result.format()

    def test_parallel_cache_counters_cover_all_points(self):
        spec = smoke_spec(iterations=1)
        result = execute_campaign(spec, jobs=2)
        info = result.cache_info()
        assert info.hits + info.misses == spec.size

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_rung_cache_counters_cover_both_rungs(self, jobs):
        """Counters from every runner invocation are summed, serial or parallel."""
        spec = smoke_spec(iterations=1)
        result = execute_campaign(spec, jobs=jobs, strategy=SuccessiveHalving(eta=2))
        info = result.cache_info()
        assert info.hits + info.misses == result.size


class TestStrategies:
    def test_random_search_is_seed_deterministic(self):
        spec = smoke_spec(iterations=1)
        a = execute_campaign(spec, strategy=RandomSearch(samples=5, seed=7))
        b = execute_campaign(spec, strategy=RandomSearch(samples=5, seed=7))
        c = execute_campaign(spec, strategy=RandomSearch(samples=5, seed=8))
        assert a.size == 5
        assert a.to_json() == b.to_json()
        assert {r.key for r in a.records} != {r.key for r in c.records}

    def test_random_search_with_enough_samples_is_exhaustive(self):
        spec = smoke_spec(iterations=1)
        result = execute_campaign(spec, strategy=RandomSearch(samples=10_000))
        assert result.size == spec.size

    def test_successive_halving_simulates_only_survivors(self):
        spec = smoke_spec(iterations=1)
        result = execute_campaign(spec, strategy=SuccessiveHalving(eta=3))
        priced = [r for r in result.records if r.rung == 0]
        verified = [r for r in result.records if r.rung == 1]
        assert len(priced) == spec.size
        assert all(r.backend == "analytic" for r in priced)
        assert all(r.backend == "simulate" for r in verified)
        assert len(verified) == -(-spec.size // 3)  # ceil division
        # The winner comes from the cycle-accurate rung.
        assert result.best().backend == "simulate"
        # Survivors are the analytically best points.
        best_priced = sorted(priced, key=ranking_metric)[: len(verified)]
        assert {r.label for r in verified} == {r.label for r in best_priced}

    def test_halving_dedups_multi_backend_specs(self):
        """Forcing the pricing backend must not double-evaluate collapsed points."""
        spec = SweepSpec(
            name="multi",
            base=StencilProblem.paper_example(11, 11),
            grid_sizes=((11, 11), (13, 13), (15, 15), (17, 17)),
            backends=("analytic", "simulate"),
            iterations=1,
        )
        result = execute_campaign(spec, strategy=SuccessiveHalving(eta=2))
        priced = [r for r in result.records if r.rung == 0]
        verified = [r for r in result.records if r.rung == 1]
        assert len(priced) == 4  # one per problem, not one per (problem, backend)
        assert len({r.key for r in priced}) == 4
        assert len({r.label for r in verified}) == len(verified) == 2

    def test_duplicate_points_evaluate_once(self):
        problem = StencilProblem.paper_example(11, 11)
        spec = SweepSpec.from_problems([problem, problem], name="dup", iterations=1)
        result = execute_campaign(spec)
        assert result.size == 2  # both slots filled...
        assert result.evaluated == 1  # ...from a single evaluation
        assert result.records[0].key == result.records[1].key

    def test_halving_resumes_deterministically(self, tmp_path):
        spec = smoke_spec(iterations=1)
        path = str(tmp_path / "halving.jsonl")
        first = execute_campaign(spec, strategy=SuccessiveHalving(), checkpoint=path)
        second = execute_campaign(spec, strategy=SuccessiveHalving(), checkpoint=path)
        assert second.evaluated == 0
        assert second.resumed == first.size
        assert second.to_json() == first.to_json()

    def test_get_strategy(self):
        assert isinstance(get_strategy("grid"), GridSearch)
        assert isinstance(get_strategy("random", samples=3), RandomSearch)
        assert isinstance(get_strategy("halving", eta=4), SuccessiveHalving)
        with pytest.raises(KeyError):
            get_strategy("annealing")

    def test_strategy_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomSearch(samples=0)
        with pytest.raises(ValueError):
            SuccessiveHalving(eta=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(min_survivors=0)


class TestCampaignResultApi:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_campaign(smoke_spec(iterations=2), jobs=1)

    def test_report_mentions_counts_and_best(self, result):
        text = result.format()
        assert f"{result.size} points" in text
        assert "plan cache" in text
        assert "<==" in text

    def test_report_row_limit(self, result):
        text = result.format(max_rows=2)
        assert "more rows" in text

    def test_pareto_front_is_sorted_and_nonempty(self, result):
        front = result.pareto_front()
        assert front
        assert [ranking_metric(r) for r in front] == sorted(
            ranking_metric(r) for r in front
        )

    def test_best_of_empty_campaign(self):
        assert CampaignResult(spec=smoke_spec()).best() is None
        assert CampaignResult(spec=smoke_spec()).final_rung() == []


class TestCommandLine:
    def test_cli_smoke_run_and_resume(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        path = str(tmp_path / "cli.jsonl")
        assert main(["--jobs", "2", "--checkpoint", path]) == 0
        assert main(["--jobs", "2", "--checkpoint", path]) == 0
        out = capsys.readouterr().out
        assert "18 evaluated, 0 resumed" in out
        assert "0 evaluated, 18 resumed" in out

    def test_cli_backends_flag_overrides_the_smoke_spec(self, capsys):
        """--backends alone must not fall back to the analytic smoke campaign."""
        from repro.sweep.__main__ import main

        assert main(["--backends", "simulate", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out and "analytic" not in out

    @pytest.mark.parametrize(
        "modes, message",
        [("custom", "register_elements"), ("hybrid,bogus", "mode 'bogus' is unknown")],
        ids=["custom", "unknown"],
    )
    def test_cli_refuses_a_mode_it_cannot_build(self, capsys, modes, message):
        from repro.sweep.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--grids", "11x11", "--modes", modes])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_cli_explicit_axes_and_strategy(self, capsys):
        from repro.sweep.__main__ import main

        assert main(
            [
                "--grids", "11x11,16x16",
                "--reaches", "0,none",
                "--modes", "hybrid",
                "--strategy", "halving",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy=halving" in out
