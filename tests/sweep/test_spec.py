"""Tests for declarative sweep specs and stable point keys."""

import dataclasses
import pickle

import numpy as np
import pytest

import repro.sweep.spec
from repro.core.partition import StreamBufferMode
from repro.pipeline import EvaluationRequest, StencilProblem
from repro.sweep.campaign import execute_campaign
from repro.sweep.spec import (
    SweepPoint,
    SweepSpec,
    _parse_grid_list,
    _parse_reach_list,
    smoke_spec,
)
from tests.pipeline.test_analytic_golden import SLOW, cube_problem


def small_spec(**overrides):
    kwargs = dict(
        name="t",
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=((11, 11), (16, 16)),
        max_stream_reaches=(0, None),
        backends=("analytic",),
        iterations=2,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_expansion_is_the_axis_product(self):
        spec = small_spec(modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY))
        points = spec.expand()
        assert len(points) == 2 * 2 * 2
        assert spec.size == len(points)

    def test_expansion_order_is_deterministic(self):
        a = [p.key() for p in small_spec().expand()]
        b = [p.key() for p in small_spec().expand()]
        assert a == b

    def test_point_names_are_unique(self):
        spec = small_spec(modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY))
        names = [p.problem.name for p in spec.expand()]
        assert len(set(names)) == len(names)

    def test_keys_are_unique(self):
        spec = small_spec(
            modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
            systems=("smache", "baseline"),
        )
        keys = [p.key() for p in spec.expand()]
        assert len(set(keys)) == len(keys)

    def test_explicit_problem_list(self):
        problems = [StencilProblem.paper_example(7, 9), StencilProblem.paper_example(9, 7)]
        spec = SweepSpec.from_problems(problems, name="explicit")
        assert [p.problem for p in spec.expand()] == problems

    def test_needs_base_or_problems(self):
        with pytest.raises(ValueError):
            SweepSpec(name="empty")

    def test_fingerprint_is_stable_and_axis_sensitive(self):
        assert small_spec().fingerprint() == small_spec().fingerprint()
        assert small_spec().fingerprint() != small_spec(iterations=3).fingerprint()
        assert (
            small_spec().fingerprint()
            != small_spec(max_stream_reaches=(0, 4, None)).fingerprint()
        )

    def test_describe_mentions_size_and_backends(self):
        text = small_spec().describe()
        assert "4 points" in text and "analytic" in text


class TestSweepPointKeys:
    def test_key_depends_on_backend_and_request(self):
        problem = StencilProblem.paper_example(11, 11)
        base = SweepPoint(problem=problem)
        assert base.key() == SweepPoint(problem=problem).key()
        assert base.key() != SweepPoint(problem=problem, backend="simulate").key()
        assert (
            base.key()
            != SweepPoint(problem=problem, request=EvaluationRequest(iterations=5)).key()
        )
        assert base.key() != SweepPoint(problem=problem, rung=1).key()

    def test_key_hashes_explicit_input_grids(self):
        import numpy as np

        problem = StencilProblem.paper_example(7, 9)
        g1 = np.zeros((7, 9))
        g2 = np.ones((7, 9))
        k1 = SweepPoint(problem=problem, request=EvaluationRequest(input_grid=g1)).key()
        k2 = SweepPoint(problem=problem, request=EvaluationRequest(input_grid=g2)).key()
        assert k1 != k2

    def test_display_label_defaults_to_problem_name(self):
        problem = StencilProblem.paper_example(11, 11)
        assert SweepPoint(problem=problem).display_label == problem.name
        assert SweepPoint(problem=problem, label="x").display_label == "x"


#: Points whose keys are pinned: checkpoints, event logs and the serve memo
#: are keyed by these strings, so they must not move between releases.
GOLDEN_POINTS = {
    "paper-smache": lambda: SweepPoint(problem=StencilProblem.paper_example(11, 11)),
    "paper-baseline": lambda: SweepPoint(
        problem=StencilProblem.paper_example(11, 11),
        request=EvaluationRequest(system="baseline"),
    ),
    "slow-timing": lambda: SweepPoint(
        problem=StencilProblem.paper_example(11, 11),
        request=EvaluationRequest(iterations=100, dram_timing=SLOW, write_through=False),
    ),
    "input-grid": lambda: SweepPoint(
        problem=StencilProblem.paper_example(7, 9),
        request=EvaluationRequest(input_grid=np.arange(63, dtype=np.float64).reshape(7, 9)),
    ),
    "cube": lambda: SweepPoint(
        problem=cube_problem(), backend="simulate", request=EvaluationRequest(iterations=9)
    ),
}

GOLDEN_KEYS = {
    "paper-smache": "34729972d75175d3",
    "paper-baseline": "d2bb66b63d3e6008",
    "slow-timing": "d081fcfe56883203",
    "input-grid": "19921ace62a17381",
    "cube": "3e71054acd597f4b",
}


class TestGoldenKeys:
    @pytest.mark.parametrize("case", sorted(GOLDEN_KEYS))
    def test_point_key_is_pinned(self, case):
        assert GOLDEN_POINTS[case]().key() == GOLDEN_KEYS[case]

    def test_smoke_fingerprint_is_pinned(self):
        assert smoke_spec().fingerprint() == "82324f87982cb84c"


class TestKeyMemo:
    @pytest.mark.parametrize("case", sorted(GOLDEN_KEYS))
    def test_key_equals_a_fresh_equal_points_key(self, case):
        point = GOLDEN_POINTS[case]()
        key = point.key()
        assert point.key() is key
        assert GOLDEN_POINTS[case]().key() == key
        clone = pickle.loads(pickle.dumps(point))
        assert clone.key() == key
        assert pickle.loads(pickle.dumps(GOLDEN_POINTS[case]())).key() == key

    def test_replaced_point_gets_its_own_key(self):
        point = GOLDEN_POINTS["paper-smache"]()
        point.key()
        rung = dataclasses.replace(point, rung=1)
        assert rung.key() != point.key()
        assert rung.key() == SweepPoint(problem=point.problem, rung=1).key()

    def test_campaign_digests_each_point_once(self, monkeypatch):
        calls = []
        digest = repro.sweep.spec._digest

        def counted(payload, *args, **kwargs):
            calls.append(payload)
            return digest(payload, *args, **kwargs)

        monkeypatch.setattr(repro.sweep.spec, "_digest", counted)
        spec = smoke_spec(name="memo")
        result = execute_campaign(spec)
        unique = {record.key for record in result.records}
        assert len(unique) == spec.size == 18
        assert len(calls) == len(unique) + 1  # one per point, one fingerprint


class TestCliParsers:
    def test_parse_grid_list(self):
        assert _parse_grid_list("11x11, 16x24") == ((11, 11), (16, 24))
        with pytest.raises(ValueError):
            _parse_grid_list(" , ")

    def test_parse_reach_list(self):
        assert _parse_reach_list("0,4,none") == (0, 4, None)
        with pytest.raises(ValueError):
            _parse_reach_list("")
