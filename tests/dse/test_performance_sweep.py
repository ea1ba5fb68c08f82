"""Tests for ``Workbench.explore``: analytic sweep with Pareto-front re-simulation."""

from dataclasses import replace

import pytest

from repro.api import Workbench
from repro.dse.explorer import PerformancePoint, performance_pareto_front
from repro.pipeline import StencilProblem


def candidate_problems():
    """A small sweep: the paper's case under different reach constraints."""
    base = StencilProblem.paper_example(11, 11)
    return [
        replace(
            base,
            max_stream_reach=reach,
            name=f"reach-{reach}" if reach is not None else "unconstrained",
        )
        for reach in (0, 4, 11, None)
    ]


@pytest.fixture(scope="module")
def fast_sweep():
    return Workbench().explore(candidate_problems(), iterations=3)


class TestExplorePerformance:
    def test_every_candidate_is_priced(self, fast_sweep):
        assert len(fast_sweep.points) == 4
        assert all(p.predicted.backend == "analytic" for p in fast_sweep.points)

    def test_only_the_front_is_simulated(self, fast_sweep):
        simulated = [p for p in fast_sweep.points if p.simulated is not None]
        assert simulated == fast_sweep.front
        assert fast_sweep.simulated_count == len(fast_sweep.front)
        assert fast_sweep.simulated_count < len(fast_sweep.points)

    def test_selected_comes_from_the_front(self, fast_sweep):
        assert fast_sweep.selected in fast_sweep.front
        assert fast_sweep.selected.simulated is not None

    def test_analytic_sweep_matches_full_simulation(self, fast_sweep):
        """The acceptance claim: fast path selects the same design as the slow one."""
        full = Workbench().explore(
            candidate_problems(), iterations=3, backend="simulate", simulate_front=False
        )
        assert full.selected.label == fast_sweep.selected.label
        assert full.selected.cycles == fast_sweep.selected.cycles

    def test_format_lists_candidates_and_choice(self, fast_sweep):
        text = fast_sweep.format()
        assert "unconstrained" in text
        assert "<==" in text

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            Workbench().explore([])

    def test_timing_free_backend_rejected(self):
        # Regression: the cost backend produces no cycle count; the sweep must
        # say so instead of crashing inside the Pareto comparison.
        with pytest.raises(ValueError, match="no cycle count"):
            Workbench().explore(candidate_problems(), backend="cost")

    def test_custom_objective(self):
        sweep = Workbench().explore(
            candidate_problems(),
            iterations=2,
            objective=lambda p: (p.total_bits, p.cycles),
        )
        assert sweep.selected.total_bits == min(p.total_bits for p in sweep.front)


class TestPerformanceParetoFront:
    def test_dominated_points_are_dropped(self, fast_sweep):
        front = performance_pareto_front(fast_sweep.points)
        for p in front:
            assert not any(
                q.predicted_cycles <= p.predicted_cycles
                and q.total_bits <= p.total_bits
                and (q.predicted_cycles < p.predicted_cycles or q.total_bits < p.total_bits)
                for q in fast_sweep.points
            )

    def test_front_is_nonempty(self, fast_sweep):
        assert performance_pareto_front(fast_sweep.points)

    def test_point_properties(self, fast_sweep):
        point: PerformancePoint = fast_sweep.selected
        assert point.cycles == point.simulated.cycles
        assert point.total_bits == point.design.total_memory_bits
        assert point.label == point.design.problem.name
