"""Fast-engine parity: the bit-identity contract across the whole system zoo.

The idle-horizon scheduler must be *unobservable*: for any configuration,
a fast-engine run and a naive-engine run of the same system produce the same
cycle count, the same DRAM traffic, the same operation counts, the same
output grid, the same stall statistics and FSM occupancies — and a campaign
over the simulate backend produces byte-identical canonical JSON.  These
tests sweep grid sizes, stream reaches, partitions, boundary kinds, DRAM
timings and both systems.
"""

import numpy as np
import pytest

from repro.arch.system import BaselineSystem, SmacheSystem
from repro.core.boundary import BoundaryKind, BoundarySpec
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline import StencilProblem, compile
from repro.reference.stencil_exec import make_test_grid
from repro.sim.engine import set_default_engine
from repro.sim.trace import TraceLog
from tests.arch.conftest import assert_bitwise_equal

#: A latency-heavy timing where the fast engine actually skips most cycles.
LATENCY_TIMING = DRAMTiming(random_access_cycles=8, read_latency=120)


def run_system(system_cls, problem, engine, iterations=3, timing=None, **kwargs):
    system = system_cls(
        compile(problem), iterations=iterations, dram_timing=timing, engine=engine, **kwargs
    )
    system.load_input(make_test_grid(problem.grid))
    result = system.run()
    return system, result


def assert_identical(system_cls, problem, iterations=3, timing=None, **kwargs):
    """Run naive vs fast and compare every observable, exactly."""
    sys_n, res_n = run_system(system_cls, problem, "naive", iterations, timing, **kwargs)
    sys_f, res_f = run_system(system_cls, problem, "fast", iterations, timing, **kwargs)

    assert_same_result(res_f, res_n)
    # The statistics below live in the hardware, which a fast-forwarded run
    # leaves at the boundary it stopped simulating: compare them on runs that
    # simulate every instance (too few instances to repeat, or a trace).
    assert res_f.engine_stats["cycles_fast_forwarded"] == 0
    # stall statistics, per channel, to the cycle
    assert sys_f.sim.channel_stats() == sys_n.sim.channel_stats()

    # interval-union busy accounting must agree with per-tick naive counting
    assert sys_f.dram.busy_cycles == sys_n.dram.busy_cycles
    # FSM occupancies (per-cycle accounting batched by skip())
    if isinstance(sys_n, SmacheSystem):
        for fsm_n, fsm_f in zip(
            (sys_n.front_end.fsm_prefetch, sys_n.front_end.fsm_gather, sys_n.sequencer.fsm),
            (sys_f.front_end.fsm_prefetch, sys_f.front_end.fsm_gather, sys_f.sequencer.fsm),
        ):
            assert fsm_f.occupancy() == fsm_n.occupancy()
            assert fsm_f.history == fsm_n.history
    return res_f


def assert_same_result(res_f, res_n):
    """Every ``SimulationResult`` field but ``engine_stats`` equal, exactly."""
    assert res_f.cycles == res_n.cycles
    assert res_f.instance_cycles == res_n.instance_cycles
    assert res_f.dram_words_read == res_n.dram_words_read
    assert res_f.dram_words_written == res_n.dram_words_written
    assert res_f.dram_bytes == res_n.dram_bytes
    assert res_f.operations == res_n.operations
    assert res_f.extra == res_n.extra
    assert np.array_equal(res_f.output, res_n.output)
    # the fast run must declare what it skipped and fast-forwarded
    stats = res_f.engine_stats
    total = stats["ticks_executed"] + stats["cycles_skipped"] + stats["cycles_fast_forwarded"]
    assert total == res_f.cycles
    assert res_n.engine_stats["cycles_skipped"] == 0
    assert res_n.engine_stats["cycles_fast_forwarded"] == 0


class TestSmacheParity:
    @pytest.mark.parametrize("shape", [(5, 5), (8, 6), (11, 11), (7, 13)])
    def test_grid_sizes(self, shape):
        assert_identical(SmacheSystem, StencilProblem.paper_example(*shape))

    @pytest.mark.parametrize("reach", [0, 2, 6, None])
    def test_stream_reaches(self, reach):
        problem = StencilProblem.paper_example(9, 9, max_stream_reach=reach)
        assert_identical(SmacheSystem, problem)

    @pytest.mark.parametrize(
        "kinds",
        [
            [BoundaryKind.OPEN, BoundaryKind.OPEN],
            [BoundaryKind.CIRCULAR, BoundaryKind.CIRCULAR],
            [BoundaryKind.MIRROR, BoundaryKind.CLAMP],
            [BoundaryKind.CONSTANT, BoundaryKind.OPEN],
        ],
    )
    def test_boundary_kinds(self, kinds):
        base = StencilProblem.paper_example(8, 8)
        problem = StencilProblem(
            grid=base.grid,
            stencil=base.stencil,
            boundary=BoundarySpec.per_dimension(kinds, constant_value=1.5),
        )
        assert_identical(SmacheSystem, problem)

    @pytest.mark.parametrize("timing", [None, LATENCY_TIMING,
                                        DRAMTiming(stream_word_cycles=3, read_latency=12)])
    def test_dram_timings(self, timing):
        result = assert_identical(
            SmacheSystem, StencilProblem.paper_example(9, 11), timing=timing
        )
        if timing is LATENCY_TIMING:
            # the latency-bound run must genuinely exercise the skip path
            assert result.engine_stats["skip_ratio"] > 0.5

    def test_write_through_disabled(self):
        assert_identical(
            SmacheSystem, StencilProblem.paper_example(8, 8), write_through=False
        )

    def test_latency_bound_long_run(self):
        # An enabled trace keeps every instance simulated, so the skip path
        # is compared over all eight.
        assert_identical(
            SmacheSystem, StencilProblem.paper_example(11, 11),
            iterations=8, timing=LATENCY_TIMING, trace=TraceLog(),
        )

    def test_latency_bound_long_run_fast_forwards(self):
        problem = StencilProblem.paper_example(11, 11)
        _, res_n = run_system(SmacheSystem, problem, "naive", 8, LATENCY_TIMING)
        _, res_f = run_system(SmacheSystem, problem, "fast", 8, LATENCY_TIMING)
        assert_same_result(res_f, res_n)
        assert res_f.engine_stats["cycles_fast_forwarded"] > 0
        assert res_f.engine_stats["instances_simulated"] < 8


class TestBaselineParity:
    @pytest.mark.parametrize("shape", [(5, 5), (9, 7), (11, 11)])
    def test_grid_sizes(self, shape):
        assert_identical(BaselineSystem, StencilProblem.paper_example(*shape))

    @pytest.mark.parametrize("timing", [None, LATENCY_TIMING])
    def test_dram_timings(self, timing):
        assert_identical(
            BaselineSystem, StencilProblem.paper_example(7, 9), timing=timing
        )


class TestDebugEngineOnRealSystems:
    """The debug engine replays fast scheduling decisions under assertions;
    a clean pass certifies every next_activity implementation on the path."""

    @pytest.mark.parametrize("system_cls", [SmacheSystem, BaselineSystem])
    def test_debug_run_is_clean_and_identical(self, system_cls):
        problem = StencilProblem.paper_example(9, 9)
        _, res_n = run_system(system_cls, problem, "naive", timing=LATENCY_TIMING)
        _, res_d = run_system(system_cls, problem, "debug", timing=LATENCY_TIMING)
        assert res_d.cycles == res_n.cycles
        assert np.array_equal(res_d.output, res_n.output)


class TestDrainingPortIdleParity:
    def test_run_until_idle_waits_for_draining_write_port(self):
        """Regression: a port still draining (free_at in the future) with
        empty queues is self-scheduled activity — finished() flips when it
        runs dry, and run_until_idle must not sleep through that under the
        fast engine."""
        from repro.memory.dram import DRAMCommand, DRAMModel
        from repro.sim.engine import Simulator

        cycles = {}
        for engine in ("naive", "fast", "debug"):
            sim = Simulator("drain", engine=engine)
            dram = DRAMModel(
                sim, size_words=64,
                timing=DRAMTiming(random_access_cycles=10, read_latency=2),
            )
            dram.write_cmd.push(DRAMCommand(kind="write", addr=3, data=1.0))
            sim.step(2)  # commit the stimulus and start the write
            cycles[engine] = sim.run_until_idle(max_cycles=100_000)
        assert cycles["fast"] == cycles["naive"] == cycles["debug"]


class TestCampaignParity:
    def test_canonical_campaign_json_identical_across_engines(self, tmp_path):
        """The determinism contract survives the engine swap: a simulate
        campaign's canonical JSON is byte-identical under fast and naive."""
        from repro.api import Workbench
        from repro.sweep import SweepSpec
        from repro.pipeline import StencilProblem

        spec = SweepSpec(
            name="engine-parity",
            base=StencilProblem.paper_example(7, 7),
            grid_sizes=((7, 7), (9, 8)),
            max_stream_reaches=(0, None),
            backends=("simulate",),
            systems=("smache", "baseline"),
            iterations=2,
        )
        outputs = {}
        for engine in ("fast", "naive"):
            previous = set_default_engine(engine)
            try:
                outputs[engine] = Workbench(jobs=1).run(spec)
            finally:
                set_default_engine(previous)
        assert outputs["fast"].to_json() == outputs["naive"].to_json()
        # scheduler telemetry rides in meta (non-canonical), tagged per engine
        for engine, result in outputs.items():
            metas = [r.meta for r in result.records]
            assert all(m.get("sim_engine") == engine for m in metas)
            assert all("sim_ticks_executed" in m for m in metas)


class TestReferenceBackendParity:
    def test_simulated_output_matches_vectorized_reference(self):
        """End to end: hardware simulation == vectorized golden model."""
        from repro.pipeline import StencilProblem, evaluate

        problem = StencilProblem.paper_example(9, 9)
        sim = evaluate(problem, backend="simulate", iterations=3)
        ref = evaluate(problem, backend="reference", iterations=3)
        assert_bitwise_equal(sim.output, ref.output)


class TestGridSpecHelpers:
    def test_paper_grid_round_trip(self):
        # guard for the gather-plan cache key: the triple must stay hashable
        grid = GridSpec(shape=(11, 11))
        stencil = StencilShape.four_point_2d()
        boundary = BoundarySpec.paper_2d()
        assert hash((grid, stencil, boundary)) == hash((grid, stencil, boundary))
