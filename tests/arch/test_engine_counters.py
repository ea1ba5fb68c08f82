"""Golden scheduler counters of the two systems on the paper example.

The parity suite proves that every engine simulates the same hardware; these
pins prove that the fast scheduler keeps doing the same *work*: which cycles
it executes, which it skips and in how many regions.  A scheduler change that
executes one cycle more, or splits one region in two, fails here before it
shows up as a benchmark drift.
"""

import pytest

from repro.arch.system import BaselineSystem, SmacheSystem
from repro.memory.dram import DRAMTiming
from repro.pipeline.problem import StencilProblem
from repro.reference.stencil_exec import make_test_grid

#: The latency-bound timing of the ``sim_latency`` benchmark workload.
LATENCY_TIMING = DRAMTiming(read_latency=300, random_access_cycles=8)

#: (system, timing) -> fast-engine counters, 11x11 paper example, 3 instances:
#: (cycles, ticks_executed, cycles_skipped, skip_regions, component_ticks).
GOLDEN = {
    (SmacheSystem, "default"): (461, 461, 0, 0, 3227),
    (BaselineSystem, "default"): (1840, 1837, 3, 3, 3674),
    (SmacheSystem, "latency"): (15148, 1098, 14050, 59, 7686),
    (BaselineSystem, "latency"): (56437, 6175, 50262, 2025, 12350),
}

#: Components ticked per executed cycle.
N_COMPONENTS = {SmacheSystem: 7, BaselineSystem: 2}

CASES = sorted(GOLDEN, key=lambda case: (case[0].__name__, case[1]))


def engine_stats(system_cls, timing_name, engine):
    config = StencilProblem.paper_example(11, 11).to_config()
    timing = LATENCY_TIMING if timing_name == "latency" else None
    system = system_cls(config, iterations=3, dram_timing=timing, engine=engine)
    system.load_input(make_test_grid(config.grid))
    return system.run().engine_stats


def case_id(case):
    return f"{case[0].__name__}-{case[1]}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_fast_engine_counters_are_pinned(case):
    stats = engine_stats(*case, "fast")
    counters = tuple(
        stats[name]
        for name in ("cycles", "ticks_executed", "cycles_skipped", "skip_regions",
                     "component_ticks")
    )
    assert counters == GOLDEN[case]
    assert stats["ticks_executed"] + stats["cycles_skipped"] == stats["cycles"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_naive_engine_executes_every_cycle(case):
    stats = engine_stats(*case, "naive")
    cycles = GOLDEN[case][0]
    assert stats["cycles"] == stats["ticks_executed"] == cycles
    assert stats["cycles_skipped"] == stats["skip_regions"] == 0
    assert stats["component_ticks"] == cycles * N_COMPONENTS[case[0]]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_debug_engine_checks_exactly_the_fast_engines_regions(case):
    # Debug executes every cycle, but must take the same skip decisions as
    # fast: the same regions, each cross-checked once.
    stats = engine_stats(*case, "debug")
    cycles, _, _, regions, _ = GOLDEN[case]
    assert stats["cycles"] == stats["ticks_executed"] == cycles
    assert stats["cycles_skipped"] == 0
    assert stats["skip_regions"] == regions
    assert stats["component_ticks"] == cycles * N_COMPONENTS[case[0]]
