"""Instance fast-forward: exact against full simulation, or caught by debug.

The fast engine stops simulating once the timing digest at an instance
boundary repeats the one one or two instances earlier, and adds the rest
arithmetically (the output from the reference executor).  Over generated
problems, DRAM timings and instance counts, the result must equal a naive
run in every ``SimulationResult`` field but ``engine_stats`` — output and
per-instance cycles bitwise — and the debug engine, which simulates every
instance and checks the fast-forwarded result against it, must run clean.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.system import BaselineSystem, SmacheSystem
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline import StencilProblem, UnsupportedPatternError, compile
from repro.reference.stencil_exec import make_test_grid
from repro.sim.engine import SimulationError
from repro.sim.trace import TraceLog
from tests.arch.test_parity import assert_same_result

SYSTEMS = {"smache": SmacheSystem, "baseline": BaselineSystem}


@st.composite
def problems(draw):
    """A 2-D grid up to 9x9 or a 3-D one up to 4^3, any stencil and boundary."""
    ndim = draw(st.sampled_from([2, 3]))
    top = 9 if ndim == 2 else 4
    shape = tuple(draw(st.integers(2, top)) for _ in range(ndim))
    stencils = [StencilShape.moore(ndim), StencilShape.von_neumann(ndim)]
    if ndim == 2:
        stencils += [StencilShape.four_point_2d(), StencilShape.asymmetric_2d()]
    kinds = st.sampled_from(list(BoundaryKind))
    boundary = BoundarySpec(
        edges=tuple(EdgeBehaviour(draw(kinds), draw(kinds)) for _ in range(ndim)),
        constant_value=1.5,
    )
    return StencilProblem(
        grid=GridSpec(shape=shape), stencil=draw(st.sampled_from(stencils)), boundary=boundary
    )


TIMINGS = st.builds(
    DRAMTiming,
    stream_word_cycles=st.integers(1, 2),
    random_access_cycles=st.integers(1, 4),
    read_latency=st.integers(0, 40),
    row_words=st.sampled_from([8, 16, 64, 512]),
    row_miss_penalty=st.integers(0, 6),
)


def simulate(design, system, iterations, timing, engine, write_through=True):
    kwargs = {"write_through": write_through} if system == "smache" else {}
    sim = SYSTEMS[system](
        design, iterations=iterations, dram_timing=timing, engine=engine, **kwargs
    )
    sim.load_input(make_test_grid(design.problem.grid, kind="random"))
    return sim.run()


def assert_fast_forward_exact(design, system, iterations, timing, write_through=True):
    """fast == naive in every result field; debug (the cross-check) runs clean."""
    naive = simulate(design, system, iterations, timing, "naive", write_through)
    fast = simulate(design, system, iterations, timing, "fast", write_through)
    debug = simulate(design, system, iterations, timing, "debug", write_through)
    for result in (fast, debug):
        assert_same_result(result, naive)
        assert result.output.tobytes() == naive.output.tobytes()
    assert debug.engine_stats["cycles_fast_forwarded"] == 0
    assert debug.engine_stats["instances_simulated"] == iterations
    return fast


@settings(max_examples=15, deadline=None)
@given(
    problem=problems(),
    system=st.sampled_from(sorted(SYSTEMS)),
    write_through=st.booleans(),
    timing=TIMINGS,
    iterations=st.integers(0, 40),
)
def test_fast_forward_equals_full_simulation(problem, system, write_through, timing, iterations):
    try:
        design = compile(problem)
    except UnsupportedPatternError:
        assume(False)
    assert_fast_forward_exact(design, system, iterations, timing, write_through)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_grid_copies_straddling_a_dram_row(system):
    # 81-word copies at 0 and 81 with 64-word rows: copy A spans rows 0-1,
    # copy B rows 1-2.  The baseline's gathers miss rows differently in the
    # two copies, so its even and odd instances differ (Smache streams each
    # copy contiguously and pays the same misses in both).
    design = compile(StencilProblem.paper_example(9, 9))
    timing = DRAMTiming(row_words=64, row_miss_penalty=5, read_latency=6)
    fast = assert_fast_forward_exact(design, system, 12, timing)
    assert fast.engine_stats["cycles_fast_forwarded"] > 0
    if system == "baseline":
        assert len(set(fast.instance_cycles[1:])) == 2


#: Figure 2's per-instance cycles (naive simulation): each instance runs
#: from its first read request to its last completed write.  Smache's first
#: instance also prefetches the static buffers.
FIGURE2_INSTANCE_CYCLES = {"smache": [168] + [146] * 99, "baseline": [613] * 100}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_figure2_pair_at_100_instances(system):
    # Both systems repeat with period 2 (the grid copies alternate), so
    # three instances are simulated and 97 fast-forwarded.
    design = compile(StencilProblem.paper_example(11, 11))
    fast = assert_fast_forward_exact(design, system, 100, None)
    assert fast.instance_cycles == FIGURE2_INSTANCE_CYCLES[system]
    # the clock stops the cycle after the last write
    assert fast.cycles == sum(fast.instance_cycles) + 1
    stats = fast.engine_stats
    assert stats["instances_simulated"] == 3
    total = stats["ticks_executed"] + stats["cycles_skipped"] + stats["cycles_fast_forwarded"]
    assert total == fast.cycles


def test_enabled_trace_simulates_every_instance():
    design = compile(StencilProblem.paper_example(9, 9))
    trace = TraceLog()
    sim = SmacheSystem(design, iterations=8, trace=trace)
    sim.load_input(make_test_grid(design.problem.grid))
    stats = sim.run().engine_stats
    assert stats["instances_simulated"] == 8
    assert stats["cycles_fast_forwarded"] == 0
    assert trace.count("launch_instance") == 8


def test_budget_raises_exactly_where_full_simulation_does():
    design = compile(StencilProblem.paper_example(11, 11))
    full = sum(FIGURE2_INSTANCE_CYCLES["smache"]) + 1

    def run(budget):
        sim = SmacheSystem(design, iterations=100, engine="fast")
        sim.load_input(make_test_grid(design.problem.grid))
        return sim.run(max_cycles=budget)

    assert run(full).cycles == full
    with pytest.raises(SimulationError, match=f"exceeded {full - 1} cycles"):
        run(full - 1)


def test_debug_catches_a_digest_that_omits_timing_state(monkeypatch):
    # Leave every address out of the digest: the DRAM ports' last
    # addresses, the queued commands' addresses and the baseline master's
    # grid-copy parities.  With rows straddled, the digest then repeats after
    # one instance although the timing alternates between the two copies.
    import repro.memory.dram as dram
    from repro.arch.baseline import BaselineMaster

    def ports_only(self, origin):
        return tuple(max(0, port.free_at - origin) for port in (self._read_port, self._write_port))

    master_digest = BaselineMaster.instance_digest
    monkeypatch.setattr(dram, "command_timing", lambda cmd: (cmd.kind, cmd.tag))
    monkeypatch.setattr(dram.DRAMModel, "instance_digest", ports_only)
    monkeypatch.setattr(
        BaselineMaster, "instance_digest", lambda self, origin: master_digest(self, origin)[3:]
    )
    design = compile(StencilProblem.paper_example(9, 9))
    timing = DRAMTiming(row_words=64, row_miss_penalty=5, read_latency=6)
    with pytest.raises(SimulationError, match="instance_digest"):
        simulate(design, "baseline", 12, timing, "debug")
    # the fast engine trusts the digest and gets the cycles wrong
    fast = simulate(design, "baseline", 12, timing, "fast")
    naive = simulate(design, "baseline", 12, timing, "naive")
    assert fast.engine_stats["cycles_fast_forwarded"] > 0
    assert fast.cycles != naive.cycles
