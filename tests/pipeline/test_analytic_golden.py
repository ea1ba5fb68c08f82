"""Golden values of the analytic model: exact cycles, traffic and detail.

The cross-validation suite only holds analytic cycles within 5% of the
simulator, so a term dropped from the model can hide inside the band (the
read latency of the baseline drain is 4 of ~600 cycles per instance at the
default timing).  These pins fix every number the model returns for the
paper example and a 3-D case, on both systems, at the default timing and at
a slow one, through the scalar backend and through the batch engine.
"""

import pytest

from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline import (
    AnalyticBatchEngine,
    EvaluationRequest,
    PlanCache,
    StencilProblem,
    compile,
    evaluate,
)

#: A timing where every term differs from the default: two-cycle stream
#: words, a 2-cycle burst-break penalty and a 16-cycle read latency.
SLOW = DRAMTiming(stream_word_cycles=2, random_access_cycles=4, read_latency=16)


def cube_problem():
    """A 5×5×5 von Neumann case, periodic along dimension 0."""
    return StencilProblem(
        grid=GridSpec(shape=(5, 5, 5)),
        stencil=StencilShape.von_neumann(3),
        boundary=BoundarySpec(
            edges=(
                EdgeBehaviour.both(BoundaryKind.CIRCULAR),
                EdgeBehaviour.both(BoundaryKind.OPEN),
                EdgeBehaviour.both(BoundaryKind.OPEN),
            )
        ),
        name="von-neumann-5x5x5",
    )


PROBLEMS = {"paper": (StencilProblem.paper_example, 100), "cube": (cube_problem, 9)}

#: (case, system, timing) -> ((cycles, words read, words written, bytes, ops), detail)
GOLDEN = {
    ("paper", "smache", "default"): (
        (14623, 12122, 12100, 96888, 48400),
        {"word_period": 1.0, "fill_overhead": 25, "prefetch_words": 22,
         "burst_breaks_first_instances": 6},
    ),
    ("paper", "smache", "slow"): (
        (36403, 14300, 12100, 105600, 48400),
        {"word_period": 2.25, "fill_overhead": 37, "prefetch_words": 22,
         "burst_breaks_first_instances": 10},
    ),
    ("paper", "baseline", "default"): (
        (61401, 48400, 12100, 242000, 48400),
        {"sequential_accesses": 14249, "random_accesses": 46251,
         "bus_cycles": 60500, "per_instance_drain": 9},
    ),
    ("paper", "baseline", "slow"): (
        (215603, 48400, 12100, 242000, 48400),
        {"sequential_accesses": 14249, "random_accesses": 46251,
         "bus_cycles": 213502, "per_instance_drain": 21},
    ),
    ("cube", "smache", "default"): (
        (1527, 1175, 1125, 9200, 4500),
        {"word_period": 1.0, "fill_overhead": 39, "prefetch_words": 50,
         "burst_breaks_first_instances": 6},
    ),
    ("cube", "smache", "slow"): (
        (4053, 1575, 1125, 10800, 4500),
        {"word_period": 2.25, "fill_overhead": 51, "prefetch_words": 50,
         "burst_breaks_first_instances": 10},
    ),
    ("cube", "baseline", "default"): (
        (9082, 7875, 1125, 36000, 4500),
        {"sequential_accesses": 2920, "random_accesses": 6080,
         "bus_cycles": 9000, "per_instance_drain": 9},
    ),
    ("cube", "baseline", "slow"): (
        (30350, 7875, 1125, 36000, 4500),
        {"sequential_accesses": 2920, "random_accesses": 6080,
         "bus_cycles": 30160, "per_instance_drain": 21},
    ),
}


def golden_request(case, system, timing_name):
    """The pinned request; the slow Smache pin also runs write-back."""
    slow = timing_name == "slow"
    return EvaluationRequest(
        system=system,
        iterations=PROBLEMS[case][1],
        dram_timing=SLOW if slow else None,
        write_through=not (slow and system == "smache"),
    )


def assert_golden(result, key):
    counts, detail = GOLDEN[key]
    got = (
        result.cycles,
        result.dram_words_read,
        result.dram_words_written,
        result.dram_bytes,
        result.operations,
    )
    assert got == counts, key
    assert result.extra == detail, key
    for name, value in detail.items():
        assert type(result.extra[name]) is type(value), (key, name)


KEYS = sorted(GOLDEN)
KEY_IDS = ["-".join(key) for key in KEYS]


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_scalar_backend_matches_the_pins(key):
    design = compile(PROBLEMS[key[0]][0]())
    result = evaluate(design, backend="analytic", request=golden_request(*key))
    assert_golden(result, key)
    assert result.artifacts["prediction"].detail == GOLDEN[key][1]


def test_engine_matches_the_pins_in_one_mixed_batch():
    engine = AnalyticBatchEngine()
    designs = {case: compile(make()) for case, (make, _) in PROBLEMS.items()}
    items = [(designs[key[0]], golden_request(*key)) for key in KEYS]
    for key, result in zip(KEYS, engine.price(items)):
        assert_golden(result, key)


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_session_path_matches_the_pins(key):
    engine = AnalyticBatchEngine()
    problems = [PROBLEMS[key[0]][0]()] * 2
    for result in engine.price_batch(problems, golden_request(*key), cache=PlanCache()):
        assert_golden(result, key)
