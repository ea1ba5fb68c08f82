"""Generated-input differential test of the analytic model's two paths.

The scalar backend and the batch engine price one shared formula; the
reference is the independent literal model of ``analytic_oracle``.  Over
generated 1-D to 3-D problems, DRAM timings well outside the default (read
latency up to 300), both write policies and 0-9 instances, the oracle,
``AnalyticBackend.evaluate`` and one mixed Smache+baseline ``engine.price``
batch must agree bit for bit, down to the Python type of every ``detail``
value.  This checks scalar == batched == oracle only; analytic against
simulate is a separate contract.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.partition import StreamBufferMode
from repro.memory.dram import DRAMTiming
from repro.pipeline import (
    AnalyticBatchEngine,
    EvaluationRequest,
    StencilProblem,
    UnsupportedPatternError,
    compile,
    get_backend,
)
from tests.core.conftest import stencil_cases
from tests.pipeline import analytic_oracle
from tests.pipeline.analytic_oracle import assert_bitwise_equal

TIMINGS = st.builds(
    DRAMTiming,
    stream_word_cycles=st.integers(1, 2),
    random_access_cycles=st.integers(1, 4),
    read_latency=st.integers(0, 300),
)

REQUESTS = st.lists(
    st.tuples(TIMINGS, st.booleans(), st.integers(0, 9)), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(
    case=stencil_cases(),
    mode=st.sampled_from([StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY]),
    reach=st.sampled_from([None, 0, 2]),
    requests=REQUESTS,
)
def test_oracle_scalar_and_engine_agree(case, mode, reach, requests):
    grid, stencil, boundary = case
    problem = StencilProblem(
        grid=grid, stencil=stencil, boundary=boundary, mode=mode, max_stream_reach=reach
    )
    try:
        design = compile(problem)
    except UnsupportedPatternError:
        assume(False)
    items = [
        (
            design,
            EvaluationRequest(
                system=system, iterations=it, dram_timing=timing, write_through=write_through
            ),
        )
        for timing, write_through, it in requests
        for system in ("smache", "baseline")
    ]
    backend = get_backend("analytic")
    batched = AnalyticBatchEngine().price(items)
    for (design, request), from_engine in zip(items, batched):
        reference = analytic_oracle.evaluate(design, request)
        assert_bitwise_equal(reference, backend.evaluate(design, request))
        assert_bitwise_equal(reference, from_engine)
