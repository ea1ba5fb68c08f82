"""Mixed-request flushes: one micro-batch holds every pending request, whatever
its system, iterations, write policy, DRAM timing or kernel, and each answer
is bitwise the scalar evaluation of its own point by the independent literal
model of ``analytic_oracle``."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workbench
from repro.memory.dram import DRAMTiming
from repro.pipeline import compile
from repro.pipeline.backends import SYSTEMS, EvaluationRequest
from repro.pipeline.problem import StencilProblem
from repro.reference.kernels import AveragingKernel, MaxKernel, StencilKernel, SumKernel
from repro.serve import EvaluationService
from repro.serve.protocol import make_point, parse_point, result_payload
from tests.pipeline import analytic_oracle


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def scalar_payload(problem, request):
    return canonical(result_payload(analytic_oracle.evaluate(compile(problem), request)))


KERNELS = st.sampled_from(
    [None, AveragingKernel(), SumKernel(), MaxKernel(),
     StencilKernel(name="custom", ops_per_point=5, latency=7)]
)
TIMINGS = st.one_of(
    st.none(),
    st.builds(
        DRAMTiming,
        stream_word_cycles=st.integers(1, 3),
        random_access_cycles=st.integers(1, 12),
        read_latency=st.integers(0, 40),
    ),
)
POINTS = st.tuples(
    st.integers(8, 14),
    st.integers(8, 14),
    st.builds(
        EvaluationRequest,
        system=st.sampled_from(SYSTEMS),
        iterations=st.integers(0, 6),
        write_through=st.booleans(),
        dram_timing=TIMINGS,
        kernel=KERNELS,
    ),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(POINTS, min_size=1, max_size=10))
def test_a_mixed_flush_answers_each_point_like_scalar_evaluate(points):
    workbench = Workbench()
    flushes = []
    price = workbench._price_async_bucket

    def counted(items):
        flushes.append(len(items))
        return price(items)

    workbench._price_async_bucket = counted
    problems = [StencilProblem.paper_example(rows, cols) for rows, cols, _ in points]
    requests = [request for _, _, request in points]

    async def main():
        return await asyncio.gather(
            *(workbench.evaluate_async(problem, request=request)
              for problem, request in zip(problems, requests))
        )

    results = asyncio.run(main())
    assert flushes == [len(points)]
    for problem, request, result in zip(problems, requests, results):
        assert canonical(result_payload(result)) == scalar_payload(problem, request)


def mixed_specs(count):
    """``count`` specs, no two sharing a system/iterations/policy/timing."""
    return [
        make_point(
            (9 + i, 11),
            system=SYSTEMS[i % 2],
            iterations=i,
            write_through=i % 3 != 0,
            dram_timing={"read_latency": 4 * i} if i % 2 else None,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("count", [5, 8])
def test_gathered_mixed_signatures_are_priced_in_one_flush(count):
    async def main():
        service = EvaluationService(max_batch=8)
        specs = mixed_specs(count)
        answers = await asyncio.gather(*(service.submit(spec) for spec in specs))
        return service, specs, answers

    service, specs, answers = asyncio.run(main())
    assert service.stats()["batches"]["flushes"] == 1
    for spec, (payload, served_by) in zip(specs, answers):
        assert served_by == "engine"
        assert canonical(payload) == scalar_payload(*parse_point(spec))
