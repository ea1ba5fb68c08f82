"""The problem intern behind the serve memo: a memo miss whose problem fields
were lowered before reuses that problem and parses only its request fields;
bad specs are still refused, and the intern is bounded like the plan cache."""

import asyncio
import json

import numpy as np
import pytest

from repro.api import Workbench
from repro.pipeline.backends import evaluate
from repro.pipeline.cache import PlanCache, plan_cache
from repro.serve import EvaluationService
from repro.serve.protocol import (
    ProtocolError,
    make_point,
    parse_point,
    parse_problem,
    parse_request,
    problem_key,
    result_payload,
)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def scalar_reference(spec):
    problem, request = parse_point(spec)
    return canonical(result_payload(evaluate(problem, backend="analytic", request=request)))


def priced_problems(service):
    """Record the problem of every item the service's flushes price."""
    seen = []
    real = service.batcher._price

    def price(items):
        seen.extend(problem for problem, _ in items)
        return real(items)

    service.batcher._price = price
    return seen


def counters(cache):
    info = cache.cache_info()
    return info.hits, info.misses, info.currsize, info.evictions


#: One problem under every request knob the wire can vary.
REQUEST_VARIANTS = [
    make_point((12, 13), system="smache", iterations=2),
    make_point((12, 13), system="baseline", iterations=2),
    make_point((12, 13), iterations=7, write_through=False),
    make_point((12, 13), iterations=2, dram_timing={"read_latency": 9}),
]


class TestProtocolSplit:
    def test_parse_point_is_parse_problem_then_parse_request(self):
        spec = make_point((12, 13), system="baseline", iterations=4,
                          max_stream_reach=2, dram_timing={"row_miss_penalty": 3})
        problem, request = parse_point(spec)
        assert problem == parse_problem(spec)
        assert problem.cache_key() == parse_problem(spec).cache_key()
        assert request == parse_request(spec)

    def test_problem_key_ignores_only_request_fields(self):
        keys = {problem_key(spec) for spec in REQUEST_VARIANTS}
        assert len(keys) == 1 and None not in keys
        assert problem_key(make_point((12, 13), name="x")) not in keys
        assert problem_key(make_point((12, 13), bogus=1)) not in keys
        assert problem_key([12, 13]) is None

    def test_a_numpy_problem_field_has_no_problem_key(self):
        assert problem_key(make_point((12, 13), max_stream_reach=np.int64(2))) is None
        # A numpy request field leaves the problem part keyable.
        assert problem_key(make_point((12, 13), iterations=np.int64(2))) is not None


class TestIntern:
    def test_request_variants_share_one_interned_problem(self):
        async def scenario():
            service = EvaluationService()
            seen = priced_problems(service)
            answers = [await service.submit(spec) for spec in REQUEST_VARIANTS]
            return service, seen, answers

        service, seen, answers = asyncio.run(scenario())
        assert [served_by for _, served_by in answers] == ["engine"] * len(REQUEST_VARIANTS)
        for spec, (payload, _) in zip(REQUEST_VARIANTS, answers):
            assert canonical(payload) == scalar_reference(spec)
        assert len(seen) == len(REQUEST_VARIANTS)
        assert all(problem is seen[0] for problem in seen)
        assert service.problems.peek(problem_key(REQUEST_VARIANTS[0])) is seen[0]
        assert counters(service.problems) == (len(REQUEST_VARIANTS) - 1, 1, 1, 0)

    def test_bad_specs_are_refused_after_their_problem_was_interned(self):
        good = make_point((12, 13), iterations=2)
        bad = [
            dict(good, bogus=1),
            dict(good, system="quantum"),
            dict(good, dram_timing={"rw_latency": 4}),
            dict(good, dram_timing={"read_latency": -1}),
            dict(good, iterations=-1),
        ]

        async def scenario():
            service = EvaluationService()
            await service.submit(good)
            for spec in bad:
                for _attempt in range(2):
                    with pytest.raises(ProtocolError):
                        await service.submit(spec)
            return service

        service = asyncio.run(scenario())
        info = service.problems.cache_info()
        assert info.currsize == 1  # only the good spec's problem
        assert info.hits == 2 * (len(bad) - 1)  # every bad request part hit
        assert service.memo.cache_info().currsize == 1

    def test_a_name_override_gets_its_own_entry(self):
        plain = make_point((12, 13), iterations=2)
        named = make_point((12, 13), iterations=2, name="renamed")

        async def scenario():
            service = EvaluationService()
            seen = priced_problems(service)
            answers = [await service.submit(spec) for spec in (plain, named)]
            return service, seen, answers

        service, seen, answers = asyncio.run(scenario())
        assert seen[0] is not seen[1]
        assert seen[1].name == "renamed" and seen[0].name != "renamed"
        assert counters(service.problems) == (0, 2, 2, 0)
        for spec, (payload, _) in zip((plain, named), answers):
            assert canonical(payload) == scalar_reference(spec)

    def test_a_numpy_problem_field_bypasses_the_intern(self):
        spec = make_point((12, 13), iterations=2, max_stream_reach=np.int64(2))

        async def scenario():
            service = EvaluationService()
            answers = [await service.submit(spec) for _ in range(2)]
            return service, answers

        service, answers = asyncio.run(scenario())
        expected = scalar_reference(make_point((12, 13), iterations=2, max_stream_reach=2))
        assert [canonical(payload) for payload, _ in answers] == [expected] * 2
        assert counters(service.problems) == (0, 0, 0, 0)

    def test_the_intern_evicts_at_the_plan_cache_bound(self):
        assert EvaluationService().problems.max_entries == plan_cache.max_entries
        service = EvaluationService(Workbench(cache=PlanCache(2)))
        assert service.problems.max_entries == 2
        specs = [make_point((rows, 13), iterations=2) for rows in (11, 12, 13)]

        async def scenario():
            return [await service.submit(spec) for spec in specs]

        answers = asyncio.run(scenario())
        for spec, (payload, _) in zip(specs, answers):
            assert canonical(payload) == scalar_reference(spec)
        assert counters(service.problems) == (0, 3, 2, 1)
        assert service.problems.peek(problem_key(specs[0])) is None

    def test_the_scalar_reference_path_lowers_every_request(self):
        service = EvaluationService(scalar=True)
        assert service.problems is None
        assert service.stats()["problems"] is None

    def test_stats_report_the_intern(self):
        async def scenario():
            service = EvaluationService()
            for spec in REQUEST_VARIANTS[:2]:
                await service.submit(spec)
            return service.stats()

        stats = asyncio.run(scenario())
        assert stats["problems"]["hits"] == 1
        assert stats["problems"]["misses"] == 1
        assert stats["problems"]["currsize"] == 1
        assert stats["problems"]["evictions"] == 0
        assert stats["problems"]["maxsize"] == plan_cache.max_entries
