"""The spec-keyed response memo: whatever the spelling of a point, each answer
is bitwise the scalar reference of that spec; a bad spec is refused on every
submit and never memoized; a spec JSON cannot encode bypasses the memo."""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.backends import SYSTEMS, evaluate
from repro.serve import EvaluationService, OverloadedError
from repro.serve.protocol import ProtocolError, make_point, parse_point, point_key, result_payload


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def scalar_reference(spec):
    problem, request = parse_point(spec)
    return canonical(result_payload(evaluate(problem, backend="analytic", request=request)))


#: The value each field takes when a spec leaves it out.
DEFAULTS = {"grid": (11, 11), "system": "smache", "iterations": 1,
            "write_through": True, "dram_timing": None, "max_stream_reach": None}

#: Fields ``parse_point`` reads through ``int()``, so "3" spells 3.
INTEGER_FIELDS = ("iterations", "max_stream_reach")

POINTS = st.fixed_dictionaries({
    "grid": st.tuples(st.integers(10, 13), st.integers(10, 13)),
    "system": st.sampled_from(SYSTEMS),
    "iterations": st.integers(0, 4),
    "write_through": st.booleans(),
    "dram_timing": st.one_of(st.none(), st.fixed_dictionaries(
        {"read_latency": st.integers(0, 40)},
        optional={"random_access_cycles": st.integers(1, 12)},
    )),
    "max_stream_reach": st.one_of(st.none(), st.integers(0, 4)),
})

#: Edits that make any spec invalid.
BREAKAGES = [
    {"iteratons": 5},
    {"iterations": -1},
    {"system": "quantum"},
    {"grid": [11]},
    {"mode": "imaginary"},
    {"max_stream_reach": -3},
    {"word_bytes": 0},
    {"dram_timing": {"rw_latency": 4}},
]


@st.composite
def spellings(draw, point):
    """One wire spelling of ``point``: a shuffled key order, defaults left
    out or stated, ``grid`` a tuple or a list, integers as strings."""
    as_strings = draw(st.booleans())
    spec = {}
    for field, value in point.items():
        if value == DEFAULTS[field] and draw(st.booleans()):
            continue  # a default left out
        if field == "grid":
            value = tuple(value) if draw(st.booleans()) else list(value)
            if as_strings:
                value = type(value)(str(n) for n in value)
        elif field in INTEGER_FIELDS and value is not None and as_strings:
            value = str(value)
        elif field == "dram_timing" and value is not None and as_strings:
            value = {key: str(n) for key, n in value.items()}
        spec[field] = value
    order = draw(st.permutations(sorted(spec)))
    return {field: spec[field] for field in order}


@st.composite
def cases(draw):
    """``(spec, kind)`` pairs: several spellings of a few points, some broken
    specs and one spec holding a ``numpy.int64``."""
    out = []
    for point in draw(st.lists(POINTS, min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            out.append((draw(spellings(point)), "valid"))
        if draw(st.booleans()):
            broken = dict(draw(spellings(point)))
            broken.update(draw(st.sampled_from(BREAKAGES)))
            out.append((broken, "invalid"))
        if draw(st.booleans()):
            odd = dict(draw(spellings(point)))
            odd["iterations"] = np.int64(point["iterations"])
            out.append((odd, "unkeyed"))
    return draw(st.permutations(out))


def never_resolving_submit(problem, request):
    return asyncio.get_running_loop().create_future()


@settings(max_examples=40, deadline=None)
@given(cases())
def test_every_spelling_is_answered_like_its_own_scalar_reference(specs):
    async def scenario():
        service = EvaluationService()
        memoized = set()
        for spec, kind in specs:
            for attempt in range(2):
                if kind == "invalid":
                    with pytest.raises(ProtocolError):
                        await service.submit(spec)
                    continue
                payload, served_by = await service.submit(spec)
                assert canonical(payload) == scalar_reference(spec)
                key = point_key(spec)
                if kind == "unkeyed":
                    assert key is None and served_by == "engine"
                else:
                    assert served_by == ("memo" if key in memoized else "engine")
                    memoized.add(key)
        assert service.memo.cache_info().currsize == len(memoized)

        # Past the watermark a bad spec is still a protocol error, while a
        # good one, memoized or not, is an overload.
        service.queue_limit = 1
        service.batcher.submit = never_resolving_submit
        held = asyncio.ensure_future(service.submit(make_point((14, 14), iterations=0)))
        await asyncio.sleep(0)
        assert service.inflight == 1
        for spec, kind in specs:
            expected = ProtocolError if kind == "invalid" else OverloadedError
            with pytest.raises(expected):
                await service.submit(spec)
        held.cancel()
        await asyncio.gather(held, return_exceptions=True)
        assert service.inflight == 0
        assert service.memo.cache_info().currsize == len(memoized)

    asyncio.run(scenario())


def test_a_numpy_valued_spec_is_answered_and_left_out_of_the_memo():
    spec = make_point((12, 13), iterations=np.int64(3))

    async def scenario():
        service = EvaluationService()
        answers = [await service.submit(spec) for _ in range(2)]
        return service, answers

    service, answers = asyncio.run(scenario())
    assert [served_by for _, served_by in answers] == ["engine", "engine"]
    for payload, _ in answers:
        assert canonical(payload) == scalar_reference(make_point((12, 13), iterations=3))
    info = service.memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
