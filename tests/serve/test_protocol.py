"""Wire protocol: canonical encoding, deterministic point lowering."""

import json

import numpy as np
import pytest

from repro.core.partition import StreamBufferMode
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import evaluate
from repro.pipeline.problem import StencilProblem
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode,
    make_point,
    parse_point,
    point_key,
    result_payload,
)


class TestEncoding:
    def test_encode_is_canonical_and_newline_terminated(self):
        line = encode({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == b'{"a":{"y":3,"z":2},"b":1}\n'

    def test_round_trip(self):
        message = {"id": 3, "verb": "evaluate", "point": {"grid": [11, 11]}}
        assert decode_line(encode(message).strip()) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{not json")
        with pytest.raises(ProtocolError):
            decode_line(b'"a bare string"')


class TestParsePoint:
    def test_defaults_are_the_paper_case(self):
        problem, request = parse_point({})
        assert problem.cache_key() == StencilProblem.paper_example(11, 11).cache_key()
        assert request.system == "smache"
        assert request.iterations == 1
        assert request.write_through is True
        assert request.dram_timing is None

    def test_full_spec_lowers_every_field(self):
        spec = {
            "grid": [24, 16],
            "mode": StreamBufferMode.REGISTER_ONLY.value,
            "max_stream_reach": 4,
            "max_total_bits": 1 << 20,
            "name": "wire-point",
            "system": "baseline",
            "iterations": 7,
            "write_through": False,
            "dram_timing": {"stream_word_cycles": 2, "random_access_cycles": 9,
                            "read_latency": 30},
        }
        problem, request = parse_point(spec)
        assert problem.grid.shape == (24, 16)
        assert problem.mode is StreamBufferMode.REGISTER_ONLY
        assert problem.max_stream_reach == 4
        assert problem.max_total_bits == 1 << 20
        assert problem.name == "wire-point"
        assert request.system == "baseline"
        assert request.iterations == 7
        assert request.write_through is False
        assert request.dram_timing == DRAMTiming(
            stream_word_cycles=2, random_access_cycles=9, read_latency=30
        )

    def test_identical_specs_share_the_stable_key(self):
        spec = make_point((13, 11), iterations=3,
                          dram_timing={"read_latency": 4, "row_words": 64})
        wire = json.loads(encode({"point": spec}))["point"]  # a wire round trip
        assert point_key(wire) == point_key(spec)
        assert json.loads(point_key(spec)) == spec

    def test_different_knobs_get_different_keys(self):
        base = make_point((13, 11), iterations=3)
        others = [
            make_point((13, 12), iterations=3),
            make_point((13, 11), iterations=4),
            make_point((13, 11), iterations=3, system="baseline"),
            make_point((13, 11), iterations=3, write_through=False),
            make_point((13, 11), iterations=3, dram_timing={"random_access_cycles": 9}),
            make_point((13, 11), iterations=3, max_stream_reach=2),
            make_point((13, 11), iterations=3, mode="r"),
            make_point((13, 11), iterations=3, word_bytes=8),
            make_point((13, 11), iterations=3, max_total_bits=1 << 16),
        ]
        keys = {point_key(spec) for spec in [base, *others]}
        assert len(keys) == len(others) + 1

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="unknown point field"):
            parse_point({"grid": [11, 11], "iteratons": 5})
        with pytest.raises(ProtocolError, match="unknown dram_timing field"):
            parse_point({"dram_timing": {"read_latency": 4, "rw_latency": 4}})

    def test_invalid_values_are_rejected(self):
        with pytest.raises(ProtocolError):
            parse_point({"grid": [11]})
        with pytest.raises(ProtocolError):
            parse_point({"grid": ["a", "b"]})
        with pytest.raises(ProtocolError):
            parse_point({"system": "quantum"})
        with pytest.raises(ProtocolError):
            parse_point({"mode": "imaginary"})
        with pytest.raises(ProtocolError):
            parse_point({"iterations": -1})
        with pytest.raises(ProtocolError):
            parse_point("not a dict")

    @pytest.mark.parametrize("spec", [
        {"word_bytes": 0},
        {"word_bytes": "x"},
        {"max_stream_reach": "abc"},
        {"max_total_bits": [1]},
    ])
    def test_bad_knob_values_are_protocol_errors(self, spec):
        with pytest.raises(ProtocolError, match=next(iter(spec))):
            parse_point(spec)

    def test_negative_stream_reach_is_refused_at_parse(self):
        with pytest.raises(ProtocolError, match="max_stream_reach must be >= 0"):
            parse_point({"max_stream_reach": -3})
        problem, _ = parse_point({"max_stream_reach": 0})
        assert problem.max_stream_reach == 0

    def test_custom_mode_without_register_elements_is_refused_at_parse(self):
        with pytest.raises(ProtocolError, match="register_elements"):
            parse_point({"mode": StreamBufferMode.CUSTOM.value})


class TestPointKey:
    """The memo key is the spec's canonical JSON text, computed unparsed."""

    def test_key_order_and_grid_sequence_type_do_not_matter(self):
        spec = {"iterations": 3, "grid": (13, 11),
                "dram_timing": {"row_words": 64, "read_latency": 4}}
        shuffled = {"dram_timing": {"read_latency": 4, "row_words": 64},
                    "grid": [13, 11], "iterations": 3}
        assert point_key(spec) == point_key(shuffled)

    def test_a_spelling_of_a_default_is_its_own_key(self):
        # One point, two spellings: two memo entries, identical payloads.
        assert point_key({"grid": [11, 11]}) != point_key(make_point((11, 11)))
        assert parse_point({"grid": [11, 11]}) == parse_point(make_point((11, 11)))

    def test_a_value_json_cannot_encode_has_no_key(self):
        assert point_key(make_point((11, 11), iterations=np.int64(3))) is None
        assert point_key({"grid": [11, 11], "name": object()}) is None


class TestResultPayload:
    def test_payload_survives_json_bitwise(self):
        problem, request = parse_point(make_point((11, 11), iterations=5))
        result = evaluate(problem, backend="analytic", request=request)
        payload = result_payload(result)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
        # The detail floats must survive exactly (canonical JSON contract).
        for key, value in payload["extra"].items():
            assert type(round_tripped["extra"][key]) is type(value), key
