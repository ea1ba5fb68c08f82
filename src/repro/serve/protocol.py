"""The evaluation service's wire protocol: JSON lines over TCP.

One request per line, one response per line, stdlib ``json`` only.  The
encoding is **canonical** (sorted keys, compact separators, ``\\n``
terminated) so two servers answering the same question produce *byte
identical* lines — the property the scalar-parity suite and the benchmark's
bitwise verification lean on.

Requests::

    {"id": 7, "verb": "evaluate", "point": {"grid": [11, 11], "iterations": 5}}
    {"id": 8, "verb": "stats"}
    {"id": 9, "verb": "ping"}

Responses::

    {"id": 7, "ok": true, "served_by": "engine", "result": {"cycles": ..., ...}}
    {"id": 7, "ok": false, "error": "overloaded", "retry_after_ms": 4}

A *point spec* is a plain dict describing one evaluation — the problem knobs
the sweep layer exposes plus the request knobs — and :func:`parse_point`
lowers it deterministically onto the exact :class:`StencilProblem` /
:class:`EvaluationRequest` pair the offline pipeline uses.  Determinism
lets a client compute the scalar reference for any spec and compare bytes.
The server's response memo keys on the spec's own canonical text
(:func:`point_key`), so a repeated spec is answered without being lowered
again; a new spec whose problem fields the server has seen before
(:func:`problem_key`) lowers only its request fields (:func:`parse_request`).

Unknown spec fields are an error, not a warning: a typo'd knob silently
falling back to a default would produce a *cached* wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.core.partition import StreamBufferMode
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import SYSTEMS, EvaluationRequest, EvaluationResult
from repro.pipeline.problem import StencilProblem

#: Protocol version, echoed by ``ping`` so clients can detect skew.
PROTOCOL_VERSION = 1

#: Every key a point spec may carry.
POINT_FIELDS = frozenset(
    {
        "grid",
        "word_bytes",
        "mode",
        "max_stream_reach",
        "max_total_bits",
        "name",
        "system",
        "iterations",
        "write_through",
        "dram_timing",
    }
)

#: The point-spec fields that lower onto the :class:`EvaluationRequest`;
#: every other field describes the problem.
REQUEST_FIELDS = frozenset({"system", "iterations", "write_through", "dram_timing"})

_TIMING_FIELDS = frozenset(
    {
        "stream_word_cycles",
        "random_access_cycles",
        "read_latency",
        "row_words",
        "row_miss_penalty",
    }
)

_MODES = {mode.value: mode for mode in StreamBufferMode}


class ProtocolError(ValueError):
    """A malformed request or point spec (reported to the client, not fatal)."""


def encode(message: Dict[str, Any]) -> bytes:
    """One canonical JSON line: sorted keys, compact, newline-terminated."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable request line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


# --------------------------------------------------------------------------- #
# point specs
# --------------------------------------------------------------------------- #
def parse_point(spec: Dict[str, Any]) -> Tuple[StencilProblem, EvaluationRequest]:
    """Lower a wire point spec onto the pipeline's (problem, request) pair.

    The mapping is total and deterministic: every field has a default (the
    paper's 11x11 validation case, one smache iteration), identical specs
    produce problems with identical :meth:`~StencilProblem.cache_key`\\ s,
    and unknown fields raise :class:`ProtocolError`.  It is
    :func:`parse_problem` followed by :func:`parse_request`.
    """
    return parse_problem(spec), parse_request(spec)


def parse_problem(spec: Dict[str, Any]) -> StencilProblem:
    """Lower the problem fields of a wire point spec (every field not in
    :data:`REQUEST_FIELDS`); an unknown field raises :class:`ProtocolError`.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("point must be a JSON object")
    unknown = set(spec) - POINT_FIELDS
    if unknown:
        raise ProtocolError(f"unknown point field(s): {sorted(unknown)}")

    grid = spec.get("grid", (11, 11))
    if not isinstance(grid, (list, tuple)) or len(grid) != 2:
        raise ProtocolError(f"grid must be [rows, cols], got {grid!r}")
    try:
        rows, cols = int(grid[0]), int(grid[1])
    except (TypeError, ValueError):
        raise ProtocolError(f"grid must hold integers, got {grid!r}") from None

    try:
        problem = StencilProblem.paper_example(rows, cols)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid grid {grid!r}: {exc}") from None

    overrides: Dict[str, Any] = {}
    if "word_bytes" in spec:
        overrides["grid"] = type(problem.grid)(
            shape=problem.grid.shape,
            word_bytes=_integer("word_bytes", spec["word_bytes"], minimum=1),
        )
    if "mode" in spec:
        mode = spec["mode"]
        if mode not in _MODES:
            raise ProtocolError(f"unknown mode {mode!r}; expected one of {sorted(_MODES)}")
        overrides["mode"] = _MODES[mode]
    if "max_stream_reach" in spec:
        reach = spec["max_stream_reach"]
        overrides["max_stream_reach"] = (
            None if reach is None else _integer("max_stream_reach", reach, minimum=0)
        )
    if "max_total_bits" in spec:
        bits = spec["max_total_bits"]
        overrides["max_total_bits"] = None if bits is None else _integer("max_total_bits", bits)
    if "name" in spec:
        overrides["name"] = str(spec["name"])
    if overrides:
        try:
            problem = replace(problem, **overrides)
        except ValueError as exc:
            raise ProtocolError(f"invalid point: {exc}") from None
    return problem


def parse_request(spec: Dict[str, Any]) -> EvaluationRequest:
    """Lower the request fields of a wire point spec (:data:`REQUEST_FIELDS`).

    Reads only those fields: :func:`parse_problem` is what refuses an
    unknown one.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("point must be a JSON object")
    timing: Optional[DRAMTiming] = None
    if spec.get("dram_timing") is not None:
        raw = spec["dram_timing"]
        if not isinstance(raw, dict):
            raise ProtocolError("dram_timing must be a JSON object")
        unknown = set(raw) - _TIMING_FIELDS
        if unknown:
            raise ProtocolError(f"unknown dram_timing field(s): {sorted(unknown)}")
        try:
            timing = DRAMTiming(**{key: int(value) for key, value in raw.items()})
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid dram_timing: {exc}") from None

    system = spec.get("system", "smache")
    if system not in SYSTEMS:
        raise ProtocolError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    try:
        request = EvaluationRequest(
            system=system,
            iterations=int(spec.get("iterations", 1)),
            write_through=bool(spec.get("write_through", True)),
            dram_timing=timing,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid request knobs: {exc}") from None
    return request


def _integer(field: str, value: Any, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``, or a :class:`ProtocolError` naming ``field``."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"{field} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ProtocolError(f"{field} must be >= {minimum}, got {number}")
    return number


def point_key(spec: Any) -> Optional[str]:
    """The response memo's key of a wire point spec: its canonical JSON text.

    Sorted keys and compact separators, so neither key order nor a tuple
    vs a list splits one spelling of a point into several keys.
    Computing it costs one ``dumps`` and no parsing, so a memo hit never
    lowers the spec.  Two spellings of one point (a default omitted vs
    stated) get two keys and, once each is answered, two entries with
    identical payloads.  A spec holding a value JSON cannot encode (say a
    ``numpy.int64``) has no key (``None``): it is answered, but bypasses
    the memo.
    """
    try:
        return json.dumps(spec, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None


def problem_key(spec: Any) -> Optional[str]:
    """The problem intern's key: the canonical JSON text of ``spec`` without
    its :data:`REQUEST_FIELDS`.

    Specs that differ only in their request knobs share it, so the problem
    they describe is lowered once.  A spec that is not a dict, or whose
    problem part JSON cannot encode, has no key (``None``).
    """
    if not isinstance(spec, dict):
        return None
    return point_key({field: value for field, value in spec.items()
                      if field not in REQUEST_FIELDS})


def result_payload(result: EvaluationResult) -> Dict[str, Any]:
    """The JSON-able body of an ``evaluate`` response.

    Carries everything the analytic backend computes — counters plus the
    model's ``extra`` detail — with native int/float types, so a canonical
    encode of this dict is bitwise-comparable against one built from the
    scalar reference path.
    """
    return {
        "system": result.system,
        "iterations": result.iterations,
        "cycles": result.cycles,
        "dram_words_read": result.dram_words_read,
        "dram_words_written": result.dram_words_written,
        "dram_bytes": result.dram_bytes,
        "operations": result.operations,
        "extra": dict(result.extra),
    }


#: Sentinel distinguishing "field not supplied" from an explicit ``None``.
_UNSET: Any = object()


def make_point(
    grid: Tuple[int, int] = (11, 11),
    *,
    system: str = "smache",
    iterations: int = 1,
    write_through: bool = True,
    max_stream_reach: Optional[int] = _UNSET,
    dram_timing: Optional[Dict[str, int]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Convenience builder for point specs (clients, benchmarks, tests)."""
    spec: Dict[str, Any] = {
        "grid": [int(grid[0]), int(grid[1])],
        "system": system,
        "iterations": iterations,
        "write_through": write_through,
    }
    if max_stream_reach is not _UNSET:
        spec["max_stream_reach"] = max_stream_reach
    if dram_timing is not None:
        spec["dram_timing"] = dict(dram_timing)
    spec.update(extra)
    return spec
