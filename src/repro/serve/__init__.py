"""An always-on evaluation service over the vectorized analytic engine.

``repro.serve`` turns the batch-only speed of
:class:`~repro.pipeline.analytic_batch.AnalyticBatchEngine` into low-latency
interactive throughput: concurrent single-point requests are micro-batched
into engine calls (:mod:`repro.serve.batcher`), repeated point specs are
answered unparsed from a memo keyed by each spec's canonical JSON text (a
bounded :class:`~repro.pipeline.cache.PlanCache` of response payloads),
each distinct problem is lowered once (an intern of parsed problems keyed
by the spec's problem fields), admission is bounded with backpressure, and
everything is reachable over a stdlib-only TCP/JSON-lines protocol
(:mod:`repro.serve.protocol`) with blocking and asyncio clients
(:mod:`repro.serve.client`).

Quickstart::

    python -m repro.serve serve --port 7571          # terminal 1
    python -m repro.serve bench-client --port 7571   # terminal 2

or in-process::

    from repro.api import Workbench
    result = await Workbench().evaluate_async(problem, iterations=5)
"""

from repro.serve.batcher import AdaptiveBatcher
from repro.serve.client import (
    AsyncServeClient,
    EvaluationTimeout,
    Overloaded,
    ServeClient,
    ServeError,
    Unavailable,
)
from repro.serve.metrics import LatencyReservoir, ServerMetrics
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    make_point,
    parse_point,
    point_key,
    result_payload,
)
from repro.serve.server import (
    EvaluationServer,
    EvaluationService,
    EvaluationTimeoutError,
    OverloadedError,
    ServiceUnavailableError,
    run_server,
)

__all__ = [
    "AdaptiveBatcher",
    "AsyncServeClient",
    "EvaluationServer",
    "EvaluationService",
    "EvaluationTimeout",
    "EvaluationTimeoutError",
    "LatencyReservoir",
    "Overloaded",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServerMetrics",
    "ServiceUnavailableError",
    "Unavailable",
    "make_point",
    "parse_point",
    "point_key",
    "result_payload",
    "run_server",
]
