"""The always-on evaluation service over the vectorized pricing engine.

Two layers:

* :class:`EvaluationService` — the protocol-independent core: the
  spec-keyed response memo, point-spec parsing behind a problem intern
  (each distinct problem is lowered once), admission control with
  backpressure, the micro-batcher, and the pricing flush.  A flush
  holds whatever requests were pending — mixed systems, iterations, write
  policies, DRAM timings — and is priced by one vectorized
  :meth:`AnalyticBatchEngine.price` fold in which every item keeps its own
  request (the scalar reference loop when the service is built with
  ``scalar=True`` — byte-identical responses either way).
  In-process callers (``Workbench.evaluate_async``, tests) use it directly.

* :class:`EvaluationServer` — the stdlib asyncio TCP front: JSON lines in,
  JSON lines out (:mod:`repro.serve.protocol`), one task per request so a
  pipelining client keeps many evaluations in flight on one connection —
  which is exactly what gives the batcher something to batch.

Bounded memory is a design rule, not an aspiration: the admission counter
rejects beyond ``queue_limit`` (clients get ``retry_after_ms`` instead of
the server growing an unbounded queue), the response memo, the problem
intern, the plan cache and the engine's knob, packed-session and fold
caches are all bounded :class:`~repro.pipeline.cache.PlanCache` LRUs, the
metrics reservoir is bounded, and a disconnected client's pending futures
are cancelled, priced results dropped on the floor, never retained.

Resilience: every micro-batch runs under one ``batch_timeout_s`` deadline,
armed when its bucket opens and cancelled when it flushes (a hung flush
fails each of its requests with a structured ``timeout`` response rather
than pinning their slots; one timer per bucket, not one per request), and
consecutive engine failures trip a circuit breaker
(:class:`repro.faults.breaker.CircuitBreaker`) that sheds new evaluations
with an ``unavailable`` + ``retry_after_ms`` response until a cooldown
probe succeeds; memo hits bypass the breaker.  ``/stats`` reports the
breaker state, trips, sheds and timeouts.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.api.workbench import Workbench
from repro.faults.breaker import CircuitBreaker
from repro.pipeline.backends import EvaluationResult, evaluate
from repro.pipeline.cache import PlanCache, plan_cache
from repro.pipeline.compile import compile_batch
from repro.serve.batcher import AdaptiveBatcher, BucketTimeoutError, Item
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    parse_point,
    parse_request,
    point_key,
    problem_key,
    result_payload,
)


#: The ``retry_after_ms`` hint of an ``overloaded`` response.  Buckets flush
#: as soon as the event loop yields, so admission slots free up within
#: milliseconds of a burst; a retry this much later meets room again.
OVERLOAD_RETRY_AFTER_MS = 4


class OverloadedError(RuntimeError):
    """Raised (and reported to clients) when admission is over the watermark."""

    def __init__(self, retry_after_ms: int) -> None:
        super().__init__(f"service overloaded; retry after {retry_after_ms} ms")
        self.retry_after_ms = retry_after_ms


class ServiceUnavailableError(RuntimeError):
    """The circuit breaker is open: the engine has been failing; back off."""

    def __init__(self, retry_after_ms: int) -> None:
        super().__init__(f"service unavailable; retry after {retry_after_ms} ms")
        self.retry_after_ms = retry_after_ms


class EvaluationTimeoutError(RuntimeError):
    """An admitted evaluation did not come back within the batch timeout."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"evaluation timed out after {timeout_s:g} s")
        self.timeout_s = timeout_s


class EvaluationService:
    """Micro-batched analytic evaluation behind one shared Workbench session.

    Parameters
    ----------
    workbench:
        The session whose plan cache and pricing engine this service shares;
        a fresh one is created when omitted.  Sharing matters: an in-process
        ``evaluate_async`` caller and the TCP front then hit the same
        compiled designs and extracted pricing knobs.
    max_batch:
        Most points one flush prices; a bucket that fills flushes at once,
        any other when the event loop yields (see
        :class:`~repro.serve.batcher.AdaptiveBatcher`).
    queue_limit:
        Admission high-watermark: evaluations in flight beyond this are
        rejected with a ``retry_after_ms`` hint instead of queued.
    memo_entries:
        Bound of the response memo, keyed by each spec's canonical JSON
        text (:func:`~repro.serve.protocol.point_key`); 0 disables it.
        The problem intern behind it (:attr:`problems`, keyed by
        :func:`~repro.serve.protocol.problem_key`) is bounded like the
        session's plan cache.
    scalar:
        Force the per-request scalar reference path (no vectorized folds,
        no memo, no problem intern) — the benchmark's baseline serving mode.
    batch_timeout_s:
        Deadline of each micro-batch, counted from when its bucket opens:
        a flush that hangs past it fails each of its requests with a
        structured timeout instead of pinning the connections (and their
        admission slots) forever.
    breaker_threshold / breaker_cooldown_ms:
        Circuit breaker shape: after ``breaker_threshold`` consecutive
        engine failures the breaker opens and evaluations are shed with a
        ``retry_after_ms`` hint for ``breaker_cooldown_ms``, then a single
        probe decides between closing and re-opening.
    """

    def __init__(
        self,
        workbench: Optional[Workbench] = None,
        *,
        max_batch: int = 64,
        queue_limit: int = 1024,
        memo_entries: int = 4096,
        scalar: bool = False,
        batch_timeout_s: float = 30.0,
        breaker_threshold: int = 5,
        breaker_cooldown_ms: float = 1000.0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive")
        self.workbench = workbench if workbench is not None else Workbench()
        self.engine = self.workbench.analytic_engine
        self.cache = self.workbench.cache
        self.queue_limit = queue_limit
        self.scalar = scalar
        # Response memo: canonical spec text -> response payload.  Payloads
        # are never mutated once stored; a hit hands the stored dict
        # straight to the encoder.
        self.memo: Optional[PlanCache] = (
            PlanCache(memo_entries) if memo_entries > 0 and not scalar else None
        )
        # Problem intern: canonical text of a spec's problem fields -> the
        # StencilProblem they lower to, so a memo miss on a problem seen
        # before parses only its request fields and reuses the problem's
        # memoized cache key.  Bounded like the plan cache it feeds.
        bound = (self.cache if self.cache is not None else plan_cache).max_entries
        self.problems: Optional[PlanCache] = None if scalar else PlanCache(bound)
        self.metrics = ServerMetrics()
        self.batcher = AdaptiveBatcher(
            self._price,
            max_batch=1 if scalar else max_batch,
            on_flush=lambda size, why: self.metrics.record_batch(size),
            timeout_s=batch_timeout_s,
        )
        self.batch_timeout_s = batch_timeout_s
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_ms=breaker_cooldown_ms
        )
        self._inflight = 0

    # ------------------------------------------------------------------ #
    @property
    def inflight(self) -> int:
        """Evaluations admitted and not yet answered."""
        return self._inflight

    def _price(self, items: List[Item]) -> List[EvaluationResult]:
        """One flush, each item under its own request; scalar is the reference."""
        if self.scalar:
            return [
                evaluate(problem, backend="analytic", request=request, cache=self.cache)
                for problem, request in items
            ]
        designs = compile_batch([problem for problem, _ in items], cache=self.cache)
        return self.engine.price(
            [(design, request) for design, (_, request) in zip(designs, items)],
            with_artifacts=False,
        )

    # ------------------------------------------------------------------ #
    async def submit(self, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
        """Admit, evaluate and answer one point spec.

        Returns ``(payload, served_by)`` with ``served_by`` one of ``memo``
        or ``engine``.  Raises :class:`~repro.serve.protocol.ProtocolError`
        on a bad spec (even past the watermark), :class:`OverloadedError`
        past the admission watermark and :class:`ServiceUnavailableError`
        while the circuit breaker is open — all before any state is queued.
        An admitted evaluation whose bucket is still unpriced
        ``batch_timeout_s`` after the bucket opened raises
        :class:`EvaluationTimeoutError` (and counts as one breaker failure
        and one timeout); the deadline belongs to the bucket, not to each
        request, so the batcher's future is awaited directly.

        A memo hit is looked up by the spec's canonical text and is never
        parsed: only a spec that was answered before can hit, and errors
        are never stored.  A memo miss whose problem fields were lowered
        before parses only its request fields (see :meth:`_lower`).
        """
        if self._inflight >= self.queue_limit:
            parse_point(spec)  # a bad spec is a protocol error, not an overload
            self.metrics.record_rejected()
            raise OverloadedError(OVERLOAD_RETRY_AFTER_MS)
        started = time.perf_counter()
        memo, key = self.memo, None
        if memo is not None:
            key = point_key(spec)
            payload = memo.get(key) if key is not None else None
            if payload is not None:
                # Memo hits never touch the engine, so a tripped breaker
                # does not shed them — cached answers stay cheap and safe.
                self.metrics.record_accepted()
                self.metrics.record_completed(time.perf_counter() - started)
                return payload, "memo"
        problem, request = self._lower(spec)
        if not self.breaker.allow():
            self.metrics.record_shed()
            raise ServiceUnavailableError(self.breaker.retry_after_ms())
        self.metrics.record_accepted()
        self._inflight += 1
        try:
            result = await self.batcher.submit(problem, request)
        except BucketTimeoutError:
            self.breaker.record_failure()
            self.metrics.record_timeout()
            raise EvaluationTimeoutError(self.batch_timeout_s) from None
        except asyncio.CancelledError:
            raise  # a disconnecting client is not an engine failure
        except Exception:
            self.breaker.record_failure()
            raise
        finally:
            self._inflight -= 1
        self.breaker.record_success()
        payload = result_payload(result)
        if memo is not None and key is not None:
            memo.put(key, payload)
        self.metrics.record_completed(time.perf_counter() - started)
        return payload, "engine"

    def _lower(self, spec: Dict[str, Any]) -> Item:
        """Lower a memo miss, reusing the interned problem of its problem fields.

        A spec whose problem fields were lowered before parses only its
        request fields; any other spec is lowered whole and, if valid, its
        problem is interned.  Errors are never interned, and an unknown
        field is part of the key, so a spec carrying one never hits.
        """
        problems = self.problems
        if problems is None or (key := problem_key(spec)) is None:
            return parse_point(spec)  # the scalar reference path, or unkeyable
        problem = problems.get(key)
        if problem is not None:
            return problem, parse_request(spec)
        problem, request = parse_point(spec)
        problems.put(key, problem)
        return problem, request

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: throughput, latency, batching, caches."""
        engine_info = self.engine.cache_info()
        extra: Dict[str, Any] = {
            "inflight": self._inflight,
            "queue_limit": self.queue_limit,
            "scalar": self.scalar,
            "memo": (
                self.memo.cache_info()._asdict() if self.memo is not None else None
            ),
            "problems": (
                self.problems.cache_info()._asdict() if self.problems is not None else None
            ),
            "engine": engine_info._asdict(),
            "engine_hit_rates": {
                "packed_session": round(engine_info.session_hit_rate, 4),
                "fold_memo": round(engine_info.fold_hit_rate, 4),
            },
            "plan_cache": self.workbench.cache_info()._asdict(),
        }
        breaker = self.breaker.snapshot()
        breaker["shed"] = self.metrics.sheds
        breaker["timeouts"] = self.metrics.timeouts
        extra["breaker"] = breaker
        extra["batch_timeout_s"] = self.batch_timeout_s
        return self.metrics.snapshot(extra)


class EvaluationServer:
    """Asyncio TCP front for an :class:`EvaluationService` (JSON lines)."""

    def __init__(
        self,
        service: Optional[EvaluationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass either a service or service kwargs, not both")
        self.service = service if service is not None else EvaluationService(**service_kwargs)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection handlers and their stream writers.
        self._connections: "Dict[asyncio.Task, asyncio.StreamWriter]" = {}

    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, close the listener, and tear down live connections.

        Closing a connection's transport (not cancelling its handler) lets the
        handler read EOF, cancel its in-flight requests and return cleanly.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if server is not None:
            await server.wait_closed()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's main loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._connections[me] = writer
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()

        async def respond(message: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode(message))
                await writer.drain()

        async def handle_request(message: Dict[str, Any]) -> None:
            request_id = message.get("id")
            try:
                verb = message.get("verb", "evaluate")
                if verb == "ping":
                    await respond(
                        {"id": request_id, "ok": True, "result": "pong",
                         "protocol": PROTOCOL_VERSION}
                    )
                elif verb == "stats":
                    await respond({"id": request_id, "ok": True, "result": self.service.stats()})
                elif verb == "evaluate":
                    payload, served_by = await self.service.submit(message.get("point", {}))
                    await respond(
                        {"id": request_id, "ok": True, "served_by": served_by,
                         "result": payload}
                    )
                else:
                    await respond(
                        {"id": request_id, "ok": False, "error": f"unknown verb {verb!r}"}
                    )
            except OverloadedError as exc:
                await respond(
                    {"id": request_id, "ok": False, "error": "overloaded",
                     "retry_after_ms": exc.retry_after_ms}
                )
            except ServiceUnavailableError as exc:
                await respond(
                    {"id": request_id, "ok": False, "error": "unavailable",
                     "retry_after_ms": exc.retry_after_ms}
                )
            except EvaluationTimeoutError as exc:
                await respond(
                    {"id": request_id, "ok": False, "error": "timeout",
                     "timeout_s": exc.timeout_s}
                )
            except ProtocolError as exc:
                self.service.metrics.record_error()
                await respond({"id": request_id, "ok": False, "error": str(exc)})
            except asyncio.CancelledError:
                raise
            except ConnectionError:
                pass  # client went away while we were writing
            except Exception as exc:  # noqa: BLE001 — report, don't kill the connection
                self.service.metrics.record_error()
                try:
                    await respond(
                        {"id": request_id, "ok": False,
                         "error": f"internal error: {type(exc).__name__}: {exc}"}
                    )
                except ConnectionError:
                    pass

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    message = decode_line(stripped)
                except ProtocolError as exc:
                    self.service.metrics.record_error()
                    await respond({"id": None, "ok": False, "error": str(exc)})
                    continue
                # One task per request: later requests on the same connection
                # are admitted while earlier ones wait in the batcher —
                # pipelining is what fills the batch.
                task = asyncio.ensure_future(handle_request(message))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Cancel whatever this connection still has in flight; the
            # batcher skips cancelled waiters, so no future outlives us.
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # CancelledError here is the loop tearing the handler down
                # mid-close; the transport is gone either way.
                pass
            if me is not None:
                self._connections.pop(me, None)


async def run_server(
    host: str = "127.0.0.1", port: int = 0, **service_kwargs: Any
) -> EvaluationServer:
    """Start a server (mostly for interactive / notebook use)."""
    server = EvaluationServer(host=host, port=port, **service_kwargs)
    await server.start()
    return server
