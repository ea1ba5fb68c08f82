"""End-to-end evaluation service: TCP round trips, memo, backpressure,
scalar-path parity, and the no-leaked-futures disconnect contract."""

import asyncio
import json
import queue
import threading

import pytest

from repro.pipeline.analytic_batch import EngineCacheInfo
from repro.pipeline.backends import evaluate
from repro.serve import (
    AsyncServeClient,
    EvaluationServer,
    Overloaded,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import encode, make_point, parse_point, result_payload
from repro.serve.server import OVERLOAD_RETRY_AFTER_MS


def run(coro):
    return asyncio.run(coro)


def canonical(payload):
    """The wire's canonical JSON — byte-compare responses with this."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def scalar_reference(spec):
    """What the scalar analytic backend answers for a point spec."""
    problem, request = parse_point(spec)
    return result_payload(evaluate(problem, backend="analytic", request=request))


async def wait_until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not met in time"
        await asyncio.sleep(0.01)


def mixed_points(count, unique):
    """``count`` specs cycling over ``unique`` distinct grids (duplicates on
    purpose: they exercise the memo and fill batches)."""
    return [
        make_point((9 + (i % unique), 11), iterations=3) for i in range(count)
    ]


def serve_points(points, **service_kwargs):
    """Start a fresh server, evaluate every point concurrently, tear down."""

    async def main():
        server = EvaluationServer(**service_kwargs)
        host, port = await server.start()
        try:
            async with AsyncServeClient(host, port) as client:
                return await asyncio.gather(*(client.evaluate(p) for p in points))
        finally:
            await server.stop()

    return run(main())


class TestEndToEnd:
    def test_concurrent_mixed_load_is_bitwise_scalar(self):
        points = mixed_points(40, unique=8)
        payloads = serve_points(points)
        for point, payload in zip(points, payloads):
            assert canonical(payload) == canonical(scalar_reference(point))

    def test_duplicate_point_is_served_from_memo(self):
        async def main():
            server = EvaluationServer()
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    spec = make_point((14, 12), iterations=2)
                    first = await client.evaluate_full(spec)
                    second = await client.evaluate_full(spec)
            finally:
                await server.stop()
            assert first["served_by"] == "engine"
            assert second["served_by"] == "memo"
            assert canonical(first["result"]) == canonical(second["result"])

        run(main())

    def test_full_buckets_flush_as_batches(self):
        async def main():
            server = EvaluationServer(max_batch=4)
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    points = [make_point((9 + i, 13), iterations=2) for i in range(8)]
                    await asyncio.gather(*(client.evaluate(p) for p in points))
                    return await client.stats()
            finally:
                await server.stop()

        stats = run(main())
        assert stats["requests"]["completed"] == 8
        assert stats["batches"]["histogram"].get("4", 0) >= 1

    def test_stats_shape(self):
        async def main():
            server = EvaluationServer()
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    assert await client.ping()
                    await client.evaluate(make_point((11, 11), iterations=1))
                    return await client.stats()
            finally:
                await server.stop()

        stats = run(main())
        assert stats["requests"] == {
            "accepted": 1, "completed": 1, "rejected": 0, "errors": 0
        }
        assert stats["latency"]["count"] == 1
        assert stats["throughput_rps"] > 0
        assert stats["scalar"] is False
        assert stats["memo"]["currsize"] == 1
        assert set(stats["engine"]) == set(EngineCacheInfo._fields)
        assert stats["engine"]["session_currsize"] >= 0
        assert set(stats["engine_hit_rates"]) == {"packed_session", "fold_memo"}
        assert stats["plan_cache"]["currsize"] >= 1
        assert stats["inflight"] == 0

    def test_errors_do_not_kill_the_connection(self):
        async def main():
            server = EvaluationServer()
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    with pytest.raises(ServeError, match="unknown point field"):
                        await client.evaluate({"gird": [11, 11]})
                    response = await client.request("frobnicate")
                    assert response["ok"] is False
                    assert "unknown verb" in response["error"]
                    # The connection survives both errors.
                    payload = await client.evaluate(make_point((11, 11)))
                    stats = await client.stats()
            finally:
                await server.stop()
            assert payload["cycles"] > 0
            assert stats["requests"]["errors"] >= 1

        run(main())

    def test_bad_knob_values_get_the_protocol_error(self):
        async def main():
            server = EvaluationServer()
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    replies = [
                        await client.request("evaluate", point=point)
                        for point in ({"word_bytes": "x"}, {"max_stream_reach": -3},
                                      {"max_total_bits": [1]})
                    ]
                    stats = await client.stats()
            finally:
                await server.stop()
            return replies, stats, server.service

        replies, stats, service = run(main())
        assert [reply["ok"] for reply in replies] == [False] * 3
        assert replies[0]["error"] == "word_bytes must be an integer, got 'x'"
        assert replies[1]["error"] == "max_stream_reach must be >= 0, got -3"
        assert replies[2]["error"] == "max_total_bits must be an integer, got [1]"
        assert stats["requests"]["errors"] == 3
        # Refused before admission: nothing reached a flush or the breaker.
        assert stats["batches"]["flushes"] == 0
        assert service.breaker.snapshot()["failures"] == 0

    def test_sync_client_round_trip(self):
        box = queue.Queue()

        def serve():
            async def main():
                server = EvaluationServer()
                _, port = await server.start()
                stop = asyncio.Event()
                box.put((asyncio.get_running_loop(), stop, port))
                await stop.wait()
                await server.stop()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        loop, stop, port = box.get(timeout=10)
        try:
            spec = make_point((15, 13), iterations=4)
            with ServeClient("127.0.0.1", port) as client:
                assert client.ping()
                payload = client.evaluate(spec)
                assert canonical(payload) == canonical(scalar_reference(spec))
                stats = client.stats()
                assert stats["requests"]["completed"] == 1
        finally:
            loop.call_soon_threadsafe(stop.set)
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestScalarParity:
    """A ``scalar=True`` service routes through the per-request scalar path
    with responses byte-identical to the scalar reference."""

    def test_scalar_service_mode_is_byte_identical(self):
        points = mixed_points(10, unique=10)
        payloads = serve_points(points, scalar=True)
        for point, payload in zip(points, payloads):
            assert canonical(payload) == canonical(scalar_reference(point))

    def test_scalar_service_mode_disables_the_memo(self):
        async def main():
            server = EvaluationServer(scalar=True)
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    spec = make_point((11, 11), iterations=2)
                    first = await client.evaluate_full(spec)
                    second = await client.evaluate_full(spec)
                    stats = await client.stats()
            finally:
                await server.stop()
            assert first["served_by"] == "engine"
            assert second["served_by"] == "engine"  # no memo in scalar mode
            assert stats["scalar"] is True and stats["memo"] is None

        run(main())


class TestBackpressure:
    """Satellite: queue overflow rejects cleanly and a disconnected client
    leaks no queued futures."""

    def test_overflow_rejects_with_retry_hint(self):
        async def main():
            server = EvaluationServer(queue_limit=2)
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    points = [make_point((9 + i, 17), iterations=2) for i in range(8)]
                    outcomes = await asyncio.gather(
                        *(client.evaluate(p) for p in points),
                        return_exceptions=True,
                    )
                    stats = await client.stats()
            finally:
                await server.stop()
            return outcomes, stats, server.service

        outcomes, stats, service = run(main())
        overloads = [o for o in outcomes if isinstance(o, Overloaded)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(served) == 2 and len(overloads) == 6
        assert OVERLOAD_RETRY_AFTER_MS >= 1
        assert all(o.retry_after_ms == OVERLOAD_RETRY_AFTER_MS for o in overloads)
        assert stats["requests"]["rejected"] == 6
        assert stats["requests"]["completed"] == 2
        assert service.inflight == 0 and service.batcher.pending() == 0

    def test_retry_eventually_drains_the_queue(self):
        async def main():
            server = EvaluationServer(queue_limit=2)
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    points = [make_point((9 + i, 19), iterations=2) for i in range(10)]
                    payloads = await asyncio.gather(
                        *(client.evaluate_retry(p, max_attempts=50) for p in points)
                    )
            finally:
                await server.stop()
            return points, payloads

        points, payloads = run(main())
        assert len(payloads) == 10
        for point, payload in zip(points, payloads):
            assert canonical(payload) == canonical(scalar_reference(point))

    def test_disconnect_leaks_no_queued_futures(self):
        async def main():
            server = EvaluationServer()
            service = server.service
            batcher = service.batcher
            # Hold the bucket's flush, as a loop busy elsewhere would.
            held = []
            batcher._flush = lambda key, why: held.append((key, why))
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(
                    encode({"id": i, "verb": "evaluate",
                            "point": make_point((9 + i, 23), iterations=2)})
                    for i in range(3)
                ))
                await writer.drain()
                # All three admitted into one (unflushed) bucket...
                await wait_until(lambda: batcher.pending() == 3)
                assert service.inflight == 3 and held == [("pending", "yield")]
                # ...then the client vanishes before the flush runs.
                writer.close()
                await writer.wait_closed()
                await wait_until(lambda: service.inflight == 0)
                # The flush prices the bucket but every waiter is cancelled:
                # results are dropped, nothing is queued, nothing leaks.
                del batcher._flush
                batcher.flush_all()
                assert batcher.pending() == 0
                assert service.stats()["batches"]["flushes"] == 1
                assert service.metrics.completed == 0
            finally:
                await server.stop()

        run(main())
