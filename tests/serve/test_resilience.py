"""Serve-side resilience: batch timeouts, the circuit breaker, structured
error responses over TCP, and the clients' bounded jittered retries."""

import asyncio
import random
import time

import pytest

from repro.faults.breaker import CLOSED, OPEN, CircuitBreaker
from repro.serve import (
    AsyncServeClient,
    EvaluationServer,
    EvaluationService,
    EvaluationTimeout,
    EvaluationTimeoutError,
    ServiceUnavailableError,
    Unavailable,
)
from repro.serve.client import Overloaded, _retry_delay_s
from repro.serve.protocol import ProtocolError, make_point


def run(coro):
    return asyncio.run(coro)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def never_flush(key, why):
    """A hung engine: the bucket is never priced, so only its deadline ends it."""


def exploding_price(items):
    raise RuntimeError("engine exploded")


class TestBatchTimeout:
    def test_hung_flush_raises_structured_timeout(self):
        async def scenario():
            service = EvaluationService(batch_timeout_s=0.05, memo_entries=0)
            service.batcher._flush = never_flush
            with pytest.raises(EvaluationTimeoutError) as err:
                await service.submit(make_point((11, 11), iterations=2))
            assert err.value.timeout_s == 0.05
            assert service.metrics.timeouts == 1
            assert service.inflight == 0  # the admission slot was released
            assert service.breaker.snapshot()["failures"] == 1

        run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationService(batch_timeout_s=0.0)


class TestCircuitBreaker:
    def test_consecutive_engine_failures_trip_and_shed(self):
        async def scenario():
            service = EvaluationService(
                breaker_threshold=2, breaker_cooldown_ms=60_000.0, memo_entries=0
            )
            service.batcher._price = exploding_price
            point = make_point((11, 11), iterations=2)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="engine exploded"):
                    await service.submit(point)
            assert service.breaker.state == OPEN
            with pytest.raises(ServiceUnavailableError) as err:
                await service.submit(point)
            assert err.value.retry_after_ms > 0
            assert service.metrics.sheds == 1
            stats = service.stats()
            assert stats["breaker"]["state"] == OPEN
            assert stats["breaker"]["trips"] == 1
            assert stats["breaker"]["shed"] == 1
            # The exact-shape "requests" contract is untouched by resilience.
            assert set(stats["requests"]) == {
                "accepted", "completed", "rejected", "errors",
            }

        run(scenario())

    def test_breaker_recovers_through_a_probe(self):
        async def scenario():
            service = EvaluationService(
                breaker_threshold=1, breaker_cooldown_ms=50.0, memo_entries=0
            )
            clock = Clock()
            service.breaker = CircuitBreaker(threshold=1, cooldown_ms=50.0, clock=clock)
            point = make_point((11, 11), iterations=2)
            real_price = service.batcher._price
            service.batcher._price = exploding_price
            with pytest.raises(RuntimeError):
                await service.submit(point)
            assert service.breaker.state == OPEN
            # Cooldown elapses; the engine is healthy again: one probe closes.
            clock.now += 0.05
            service.batcher._price = real_price
            payload, served_by = await service.submit(point)
            assert served_by == "engine" and payload["cycles"] > 0
            assert service.breaker.state == CLOSED

        run(scenario())

    def test_a_poisoned_item_records_one_failure(self):
        async def scenario():
            service = EvaluationService(
                max_batch=4, memo_entries=0,
                breaker_threshold=2,
            )
            real_price = service.batcher._price

            def poisoned_price(items):
                if any(problem.grid.shape == (12, 11) for problem, _ in items):
                    raise RuntimeError("poisoned point")
                return real_price(items)

            failures = []
            record_failure = service.breaker.record_failure

            def counted_failure():
                failures.append(1)
                record_failure()

            service.batcher._price = poisoned_price
            service.breaker.record_failure = counted_failure
            points = [make_point((9 + i, 11), iterations=2) for i in range(4)]
            results = await asyncio.gather(
                *(service.submit(point) for point in points), return_exceptions=True
            )
            return service, results, failures

        service, results, failures = run(scenario())
        assert isinstance(results[3], RuntimeError)
        assert all(served_by == "engine" for _, served_by in results[:3])
        assert failures == [1]
        assert service.stats()["batches"]["flushes"] == 1  # one flush, then isolation
        assert service.breaker.state == CLOSED

    def test_an_unbuildable_point_is_refused_without_a_breaker_failure(self):
        async def scenario():
            service = EvaluationService(breaker_threshold=1, memo_entries=0)
            with pytest.raises(ProtocolError, match="register_elements"):
                await service.submit(make_point((11, 11), mode="custom"))
            return service

        service = run(scenario())
        assert service.breaker.snapshot()["failures"] == 0
        assert service.breaker.state == CLOSED

    def test_memo_hits_bypass_an_open_breaker(self):
        async def scenario():
            service = EvaluationService(breaker_threshold=1, breaker_cooldown_ms=60_000.0)
            point = make_point((11, 11), iterations=2)
            await service.submit(point)  # populate the memo
            service.breaker.record_failure()  # trip it
            assert service.breaker.state == OPEN
            payload, served_by = await service.submit(point)
            assert served_by == "memo" and payload["cycles"] > 0

        run(scenario())


class TestTcpResponses:
    def test_unavailable_and_timeout_reach_the_client_typed(self):
        async def scenario():
            service = EvaluationService(
                batch_timeout_s=0.05, breaker_threshold=1,
                breaker_cooldown_ms=60_000.0, memo_entries=0,
            )
            server = EvaluationServer(service=service)
            host, port = await server.start()
            try:
                async with AsyncServeClient(host, port) as client:
                    # A hung engine: structured timeout, connection survives.
                    service.batcher._flush = never_flush
                    with pytest.raises(EvaluationTimeout) as terr:
                        await client.evaluate(make_point((11, 11), iterations=2))
                    assert terr.value.timeout_s == 0.05
                    # The timeout tripped the threshold-1 breaker: shed next.
                    with pytest.raises(Unavailable) as uerr:
                        await client.evaluate(make_point((12, 11), iterations=2))
                    assert uerr.value.retry_after_ms > 0
                    assert await client.ping()  # the connection still works
                    stats = await client.stats()
                    assert stats["breaker"]["state"] == OPEN
                    assert stats["breaker"]["timeouts"] == 1
            finally:
                await server.stop()

        run(scenario())

    def test_async_retry_rides_out_a_cooldown(self):
        async def scenario():
            service = EvaluationService(memo_entries=0)
            # Time stands still until the first request is shed, then the
            # cooldown has passed: a slow first request cannot outlive it.
            service.breaker = CircuitBreaker(
                threshold=1,
                cooldown_ms=30.0,
                clock=lambda: 0.0 if service.metrics.sheds == 0 else 1.0,
            )
            server = EvaluationServer(service=service)
            host, port = await server.start()
            try:
                service.breaker.record_failure()
                assert service.breaker.state == OPEN
                async with AsyncServeClient(host, port) as client:
                    payload = await client.evaluate_retry(
                        make_point((11, 11), iterations=2),
                        max_attempts=8,
                        deadline_s=10.0,
                        rng=random.Random(0),
                    )
                assert payload["cycles"] > 0
                assert service.metrics.sheds >= 1
            finally:
                await server.stop()

        run(scenario())


class TestClientRetryBudgets:
    def test_attempt_budget_re_raises_the_last_rejection(self):
        async def scenario():
            service = EvaluationService(
                breaker_threshold=1, breaker_cooldown_ms=60_000.0, memo_entries=0
            )
            server = EvaluationServer(service=service)
            host, port = await server.start()
            try:
                service.breaker.record_failure()
                async with AsyncServeClient(host, port) as client:
                    with pytest.raises(Unavailable):
                        await client.evaluate_retry(
                            make_point((11, 11), iterations=2),
                            max_attempts=3,
                            deadline_s=0.2,  # caps the hint-length sleeps too
                            rng=random.Random(0),
                        )
                # Max three attempts were actually sent.
                assert service.metrics.sheds <= 3
            finally:
                await server.stop()

        run(scenario())

    def test_deadline_refuses_sleeps_it_cannot_afford(self):
        # A 60s hint against a 0.2s deadline: give up immediately, not in 60s.
        async def scenario():
            service = EvaluationService(
                breaker_threshold=1, breaker_cooldown_ms=60_000.0, memo_entries=0
            )
            server = EvaluationServer(service=service)
            host, port = await server.start()
            try:
                service.breaker.record_failure()
                started = time.monotonic()
                async with AsyncServeClient(host, port) as client:
                    with pytest.raises(Unavailable):
                        await client.evaluate_retry(
                            make_point((11, 11), iterations=2),
                            max_attempts=8,
                            deadline_s=0.2,
                        )
                assert time.monotonic() - started < 5.0
                assert service.metrics.sheds == 1  # no doomed retry was sent
            finally:
                await server.stop()

        run(scenario())

    def test_retry_delay_math(self):
        exc = Overloaded(1000)
        # jitter=0: the delay is exactly the hint.
        assert _retry_delay_s(
            exc, random.Random(0), 0.0, started=0.0, deadline_s=None, now=0.0
        ) == pytest.approx(1.0)
        # jitter stays within the +/- band, deterministically per rng seed.
        a = _retry_delay_s(exc, random.Random(7), 0.5, 0.0, None, 0.0)
        b = _retry_delay_s(exc, random.Random(7), 0.5, 0.0, None, 0.0)
        assert a == b and 0.5 <= a <= 1.5
        # A sleep that would cross the deadline returns None (give up).
        assert (
            _retry_delay_s(exc, random.Random(0), 0.0, 0.0, deadline_s=0.5, now=0.0)
            is None
        )
