"""The micro-batcher: one bucket, flushed when full or when the loop yields,
failure isolation, no batching timer and one deadline per bucket."""

import asyncio
import json

import pytest

from repro.api import Workbench
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import EvaluationRequest, evaluate
from repro.pipeline.problem import StencilProblem
from repro.serve import EvaluationService
from repro.serve.batcher import AdaptiveBatcher, BucketTimeoutError
from repro.serve.protocol import make_point, parse_point, result_payload


def run(coro):
    return asyncio.run(coro)


def echo_pricer(calls):
    """A pricer that records each flush's items and answers with the inputs."""

    def price(items):
        calls.append(list(items))
        return [(problem, request) for problem, request in items]

    return price


PROBLEM = StencilProblem.paper_example(11, 11)


class TestFlushing:
    def test_size_triggered_flush_prices_one_batch(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=4)

        async def main():
            request = EvaluationRequest(iterations=2)
            results = await asyncio.gather(
                *(batcher.submit(PROBLEM, request) for _ in range(4))
            )
            return results

        results = run(main())
        assert len(calls) == 1
        assert len(calls[0]) == 4
        assert all(problem is PROBLEM for problem, _ in results)
        assert batcher.pending() == 0

    def test_yield_flush_delivers_partial_bucket(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100)

        async def main():
            return await batcher.submit(PROBLEM, EvaluationRequest(iterations=2))

        result = run(main())
        assert result[0] is PROBLEM
        assert len(calls) == 1 and len(calls[0]) == 1

    def test_mixed_signatures_share_one_flush(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=4)
        requests = [
            EvaluationRequest(iterations=1),
            EvaluationRequest(iterations=9, system="baseline"),
            EvaluationRequest(iterations=0, write_through=False),
            EvaluationRequest(iterations=3, dram_timing=DRAMTiming(read_latency=9)),
        ]

        async def main():
            return await asyncio.gather(
                *(batcher.submit(PROBLEM, request) for request in requests)
            )

        results = run(main())
        assert len(calls) == 1
        assert [request for _, request in calls[0]] == requests
        assert [request for _, request in results] == requests

    def test_pricing_error_fans_out_to_all_waiters(self):
        def explode(items):
            raise RuntimeError("boom")

        batcher = AdaptiveBatcher(explode, max_batch=2)

        async def main():
            request = EvaluationRequest()
            results = await asyncio.gather(
                batcher.submit(PROBLEM, request),
                batcher.submit(PROBLEM, request),
                return_exceptions=True,
            )
            return results

        results = run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert batcher.pending() == 0

    def test_a_bad_point_fails_only_its_own_waiter(self):
        poisoned = StencilProblem.paper_example(12, 11)
        calls = []

        def price(items):
            calls.append(len(items))
            if any(problem is poisoned for problem, _ in items):
                raise RuntimeError("poisoned point")
            return [(problem, request) for problem, request in items]

        batcher = AdaptiveBatcher(price, max_batch=4)

        async def main():
            request = EvaluationRequest()
            return await asyncio.gather(
                *(batcher.submit(problem, request)
                  for problem in (PROBLEM, poisoned, PROBLEM, PROBLEM)),
                return_exceptions=True,
            )

        results = run(main())
        assert isinstance(results[1], RuntimeError)
        assert [results[i][0] for i in (0, 2, 3)] == [PROBLEM] * 3
        assert calls == [4, 1, 1, 1, 1]  # the flush, then each item alone
        assert batcher.pending() == 0

    def test_short_pricing_is_reported_not_hung(self):
        batcher = AdaptiveBatcher(lambda items: [], max_batch=1)

        async def main():
            with pytest.raises(RuntimeError, match="0 results for 1"):
                await batcher.submit(PROBLEM, EvaluationRequest())

        run(main())

    def test_cancelled_waiters_are_skipped_and_nothing_leaks(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=10)

        async def main():
            request = EvaluationRequest()
            doomed = batcher.submit(PROBLEM, request)
            survivor = batcher.submit(PROBLEM, request)
            # The waiter goes away in the submitting turn, before the flush.
            doomed.cancel()
            result = await survivor
            assert result[0] is PROBLEM
            assert doomed.cancelled()

        run(main())
        assert len(calls) == 1 and len(calls[0]) == 2
        assert batcher.pending() == 0

    def test_flush_all_drains_every_bucket(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100)

        async def main():
            futures = [
                batcher.submit(PROBLEM, EvaluationRequest(iterations=i))
                for i in (1, 2, 3)
            ]
            assert batcher.pending() == 3
            batcher.flush_all()
            assert batcher.pending() == 0
            assert all(future.done() for future in futures)
            await asyncio.gather(*futures)
            await asyncio.sleep(0)  # the drained bucket's yield flush is a no-op

        run(main())
        assert len(calls) == 1 and len(calls[0]) == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch must be positive"):
            AdaptiveBatcher(lambda items: [], max_batch=0)
        with pytest.raises(ValueError, match="timeout_s must be positive"):
            AdaptiveBatcher(lambda items: [], timeout_s=0.0)


def never_flush(key, why):
    """A hung engine: the bucket is never priced, so only its deadline ends it."""


class TestBucketDeadline:
    def test_an_unpriced_bucket_fails_its_waiters_at_the_deadline(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100, timeout_s=0.02)

        async def main():
            batcher._flush = never_flush
            request = EvaluationRequest()
            hung = [batcher.submit(PROBLEM, request) for _ in range(3)]
            hung[0].cancel()  # a waiter that left is skipped, not failed
            results = await asyncio.gather(*hung[1:], return_exceptions=True)
            assert all(isinstance(r, BucketTimeoutError) for r in results)
            assert isinstance(results[0], asyncio.TimeoutError)
            assert hung[0].cancelled()
            assert batcher.pending() == 0  # the expired bucket is dropped
            del batcher._flush  # the engine recovers: a new bucket is priced
            return await batcher.submit(PROBLEM, request)

        result = run(main())
        assert result[0] is PROBLEM
        assert len(calls) == 1 and len(calls[0]) == 1


class NoShortTimersLoop(asyncio.SelectorEventLoop):
    """An event loop that records every timer and refuses any due within 1 s.

    A batching window would be due within milliseconds; a bucket deadline
    (the service's ``batch_timeout_s``) is not.
    """

    def __init__(self):
        super().__init__()
        self.timers = []
        self.handles = []

    def call_at(self, when, callback, *args, context=None):
        delay = when - self.time()
        self.timers.append(delay)
        if delay < 1.0:
            raise AssertionError(f"a {delay * 1e3:.1f} ms timer was scheduled")
        handle = super().call_at(when, callback, *args, context=context)
        self.handles.append(handle)
        return handle


def run_on(loop, coro):
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestALoneRequestWaitsOnNoTimer:
    """A lone request on an idle loop is priced on the loop's next turn."""

    def test_through_the_batcher(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100)

        async def main():
            return await batcher.submit(PROBLEM, EvaluationRequest(iterations=3))

        loop = NoShortTimersLoop()
        result = run_on(loop, main())
        assert result[1].iterations == 3
        assert len(calls) == 1
        assert loop.timers == []

    def test_through_the_service(self):
        service = EvaluationService()
        spec = make_point((12, 11), iterations=3)
        loop = NoShortTimersLoop()
        payload, served_by = run_on(loop, service.submit(spec))
        problem, request = parse_point(spec)
        expected = result_payload(evaluate(problem, backend="analytic", request=request))
        assert served_by == "engine"
        assert canonical(payload) == canonical(expected)
        assert service.stats()["batches"]["flushes"] == 1

    def test_through_workbench_evaluate_async(self):
        workbench = Workbench()
        loop = NoShortTimersLoop()
        result = run_on(loop, workbench.evaluate_async(PROBLEM, iterations=3))
        expected = evaluate(PROBLEM, backend="analytic",
                            request=EvaluationRequest(iterations=3))
        assert canonical(result_payload(result)) == canonical(result_payload(expected))
        assert loop.timers == []


class TestOneDeadlinePerBucket:
    """A bucket arms one ``batch_timeout_s`` deadline, however many requests
    it holds, and its flush cancels it."""

    def test_through_the_batcher(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=3, timeout_s=30.0)

        async def main():
            request = EvaluationRequest()
            return await asyncio.gather(
                *(batcher.submit(PROBLEM, request) for _ in range(4))
            )

        loop = NoShortTimersLoop()
        run_on(loop, main())
        assert [len(items) for items in calls] == [3, 1]  # full, then yield
        assert len(loop.timers) == 2
        assert all(handle.cancelled() for handle in loop.handles)

    def test_concurrent_service_submits_arm_one_timer(self):
        service = EvaluationService(batch_timeout_s=30.0)
        specs = [make_point((12, 11), iterations=n) for n in range(1, 9)]
        loop = NoShortTimersLoop()

        async def main():
            return await asyncio.gather(*(service.submit(spec) for spec in specs))

        answers = run_on(loop, main())
        assert [served_by for _, served_by in answers] == ["engine"] * len(specs)
        for spec, (payload, _) in zip(specs, answers):
            problem, request = parse_point(spec)
            expected = evaluate(problem, backend="analytic", request=request)
            assert canonical(payload) == canonical(result_payload(expected))
        assert service.stats()["batches"]["flushes"] == 1
        assert len(loop.timers) == 1 and loop.timers[0] > 29.0
        assert all(handle.cancelled() for handle in loop.handles)

    def test_each_bucket_arms_its_own_deadline(self):
        service = EvaluationService(max_batch=4, batch_timeout_s=30.0)
        specs = [make_point((12, 11), iterations=n) for n in range(1, 11)]
        loop = NoShortTimersLoop()

        async def main():
            return await asyncio.gather(*(service.submit(spec) for spec in specs))

        run_on(loop, main())
        flushes = service.stats()["batches"]["flushes"]
        assert flushes == 3  # 4 + 4 full, then 2 on the yield
        assert len(loop.timers) == flushes
        assert all(handle.cancelled() for handle in loop.handles)
