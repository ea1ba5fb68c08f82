"""The adaptive micro-batcher: one bucket, flush triggers, failure isolation,
window adaptation."""

import asyncio

import pytest

from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import EvaluationRequest
from repro.pipeline.problem import StencilProblem
from repro.serve.batcher import AdaptiveBatcher


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
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=4, window_ms=1000.0,
                                  max_window_ms=1000.0)

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

    def test_window_triggered_flush_delivers_partial_bucket(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100, window_ms=5.0)

        async def main():
            return await batcher.submit(PROBLEM, EvaluationRequest(iterations=2))

        result = run(main())
        assert result[0] is PROBLEM
        assert len(calls) == 1 and len(calls[0]) == 1

    def test_mixed_signatures_share_one_flush(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=4, window_ms=1000.0,
                                  max_window_ms=1000.0)
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

        batcher = AdaptiveBatcher(explode, max_batch=2, window_ms=1000.0,
                                  max_window_ms=1000.0)

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

        batcher = AdaptiveBatcher(price, max_batch=4, window_ms=1000.0,
                                  max_window_ms=1000.0)

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
        batcher = AdaptiveBatcher(lambda items: [], max_batch=1,
                                  window_ms=5.0)

        async def main():
            with pytest.raises(RuntimeError, match="0 results for 1"):
                await batcher.submit(PROBLEM, EvaluationRequest())

        run(main())

    def test_cancelled_waiters_are_skipped_and_nothing_leaks(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=10, window_ms=20.0)

        async def main():
            request = EvaluationRequest()
            doomed = asyncio.ensure_future(batcher.submit(PROBLEM, request))
            survivor = asyncio.ensure_future(batcher.submit(PROBLEM, request))
            await asyncio.sleep(0)  # let both enqueue
            doomed.cancel()
            result = await survivor
            assert result[0] is PROBLEM
            with pytest.raises(asyncio.CancelledError):
                await doomed

        run(main())
        assert len(calls) == 1 and len(calls[0]) == 2
        assert batcher.pending() == 0

    def test_flush_all_drains_every_bucket(self):
        calls = []
        batcher = AdaptiveBatcher(echo_pricer(calls), max_batch=100, window_ms=1000.0,
                                  max_window_ms=1000.0)

        async def main():
            futures = [
                asyncio.ensure_future(
                    batcher.submit(PROBLEM, EvaluationRequest(iterations=i))
                )
                for i in (1, 2, 3)
            ]
            await asyncio.sleep(0)
            assert batcher.pending() == 3
            batcher.flush_all()
            await asyncio.gather(*futures)
            assert batcher.pending() == 0

        run(main())
        assert len(calls) == 1 and len(calls[0]) == 3


class TestAdaptiveWindow:
    def test_full_flushes_grow_the_window(self):
        batcher = AdaptiveBatcher(lambda items: [None] * len(items), max_batch=2,
                                  window_ms=2.0, max_window_ms=10.0, grow=2.0)

        async def main():
            request = EvaluationRequest()
            for _ in range(8):
                await asyncio.gather(
                    batcher.submit(PROBLEM, request), batcher.submit(PROBLEM, request)
                )

        run(main())
        assert batcher.window_ms == 10.0  # grown and clamped at the ceiling

    def test_sparse_timer_flushes_shrink_the_window(self):
        batcher = AdaptiveBatcher(lambda items: [None] * len(items), max_batch=100,
                                  window_ms=4.0, min_window_ms=1.0, shrink=0.5)

        async def main():
            for _ in range(6):
                await batcher.submit(PROBLEM, EvaluationRequest())

        run(main())
        assert batcher.window_ms == 1.0  # shrunk and clamped at the floor

    def test_constructor_validation(self):
        price = lambda items: []  # noqa: E731
        with pytest.raises(ValueError):
            AdaptiveBatcher(price, max_batch=0)
        with pytest.raises(ValueError):
            AdaptiveBatcher(price, window_ms=0.1, min_window_ms=0.2)
        with pytest.raises(ValueError):
            AdaptiveBatcher(price, grow=0.9)
        with pytest.raises(ValueError):
            AdaptiveBatcher(price, shrink=1.5)
