"""Adaptive request micro-batching: concurrent singles become engine batches.

The vectorized pricing engine is >=20x faster than the scalar path *per
batch* (claimed by ``python -m repro.bench run analytic``), but interactive
traffic arrives one point at a time.  The :class:`AdaptiveBatcher`
manufactures batches out of that stream: each incoming ``(problem,
request)`` lands in a bucket keyed by its *request signature* (everything
one engine fold shares — system, iterations,
write policy, DRAM timing, kernel override), and a bucket is flushed as one
:meth:`AnalyticBatchEngine.price_batch` call either

* when it reaches ``max_batch`` points (size-triggered, under pressure), or
* when its ``window`` timer fires (time-triggered, under light load).

The window adapts between ``min_window_ms`` and ``max_window_ms``: a
size-triggered flush means requests are arriving faster than the engine
drains them, so the window *grows* (bigger batches, higher throughput); a
timer flush that caught only a trickle of requests means batching is
costing latency for nothing, so the window *shrinks*.  Both adjustments are
multiplicative and deterministic, so tests can drive the window exactly.

The batcher is event-loop native: ``submit`` is awaitable, flushes run
inline on the loop (pricing a bucket is NumPy work in the hundreds of
microseconds — cheaper than a thread hop), and cancelled waiters (a client
that disconnected mid-flight) are simply skipped when results are
delivered, so nothing leaks.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import EvaluationRequest, EvaluationResult
from repro.pipeline.problem import StencilProblem

#: A bucket flush: price these problems under this one shared request.
PriceFn = Callable[[List[StencilProblem], EvaluationRequest], Sequence[EvaluationResult]]


def request_signature(request: EvaluationRequest) -> Tuple[Any, ...]:
    """Everything a pricing fold shares across a bucket.

    Two requests with equal signatures can be priced in one
    ``price_batch`` call; the fields mirror the engine's fold-memo key, so
    a recurring bucket also hits the engine's fold cache.
    """
    timing = request.dram_timing or DRAMTiming()
    kernel = request.kernel
    return (
        request.system,
        request.iterations,
        request.write_through,
        timing.stream_word_cycles,
        timing.random_access_cycles,
        timing.read_latency,
        timing.row_words,
        timing.row_miss_penalty,
        None if kernel is None else (type(kernel).__name__, repr(kernel)),
    )


class _Bucket:
    """Requests sharing one signature, waiting to be flushed together."""

    __slots__ = ("request", "items", "timer")

    def __init__(self, request: EvaluationRequest) -> None:
        self.request = request
        self.items: List[Tuple[StencilProblem, "asyncio.Future[EvaluationResult]"]] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class AdaptiveBatcher:
    """Signature-keyed micro-batching with an adaptive flush window."""

    def __init__(
        self,
        price: PriceFn,
        *,
        max_batch: int = 64,
        window_ms: float = 2.0,
        min_window_ms: float = 0.2,
        max_window_ms: float = 25.0,
        grow: float = 1.5,
        shrink: float = 0.7,
        on_flush: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if not (0 < min_window_ms <= window_ms <= max_window_ms):
            raise ValueError("need 0 < min_window_ms <= window_ms <= max_window_ms")
        if not (grow > 1.0 and 0.0 < shrink < 1.0):
            raise ValueError("need grow > 1 and 0 < shrink < 1")
        self._price = price
        self.max_batch = max_batch
        self.min_window_ms = min_window_ms
        self.max_window_ms = max_window_ms
        self._window_ms = window_ms
        self._grow = grow
        self._shrink = shrink
        self._on_flush = on_flush
        self._buckets: Dict[Tuple[Any, ...], _Bucket] = {}

    # ------------------------------------------------------------------ #
    @property
    def window_ms(self) -> float:
        """The current adaptive flush window (milliseconds)."""
        return self._window_ms

    def pending(self) -> int:
        """Requests queued in unflushed buckets (0 when fully drained)."""
        return sum(len(bucket.items) for bucket in self._buckets.values())

    # ------------------------------------------------------------------ #
    def submit(
        self, problem: StencilProblem, request: EvaluationRequest
    ) -> Awaitable[EvaluationResult]:
        """Queue one evaluation; the returned future resolves at flush time.

        Must be called on a running event loop.  If the request fills its
        bucket to ``max_batch`` the flush happens synchronously inside this
        call; otherwise the bucket's window timer delivers it.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[EvaluationResult]" = loop.create_future()
        signature = request_signature(request)
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = _Bucket(request)
            self._buckets[signature] = bucket
            bucket.timer = loop.call_later(
                self._window_ms / 1000.0, self._flush, signature, "window"
            )
        bucket.items.append((problem, future))
        if len(bucket.items) >= self.max_batch:
            self._flush(signature, "full")
        return future

    def flush_all(self) -> None:
        """Flush every bucket now (shutdown, or tests forcing determinism)."""
        for signature in list(self._buckets):
            self._flush(signature, "drain")

    # ------------------------------------------------------------------ #
    def _flush(self, signature: Tuple[Any, ...], why: str) -> None:
        bucket = self._buckets.pop(signature, None)
        if bucket is None:  # size-flushed before its timer fired
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        size = len(bucket.items)
        self._adapt(size, why)
        if self._on_flush is not None:
            self._on_flush(size, why)
        problems = [problem for problem, _ in bucket.items]
        try:
            results = self._price(problems, bucket.request)
        except Exception as exc:  # noqa: BLE001 — fan the failure out to waiters
            for _, future in bucket.items:
                if not future.done():
                    future.set_exception(exc)
            return
        if len(results) != size:
            error = RuntimeError(
                f"pricing returned {len(results)} results for {size} requests"
            )
            for _, future in bucket.items:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(bucket.items, results):
            # A done future here is a waiter that disconnected (cancelled);
            # its result is simply dropped — nothing retains the future.
            if not future.done():
                future.set_result(result)

    def _adapt(self, size: int, why: str) -> None:
        if why == "full":
            # Demand filled a batch before the timer: widen the window so the
            # next batch amortizes even more per-request overhead.
            self._window_ms = min(self._window_ms * self._grow, self.max_window_ms)
        elif why == "window" and size <= max(1, self.max_batch // 4):
            # The timer fired on a mostly-empty bucket: light load, so lean
            # toward latency.
            self._window_ms = max(self._window_ms * self._shrink, self.min_window_ms)
