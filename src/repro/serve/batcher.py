"""Request micro-batching: concurrent singles become engine batches.

The vectorized pricing engine is >=20x faster than the scalar path *per
batch* (claimed by ``python -m repro.bench run analytic``), but interactive
traffic arrives one point at a time.  The :class:`AdaptiveBatcher`
manufactures batches out of that stream: every incoming ``(problem,
request)`` joins one pending bucket, whatever its system, iterations, write
policy, DRAM timing or kernel override, and the bucket is flushed as one
pricing call over its items, each under its own request, either

* when it reaches ``max_batch`` points (synchronously, inside the submit
  that filled it), or
* when the event loop next yields: the first item of a bucket schedules
  its flush with ``loop.call_soon``.

So a flush holds whatever was submitted before the loop came back to it.
Under load that is every request the loop's current turn admitted, and
batches grow with the load by themselves; a lone request on an idle loop
is priced on the next turn, without waiting on a timer.

A flush that raises is retried one item at a time, so one bad point fails
only its own waiter, not the ``max_batch`` unrelated requests it shared a
flush with.

A batcher built with ``timeout_s`` also arms one deadline per bucket, when
the bucket opens, and cancels it when the bucket flushes.  A bucket that is
still unpriced when its deadline passes (a hung flush) is dropped and each
of its pending waiters fails with :class:`BucketTimeoutError`.  That is one
timer per flush, not one per request.

The batcher is event-loop native: ``submit`` is awaitable, flushes run
inline on the loop (pricing a bucket is NumPy work in the hundreds of
microseconds — cheaper than a thread hop), and cancelled waiters (a client
that disconnected mid-flight) are simply skipped when results are
delivered, so nothing leaks.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.pipeline.backends import EvaluationRequest, EvaluationResult
from repro.pipeline.problem import StencilProblem

#: One queued evaluation.
Item = Tuple[StencilProblem, EvaluationRequest]
#: A bucket flush: price every item under its own request, in input order.
PriceFn = Callable[[List[Item]], Sequence[EvaluationResult]]
#: A queued item and the future its waiter awaits.
_Entry = Tuple[Item, "asyncio.Future[EvaluationResult]"]

#: The key of the one pending bucket.  ``_buckets`` stays a mapping keyed
#: by what ``_flush`` receives, so a tracer wrapping ``_flush`` can look the
#: bucket up before it is priced.
_PENDING = "pending"


class BucketTimeoutError(asyncio.TimeoutError):
    """A bucket was not priced within the batcher's ``timeout_s``."""


class _Bucket:
    """Requests waiting to be flushed together."""

    __slots__ = ("items", "handle", "deadline")

    def __init__(self) -> None:
        self.items: List[_Entry] = []
        self.handle: Optional[asyncio.Handle] = None
        self.deadline: Optional[asyncio.TimerHandle] = None


class AdaptiveBatcher:
    """One-bucket micro-batching, flushed when full or when the loop yields."""

    def __init__(
        self,
        price: PriceFn,
        *,
        max_batch: int = 64,
        on_flush: Optional[Callable[[int, str], None]] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self._price = price
        self.max_batch = max_batch
        self.timeout_s = timeout_s
        self._on_flush = on_flush
        self._buckets: Dict[str, _Bucket] = {}

    # ------------------------------------------------------------------ #
    def pending(self) -> int:
        """Requests queued in the unflushed bucket (0 when fully drained)."""
        return sum(len(bucket.items) for bucket in self._buckets.values())

    # ------------------------------------------------------------------ #
    def submit(
        self, problem: StencilProblem, request: EvaluationRequest
    ) -> Awaitable[EvaluationResult]:
        """Queue one evaluation; the returned future resolves at flush time.

        Must be called on a running event loop.  If the request fills the
        bucket to ``max_batch`` the flush happens synchronously inside this
        call; otherwise the flush the bucket's first item scheduled for the
        loop's next turn delivers it.  With ``timeout_s`` set, the future
        fails with :class:`BucketTimeoutError` if its bucket is still
        unpriced ``timeout_s`` after the bucket opened.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[EvaluationResult]" = loop.create_future()
        bucket = self._buckets.get(_PENDING)
        if bucket is None:
            bucket = self._buckets[_PENDING] = _Bucket()
            bucket.handle = loop.call_soon(self._flush, _PENDING, "yield")
            if self.timeout_s is not None:
                bucket.deadline = loop.call_later(self.timeout_s, self._expire, bucket)
        bucket.items.append(((problem, request), future))
        if len(bucket.items) >= self.max_batch:
            self._flush(_PENDING, "full")
        return future

    def flush_all(self) -> None:
        """Flush the pending bucket now (shutdown, or tests forcing determinism)."""
        for key in list(self._buckets):
            self._flush(key, "drain")

    # ------------------------------------------------------------------ #
    def _flush(self, key: str, why: str) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:  # flushed (full or drained) before the loop yielded
            return
        _cancel(bucket)
        if self._on_flush is not None:
            self._on_flush(len(bucket.items), why)
        self._deliver(bucket.items)

    def _expire(self, bucket: _Bucket) -> None:
        """The bucket's deadline passed before it was priced: fail its waiters."""
        if self._buckets.get(_PENDING) is bucket:
            del self._buckets[_PENDING]
        _cancel(bucket)
        _fail(bucket.items, BucketTimeoutError(
            f"bucket of {len(bucket.items)} not priced within {self.timeout_s:g} s"
        ))

    def _deliver(self, entries: List[_Entry]) -> None:
        try:
            results = self._price([item for item, _ in entries])
        except Exception as exc:  # noqa: BLE001 — the failure goes to the waiters
            if len(entries) == 1:
                _fail(entries, exc)
                return
            # Price each item alone, so a bad point fails only its own
            # waiter (and counts as one breaker failure, not a flush's).
            for entry in entries:
                if not entry[1].done():
                    self._deliver([entry])
            return
        if len(results) != len(entries):
            _fail(entries, RuntimeError(
                f"pricing returned {len(results)} results for {len(entries)} requests"
            ))
            return
        for (_, future), result in zip(entries, results):
            # A done future here is a waiter that disconnected (cancelled);
            # its result is simply dropped — nothing retains the future.
            if not future.done():
                future.set_result(result)


def _cancel(bucket: _Bucket) -> None:
    """Cancel the bucket's pending flush and its deadline."""
    if bucket.handle is not None:
        bucket.handle.cancel()
    if bucket.deadline is not None:
        bucket.deadline.cancel()


def _fail(entries: List[_Entry], error: Exception) -> None:
    for _, future in entries:
        if not future.done():
            future.set_exception(error)
