"""The keyed plan cache behind :func:`repro.pipeline.compile`.

Compiling a problem (range partitioning, the buffer planner, the hybrid
partition, the cost and synthesis models) is pure — the result depends only on
the problem description — so it is memoized.  Sweeps that revisit the same
problem (DSE objective comparisons, the eval harness regenerating several
tables from one configuration, repeated benchmark rounds) then plan once and
hit the cache for every later use.

The cache is a bounded LRU: the least recently used design is evicted once
``max_entries`` distinct problems have been compiled.  :class:`PlanCache` is
also the package's one bounded LRU for every other memo — the analytic
engine's knob, packed-session and fold caches and the serve layer's response
memo — so the locking, counters and eviction live in this module alone.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-style counters of a :class:`PlanCache`.

    The same shape is reported per worker process by campaign runs (see
    :mod:`repro.sweep`), so serial and parallel sweeps surface cache
    behaviour uniformly.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    #: Entries dropped to stay within ``maxsize``.
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class PlanCache:
    """A bounded, thread-safe LRU cache with hit/miss/eviction counters.

    Entries are never ``None`` (a ``None`` lookup result means a miss) and
    are treated as immutable once stored.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` (refreshing its LRU position), or None.

        Counts one hit or one miss.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return cached

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` unless ``key`` is present; return the stored entry.

        The first writer wins: a caller that built ``value`` while another
        thread stored the same key gets the other thread's entry back.  An
        insert evicts least recently used entries beyond ``max_entries``.
        """
        with self._lock:
            winner = self._entries.get(key)
            if winner is not None:
                self._entries.move_to_end(key)
                return winner
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def get_or_compile(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached entry for ``key``, building it on a miss.

        ``build`` runs outside the lock (compilation can take seconds for
        million-element grids); if two threads race on the same key the loser's
        result is discarded in favour of the winner's.
        """
        cached = self.get(key)
        return cached if cached is not None else self.put(key, build())

    def get_or_compile_batch(
        self,
        keys: Sequence[Hashable],
        builds: Sequence[Callable[[], Any]],
    ) -> List[Any]:
        """Resolve many keys at once, compiling each distinct miss exactly once.

        The batch counting contract: a batch of N lookups sharing one
        uncached key costs **one miss plus N−1 hits** — the first occurrence
        compiles, every duplicate is answered by that single compilation —
        instead of the N misses a naive per-key loop would record.  Results
        come back in input order; like :meth:`get_or_compile`, builds run
        outside the lock and a concurrent winner's entry is preferred.
        """
        if len(keys) != len(builds):
            raise ValueError("keys and builds must have the same length")
        results: List[Any] = [None] * len(keys)
        pending: Dict[Hashable, List[int]] = {}
        with self._lock:
            for index, key in enumerate(keys):
                if key in pending:
                    self._hits += 1
                    pending[key].append(index)
                    continue
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    results[index] = cached
                else:
                    self._misses += 1
                    pending[key] = [index]
        for key, indices in pending.items():
            built = self.put(key, builds[indices[0]]())
            for index in indices:
                results[index] = built
        return results

    def peek(self, key: Hashable) -> Optional[Any]:
        """Return the cached entry without affecting LRU order or counters."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def cache_info(self) -> CacheInfo:
        """``functools``-style counters plus the eviction count."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.max_entries,
                currsize=len(self._entries),
                evictions=self._evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache used by :func:`repro.pipeline.compile` by default.
plan_cache = PlanCache()


def clear_plan_cache() -> None:
    """Reset the process-wide plan cache (used by benchmarks and tests)."""
    plan_cache.clear()
