"""The keyed plan cache behind :func:`repro.pipeline.compile`.

Compiling a problem (range partitioning, the buffer planner, the hybrid
partition, the cost and synthesis models) is pure — the result depends only on
the problem description — so it is memoized.  Sweeps that revisit the same
problem (DSE objective comparisons, the eval harness regenerating several
tables from one configuration, repeated benchmark rounds) then plan once and
hit the cache for every later use.

The cache is a bounded LRU: the least recently used design is evicted once
``max_entries`` distinct problems have been compiled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Hashable, List, NamedTuple, Optional, Sequence


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

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`PlanCache` at one point in time."""

    hits: int
    misses: int
    entries: int
    evictions: int

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """A bounded, thread-safe LRU cache from problem keys to compiled designs."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def get_or_compile(self, key: Hashable, build: Callable[[], object]) -> object:
        """Return the cached design for ``key``, compiling it on a miss.

        ``build`` runs outside the lock (compilation can take seconds for
        million-element grids); if two threads race on the same key the loser's
        result is discarded in favour of the winner's.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return cached
            self._misses += 1
        design = build()
        with self._lock:
            winner = self._entries.get(key)
            if winner is not None:
                self._entries.move_to_end(key)
                return winner
            self._entries[key] = design
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        return design

    def get_or_compile_batch(
        self,
        keys: Sequence[Hashable],
        builds: Sequence[Callable[[], object]],
    ) -> List[object]:
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
        results: List[Optional[object]] = [None] * len(keys)
        pending: "OrderedDict[Hashable, List[int]]" = OrderedDict()
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
            built = builds[indices[0]]()
            with self._lock:
                winner = self._entries.get(key)
                if winner is not None:
                    self._entries.move_to_end(key)
                    built = winner
                else:
                    self._entries[key] = built
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self._evictions += 1
            for index in indices:
                results[index] = built
        return results

    def peek(self, key: Hashable) -> Optional[object]:
        """Return the cached design without affecting LRU order or counters."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        """A snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                evictions=self._evictions,
            )

    def cache_info(self) -> CacheInfo:
        """``functools``-style counters: hits, misses, maxsize, currsize."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.max_entries,
                currsize=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache used by :func:`repro.pipeline.compile` by default.
plan_cache = PlanCache()


def clear_plan_cache() -> None:
    """Reset the process-wide plan cache (used by benchmarks and tests)."""
    plan_cache.clear()
