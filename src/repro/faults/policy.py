"""Retry policy: attempt budgets, classified exceptions, deterministic backoff.

A :class:`RetryPolicy` answers the three questions every fault-tolerant
executor asks:

* *should this failure be retried?* — :meth:`RetryPolicy.classify` splits
  exceptions into retryable (transient by nature: timeouts, lost
  connections, broken pools, anything tagged :class:`RetryableError`) and
  fatal (deterministic bugs and explicit :class:`FatalError`\\ s — retrying a
  ``ValueError`` re-raises the same ``ValueError``);
* *how long to wait before the next attempt?* — :meth:`RetryPolicy.delay_s`
  is exponential backoff with **seeded jitter**: the jitter RNG is derived
  from ``(seed, point key, attempt)`` via a content hash, so two runs of the
  same campaign produce the same delays — replayable fault timelines, no
  thundering herd;
* *when to give up on a straggler?* — :attr:`RetryPolicy.deadline_s`, the
  per-point wall-clock budget the pool runner's watchdog enforces.

The policy is a frozen, picklable dataclass: pool runners ship it to workers
so failure classification happens where the exception type still exists
(exceptions themselves do not always survive the process boundary).
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional, Tuple, Type


class RetryableError(RuntimeError):
    """Marker base: failures that are transient by construction.

    Backends (and the fault-injection harness) raise subclasses of this to
    say "try again" regardless of the policy's type lists.
    """


class FatalError(RuntimeError):
    """Marker base: failures no amount of retrying will fix."""


#: Transient by nature: the default retryable set.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    RetryableError,
    TimeoutError,
    ConnectionError,
    BrokenExecutor,
)

#: Deterministic by nature: the same inputs will raise the same error again.
DEFAULT_FATAL: Tuple[Type[BaseException], ...] = (
    FatalError,
    ValueError,
    TypeError,
    AssertionError,
    NotImplementedError,
    KeyboardInterrupt,
    SystemExit,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How an executor retries, backs off, and gives up.

    Parameters
    ----------
    max_attempts:
        Total attempts per point (first try included).  A point still
        failing after this many is recorded as *failed*, not re-raised.
    base_delay_s / backoff / max_delay_s:
        Exponential backoff shape: attempt *n* (1-based) waits
        ``min(max_delay_s, base_delay_s * backoff**(n-1))`` before attempt
        *n+1*, jittered.
    jitter:
        Relative jitter amplitude: the delay is scaled by a factor drawn
        uniformly from ``[1-jitter, 1+jitter]`` — deterministically, from a
        RNG seeded by ``(seed, key, attempt)``.
    seed:
        Jitter seed; change it to decorrelate two campaigns' retry storms.
    deadline_s:
        Per-point wall-clock budget.  ``None`` disables the watchdog; when
        set, the pool runner abandons and re-issues points whose chunk has
        run longer than ``deadline_s`` per point since it started (queued
        chunks never count: the executor only holds running work).
    retryable_types / fatal_types:
        The classification lists.  Fatal wins on overlap; exceptions in
        neither list follow ``retry_unknown``.
    retry_unknown:
        Whether an unclassified exception type is worth retrying (default
        True: unknown failures are assumed transient; deterministic bugs
        should surface as the fatal types above).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    deadline_s: Optional[float] = None
    retryable_types: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE
    fatal_types: Tuple[Type[BaseException], ...] = DEFAULT_FATAL
    retry_unknown: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    # ------------------------------------------------------------------ #
    def classify(self, exc: BaseException) -> bool:
        """True when ``exc`` is worth retrying under this policy.

        Fatal types win over retryable ones (an explicit :class:`FatalError`
        subclassing a retryable base stays fatal); anything in neither list
        follows :attr:`retry_unknown`.
        """
        if isinstance(exc, self.fatal_types):
            return False
        if isinstance(exc, self.retryable_types):
            return True
        return self.retry_unknown

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retrying ``key`` after its ``attempt``-th failure.

        Deterministic: the same (seed, key, attempt) always produces the
        same delay, so fault-injected campaigns replay with identical
        timelines — and distinct keys decorrelate, so a burst of failures
        does not retry in lockstep.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        delay = min(self.max_delay_s, self.base_delay_s * self.backoff ** (attempt - 1))
        if self.jitter and delay > 0:
            digest = hashlib.sha1(
                f"{self.seed}|{key}|{attempt}".encode("utf-8")
            ).hexdigest()
            rng = random.Random(int(digest, 16))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def describe(self) -> str:
        """One-line summary for reports and logs."""
        deadline = f", deadline {self.deadline_s:g}s" if self.deadline_s else ""
        return (
            f"retry x{self.max_attempts}, backoff {self.base_delay_s:g}s"
            f"*{self.backoff:g} (cap {self.max_delay_s:g}s, "
            f"jitter {self.jitter:.0%}){deadline}"
        )
