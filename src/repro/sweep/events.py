"""The event stream at the heart of campaign execution.

Runners and the campaign engine no longer report through ad-hoc callbacks:
they publish typed :class:`RunEvent`\\ s onto an :class:`EventBus`, and every
consumer — the live :class:`ProgressReporter`, the JSONL checkpoint
(:class:`~repro.sweep.checkpoint.CampaignCheckpoint`), the result aggregator
inside :func:`repro.sweep.campaign.execute_campaign` — is an observer on
that bus.

The bus gives two guarantees the tests rely on:

* **total order** — events are delivered from a single queue in the main
  process, so every observer sees the same sequence; an event published
  *while* another is being delivered (e.g. by an observer reacting to it)
  is queued and delivered after the current event reaches every observer,
  never interleaved;
* **failure isolation** — an exception inside a non-critical observer is
  caught and recorded on :attr:`EventBus.errors`; the campaign and the other
  observers carry on.  Only observers subscribed with ``critical=True`` (the
  aggregator and the checkpointer, whose failures would corrupt the result)
  may abort the campaign.

Every :class:`RunEvent` subclass registers itself by its ``kind`` when the
class is created, and carries its own JSON form (:meth:`RunEvent.to_json`,
:meth:`RunEvent.from_json`): the event log, replay and ``--follow`` all
decode through that one table.

Event counts are part of the determinism contract: a serial and a parallel
run of the same spec publish the same number of :class:`PointStarted` and
:class:`PointCompleted` events (delivery *order* of completions may differ —
chunks finish when they finish — but per point, ``PointStarted`` always
precedes its ``PointCompleted``).
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
    Type,
)

from repro.sweep.record import PointRecord

# --------------------------------------------------------------------------- #
# events
# --------------------------------------------------------------------------- #


#: kind -> event class, filled in as each RunEvent subclass is defined.
_EVENT_TYPES: Dict[str, Type[RunEvent]] = {}


@dataclass(frozen=True)
class RunEvent:
    """Base class of every campaign event.

    ``kind`` is a stable snake_case tag used for observer dispatch
    (:class:`RunObserver` routes to ``on_<kind>``) and for serialising event
    streams to logs.  Each subclass declares its own ``kind``; defining the
    class registers it, so the event log, replay and ``--follow`` know every
    event without a hand-kept list.
    """

    kind = "run_event"
    # Set at registration, typed by comment so they are not dataclass fields:
    # the annotated field names (the keys of the JSON ``data``) and the
    # subset carrying a PointRecord (serialised via ``to_json_dict``).
    _json_fields = ()  # type: Tuple[str, ...]
    _record_fields = ()  # type: Tuple[str, ...]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if not isinstance(kind, str):
            raise TypeError(
                f"RunEvent subclass {cls.__name__} must declare its own kind"
            )
        if kind in _EVENT_TYPES:
            raise TypeError(
                f"event kind {kind!r} of {cls.__name__} is already registered "
                f"by {_EVENT_TYPES[kind].__name__}"
            )
        annotations: Dict[str, Any] = {}
        for klass in reversed(cls.__mro__):
            annotations.update(klass.__dict__.get("__annotations__", {}))
        cls._json_fields = tuple(annotations)
        cls._record_fields = tuple(
            name
            for name, annotation in annotations.items()
            if annotation in ("PointRecord", PointRecord)
        )
        _EVENT_TYPES[kind] = cls

    def to_json(self) -> Dict[str, Any]:
        """The event's ``data`` object: records as dicts, the rest as is."""
        data = {name: getattr(self, name) for name in self._json_fields}
        for name in self._record_fields:
            data[name] = data[name].to_json_dict()
        return data

    @staticmethod
    def from_json(kind: Any, data: Any) -> Optional["RunEvent"]:
        """Rebuild the event that :meth:`to_json` wrote under ``kind``.

        None when the kind is unknown (a newer writer) or ``data`` cannot
        build the event (not an object, a required field missing, a
        malformed record): readers skip such lines instead of failing.
        Unknown keys in ``data`` are ignored.
        """
        cls = _EVENT_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None or not isinstance(data, dict):
            return None
        kwargs = {name: data[name] for name in cls._json_fields if name in data}
        try:
            for name in cls._record_fields:
                if name in kwargs:
                    kwargs[name] = PointRecord.from_json_dict(kwargs[name])
            return cls(**kwargs)
        except (AttributeError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class CampaignStarted(RunEvent):
    """Published once, before any point runs."""

    kind = "campaign_started"

    name: str
    fingerprint: str
    total_points: int
    jobs: int = 1
    strategy: str = "grid"
    checkpoint_path: Optional[str] = None


@dataclass(frozen=True)
class PointStarted(RunEvent):
    """A point actually began evaluating in some worker process.

    Attribution fields are stamped by the evaluating process itself:
    ``worker`` is its pid, ``ts`` the wall-clock begin time and ``seq`` the
    worker-local evaluation sequence number.  Pool runners ship the stamps
    back inside :attr:`PointRecord.meta` and re-emit the event from the
    parent, so the stream reflects *actual* execution, not submission.
    """

    kind = "point_started"

    key: str
    label: str
    rung: int = 0
    worker: Optional[int] = None  #: pid of the evaluating process
    ts: Optional[float] = None  #: wall-clock begin time (``time.time()``)
    seq: Optional[int] = None  #: worker-local evaluation sequence number


@dataclass(frozen=True)
class PointCompleted(RunEvent):
    """A point finished evaluating; carries the completed record."""

    kind = "point_completed"

    record: PointRecord


@dataclass(frozen=True)
class PointResumed(RunEvent):
    """A point was satisfied from a checkpoint (or an earlier stage)."""

    kind = "point_resumed"

    record: PointRecord


@dataclass(frozen=True)
class PointRetried(RunEvent):
    """An attempt failed retryably; the point will be re-issued.

    ``reason`` distinguishes *why*: ``"error"`` (the backend raised),
    ``"deadline"`` (the watchdog abandoned a straggler) or
    ``"worker-lost"`` (the point was in flight when its pool broke).
    """

    kind = "point_retried"

    key: str
    label: str
    rung: int = 0
    attempt: int = 1  #: the attempt that just failed (1-based)
    error: str = ""
    delay_s: float = 0.0  #: backoff before the next attempt
    reason: str = "error"  #: "error" | "deadline" | "worker-lost"
    worker: Optional[int] = None  #: pid of the failing worker, when known


@dataclass(frozen=True)
class PointFailed(RunEvent):
    """A point exhausted its retry budget (or was quarantined as poison).

    Carries the failure :class:`~repro.sweep.record.PointRecord`
    (``record.failed`` is True) so checkpoints persist the verdict and a
    resume can skip the point.
    """

    kind = "point_failed"

    record: PointRecord


@dataclass(frozen=True)
class WorkerLost(RunEvent):
    """A pool worker died (the executor reported a broken pool)."""

    kind = "worker_lost"

    worker: Optional[int] = None  #: pid of the dead worker, when identifiable
    inflight: int = 0  #: points in flight when the pool broke
    error: str = ""


@dataclass(frozen=True)
class PoolRestarted(RunEvent):
    """The runner respawned its worker pool after losing it."""

    kind = "pool_restarted"

    restarts: int = 1  #: cumulative pool respawns this campaign
    jobs: int = 0
    reason: str = ""


@dataclass(frozen=True)
class CampaignFinished(RunEvent):
    """Published once, after the strategy finished every stage."""

    kind = "campaign_finished"

    name: str
    total_points: int
    evaluated: int
    resumed: int
    wall_seconds: float
    failed: int = 0  #: points recorded as permanently failed


#: A callable consuming events (what runners see as their ``event_sink``).
EventSink = Callable[[RunEvent], None]


# --------------------------------------------------------------------------- #
# observers and the bus
# --------------------------------------------------------------------------- #
class RunObserver:
    """Base observer: dispatches each event to ``on_<kind>`` when defined.

    Subclasses implement only the hooks they care about
    (``on_point_completed(event)``, ``on_campaign_finished(event)``, ...);
    unknown events fall through silently, so new event types never break old
    observers.
    """

    def on_event(self, event: RunEvent) -> None:
        handler = getattr(self, f"on_{event.kind}", None)
        if handler is not None:
            handler(event)


class ObserverError(NamedTuple):
    """One isolated observer failure, recorded on :attr:`EventBus.errors`."""

    observer: Any
    event: RunEvent
    error: BaseException


class EventBus:
    """Single-process fan-out of :class:`RunEvent`\\ s with queued dispatch."""

    def __init__(self) -> None:
        self._observers: List[tuple] = []  # (observer, critical)
        self._queue: "deque[RunEvent]" = deque()
        self._dispatching = False
        self.errors: List[ObserverError] = []

    def subscribe(self, observer: Any, critical: bool = False) -> None:
        """Attach an observer (an object with ``on_event`` or a callable).

        ``critical=True`` observers are load-bearing: their exceptions
        propagate and abort the campaign.  Everyone else is isolated.
        """
        self._observers.append((observer, critical))

    def publish(self, event: RunEvent) -> None:
        """Deliver an event to every observer, in subscription order.

        Reentrant publishes (an observer reacting to an event with another
        event) are queued, so the global event order stays total: event *n*
        reaches every observer before event *n+1* reaches any.
        """
        self._queue.append(event)
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._queue:
                current = self._queue.popleft()
                for observer, critical in list(self._observers):
                    try:
                        if callable(observer) and not hasattr(observer, "on_event"):
                            observer(current)
                        else:
                            observer.on_event(current)
                    except Exception as exc:
                        if critical:
                            raise
                        self.errors.append(ObserverError(observer, current, exc))
        finally:
            self._dispatching = False


# --------------------------------------------------------------------------- #
# built-in observers
# --------------------------------------------------------------------------- #
class ProgressReporter(RunObserver):
    """Live campaign progress: completed counts, points/sec and ETA.

    Writes one line per update (append-friendly for CI log artifacts) to
    ``stream`` — standard error by default, so campaign reports on stdout
    stay machine-readable.  Updates are throttled to one per
    ``min_interval`` seconds; the start and finish lines always print.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.5,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._stream = stream
        self._min_interval = min_interval
        self._clock = clock
        self._t0: Optional[float] = None
        self._last_emit: Optional[float] = None
        self.name = ""
        self.total = 0
        self.completed = 0
        self.evaluated = 0
        self.resumed = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    def on_campaign_started(self, event: CampaignStarted) -> None:
        # A session-wide reporter sees many campaigns; every start resets
        # the counters so rates and ETAs never mix campaigns.
        self.name = event.name
        self.total = event.total_points
        self.completed = 0
        self.evaluated = 0
        self.resumed = 0
        self.failed = 0
        self._t0 = self._clock()
        self._last_emit = None
        self._write(
            f"[{event.name}] campaign started: {event.total_points} points, "
            f"jobs={event.jobs}, strategy={event.strategy}"
        )

    def on_point_resumed(self, event: PointResumed) -> None:
        self.completed += 1
        self.resumed += 1
        self._emit()

    def on_point_completed(self, event: PointCompleted) -> None:
        self.completed += 1
        self.evaluated += 1
        self._emit()

    def on_point_retried(self, event: PointRetried) -> None:
        self._write(
            f"[{self.name}] retrying {event.label} "
            f"(attempt {event.attempt} {event.reason}: {event.error or 'failed'})"
        )

    def on_point_failed(self, event: PointFailed) -> None:
        self.completed += 1
        self.failed += 1
        self._write(
            f"[{self.name}] FAILED {event.record.label}: "
            f"{event.record.error or 'unknown error'}"
        )
        self._emit()

    def on_worker_lost(self, event: WorkerLost) -> None:
        who = f"pid {event.worker}" if event.worker else "worker"
        self._write(
            f"[{self.name}] {who} lost with {event.inflight} point(s) in flight"
        )

    def on_pool_restarted(self, event: PoolRestarted) -> None:
        self._write(
            f"[{self.name}] worker pool restarted "
            f"(#{event.restarts}, jobs={event.jobs}): {event.reason}"
        )

    def on_campaign_finished(self, event: CampaignFinished) -> None:
        self._emit(force=True)
        # The failure clause is appended only when present, so the finish
        # line of a clean campaign stays byte-identical to older releases
        # (CI and the tests grep for it verbatim).
        failures = f", {event.failed} failed" if event.failed else ""
        self._write(
            f"[{event.name}] campaign finished: {event.evaluated} evaluated, "
            f"{event.resumed} resumed{failures} in {event.wall_seconds:.2f}s"
        )

    # ------------------------------------------------------------------ #
    def _rate(self) -> float:
        """Freshly evaluated points per second since the campaign started."""
        if self._t0 is None:
            return 0.0
        elapsed = self._clock() - self._t0
        return self.evaluated / elapsed if elapsed > 0 else 0.0

    def _emit(self, force: bool = False) -> None:
        now = self._clock()
        if not force and self._last_emit is not None:
            if now - self._last_emit < self._min_interval:
                return
        self._last_emit = now
        rate = self._rate()
        remaining = max(0, self.total - self.completed)
        eta = f"{remaining / rate:.1f}s" if rate > 0 else "-"
        # Adaptive strategies evaluate more (halving) or fewer (random)
        # points than the expanded total, so the percentage is clamped.
        pct = min(100.0, 100.0 * self.completed / self.total) if self.total else 100.0
        self._write(
            f"[{self.name}] {self.completed}/{self.total} points ({pct:.1f}%) | "
            f"{rate:.2f} points/s | ETA {eta}"
        )

    def _write(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        stream.write(line + "\n")
        stream.flush()


class EventLog(RunObserver):
    """Records every event in order (used by tests and debugging)."""

    def __init__(self) -> None:
        self.events: List[RunEvent] = []

    def on_event(self, event: RunEvent) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        """The ``kind`` tags, in delivery order."""
        return [e.kind for e in self.events]

    def count(self, kind: str) -> int:
        """Number of recorded events with the given kind tag."""
        return sum(1 for e in self.events if e.kind == kind)
