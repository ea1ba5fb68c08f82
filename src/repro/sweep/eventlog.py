"""Durable event-log persistence and deterministic campaign replay.

The in-process :class:`~repro.sweep.events.EventBus` (PR 3) made campaign
execution observable; this module makes the stream *durable*.  An
:class:`EventLogObserver` serialises every :class:`RunEvent` — schema
version, wall-clock delivery timestamp and a log-wide sequence number per
line — to a JSONL sidecar next to the checkpoint, guarded by a fingerprint
header exactly like the checkpoint itself (appending a different campaign's
events to an existing log raises :class:`EventLogMismatch`).

Events that originate in pool workers keep their true attribution: the
worker stamps pid / begin timestamp / worker-local sequence into
``PointRecord.meta`` (see :mod:`repro.sweep.runners`), the runner re-emits
them as faithful ``PointStarted`` events, and the log records them verbatim
— so a cross-host reader can reconstruct who ran what, when.

:class:`CampaignReplay` is the read side: it reconstructs the typed event
stream from disk and re-drives any observer — the live
:class:`~repro.sweep.events.ProgressReporter`, custom debuggers —
**deterministically**: :attr:`CampaignReplay.clock` returns the logged
timestamp of the event currently being dispatched, so a reporter constructed
with ``clock=replay.clock`` prints byte-identical output on every replay,
and its final line matches the live run's (both derive from the same
``CampaignFinished`` payload).

File schema (one JSON object per line)::

    {"kind": "header", "log": "events", "format": 1, "name": ...,
     "fingerprint": ..., "total_points": ..., "strategy": ..., "jobs": ...}
    {"kind": "campaign_started", "seq": 1, "ts": 1699.5, "data": {...}}
    {"kind": "point_started",    "seq": 2, "ts": 1699.6, "data": {...}}
    ...

``seq`` is the log-wide delivery order (monotonic across appended sessions),
``ts`` the wall clock at delivery; point events additionally carry the
worker-side stamps inside ``data``, which is the event's own
:meth:`~repro.sweep.events.RunEvent.to_json`.  Lines the event registry
cannot decode (unknown kinds, malformed data) are skipped on replay, so old
readers survive new event types and a damaged line cannot crash a replay.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterator, List, NamedTuple, Optional

from repro.sweep.events import (
    CampaignFinished,
    CampaignStarted,
    EventBus,
    ObserverError,
    PointFailed,
    RunEvent,
    RunObserver,
)
from repro.utils.jsonl import AppendOnlyJsonl, iter_jsonl, read_header

#: Version tag of the event-log file format.
EVENT_LOG_FORMAT = 1


class EventLogMismatch(RuntimeError):
    """The event log on disk belongs to a different campaign spec."""


def default_event_log_path(checkpoint_path: str) -> str:
    """The sidecar event-log path for a checkpoint: ``c.jsonl → c.events.jsonl``."""
    path = os.fspath(checkpoint_path)
    root, ext = os.path.splitext(path)
    if ext == ".jsonl":
        return root + ".events.jsonl"
    return path + ".events.jsonl"


# --------------------------------------------------------------------------- #
# write side
# --------------------------------------------------------------------------- #
class EventLogObserver(RunObserver):
    """Serialises every campaign event to a JSONL sidecar, as it happens.

    Subscribe it (critical) to a campaign's bus — or pass ``event_log=`` to
    :func:`~repro.sweep.campaign.execute_campaign`, which also opens it
    eagerly so a fingerprint mismatch refuses *before* any work runs.  The
    log is append-only: resuming a campaign appends a fresh
    ``campaign_started`` session to the same file (the replay side resets
    per session, exactly like a live :class:`ProgressReporter`).
    """

    # repro: allow[determinism] injected clock seam — tests pass a fake; ts is advisory metadata
    def __init__(self, path: str, clock: Callable[[], float] = time.time) -> None:
        self._file = AppendOnlyJsonl(path, "event log")
        self.path = self._file.path
        self._clock = clock
        self.seq = 0  #: last log-wide sequence number written

    # ------------------------------------------------------------------ #
    def open(
        self,
        name: str,
        fingerprint: str,
        total_points: Optional[int] = None,
        strategy: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> None:
        """Open for append, writing (or fingerprint-checking) the header.

        The pass that checks an existing header also finds the last ``seq``,
        which the appended session continues.
        """
        if self._file.is_open:
            return

        def refuse(existing: dict) -> EventLogMismatch:
            return EventLogMismatch(
                f"event log {self.path!r} was written for campaign "
                f"{existing.get('name')!r} (fingerprint {existing.get('fingerprint')}); "
                f"refusing to append a campaign with fingerprint {fingerprint} to it"
            )

        last_seq = 0

        def track(payload: dict) -> None:
            nonlocal last_seq
            last_seq = payload.get("seq", last_seq) or last_seq

        self._file.open(
            {
                "kind": "header",
                "log": "events",
                "format": EVENT_LOG_FORMAT,
                "name": name,
                "fingerprint": fingerprint,
                "total_points": total_points,
                "strategy": strategy,
                "jobs": jobs,
            },
            refuse=refuse,
            on_line=track,
        )
        self.seq = last_seq

    #: The event-log header on disk (None when the file is absent).
    read_header = staticmethod(read_header)

    # ------------------------------------------------------------------ #
    def on_event(self, event: RunEvent) -> None:
        if not self._file.is_open:
            if not isinstance(event, CampaignStarted):
                return  # standalone use: nothing to log before a session opens
            self.open(
                name=event.name,
                fingerprint=event.fingerprint,
                total_points=event.total_points,
                strategy=event.strategy,
                jobs=event.jobs,
            )
        self.seq += 1
        self._file.write(
            {
                "kind": event.kind,
                "seq": self.seq,
                "ts": self._clock(),
                "data": event.to_json(),
            }
        )

    def close(self) -> None:
        """Close the underlying file handle."""
        self._file.close()

    def __enter__(self) -> "EventLogObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# read side
# --------------------------------------------------------------------------- #
class ReplayStats(NamedTuple):
    """Outcome of one :meth:`CampaignReplay.replay` pass."""

    events: int  #: typed events delivered to the observers
    skipped: int  #: unknown or malformed lines skipped
    campaigns: int  #: campaign sessions in the log
    finished: bool  #: the last session reached CampaignFinished
    errors: List[ObserverError]  #: isolated observer failures
    failed: int = 0  #: permanently failed points in the last session

    def format(self) -> str:
        """One-line summary for the ``replay`` CLI subcommand."""
        if self.finished and self.failed:
            state = f"finished with {self.failed} failed point(s)"
        elif self.finished:
            state = "finished"
        else:
            state = "INCOMPLETE"
        extra = f", {self.skipped} undecodable line(s) skipped" if self.skipped else ""
        return (
            f"replayed {self.events} event(s) across {self.campaigns} "
            f"session(s){extra}; campaign {state}"
        )


class CampaignReplay:
    """Reconstruct a persisted event stream and re-drive observers from it.

    Replay is deterministic: observers that need a clock should use
    :attr:`clock`, which returns the logged delivery timestamp of the event
    currently in flight — two replays of one log produce byte-identical
    output, and rates/ETAs reflect the *original* run's timing, not the
    replay's.

    ::

        replay = CampaignReplay("campaign.events.jsonl")
        reporter = ProgressReporter(stream=sys.stdout, min_interval=0.0,
                                    clock=replay.clock)
        stats = replay.replay(reporter)
    """

    def __init__(self, path: str, fingerprint: Optional[str] = None) -> None:
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            raise FileNotFoundError(f"no event log at {self.path!r}")
        self.header = read_header(self.path)
        if self.header is None or self.header.get("log") != "events":
            raise EventLogMismatch(
                f"{self.path!r} is not an event log (no event-log header); "
                "was a checkpoint path passed by mistake?"
            )
        if fingerprint is not None and self.header.get("fingerprint") != fingerprint:
            raise EventLogMismatch(
                f"event log {self.path!r} was written for campaign "
                f"{self.header.get('name')!r} (fingerprint "
                f"{self.header.get('fingerprint')}); refusing to replay it as "
                f"fingerprint {fingerprint}"
            )
        self._now: float = 0.0
        self.skipped = 0  #: undecodable lines skipped by the last pass

    # ------------------------------------------------------------------ #
    def clock(self) -> float:
        """Logged timestamp of the event currently being dispatched."""
        return self._now

    def events(self) -> Iterator[RunEvent]:
        """The typed event stream, in logged order.

        Lines the registry cannot decode (unknown kinds, malformed data) are
        skipped and counted on :attr:`skipped`.  Advances :meth:`clock` as
        a side effect, so observers driven by hand see the same
        deterministic time base as :meth:`replay`.
        """
        self.skipped = 0
        for payload in iter_jsonl(self.path):
            if payload.get("kind") == "header":
                continue
            event = RunEvent.from_json(payload.get("kind"), payload.get("data"))
            if event is None:
                self.skipped += 1
                continue
            self._now = payload.get("ts", self._now) or self._now
            yield event

    def replay(self, *observers: Any) -> ReplayStats:
        """Publish every logged event to ``observers`` through a fresh bus.

        Observer failures are isolated exactly as in a live campaign and
        returned on :attr:`ReplayStats.errors`.
        """
        bus = EventBus()
        for observer in observers:
            bus.subscribe(observer)
        events = campaigns = failed = 0
        finished = False
        for event in self.events():
            if isinstance(event, CampaignStarted):
                campaigns += 1
                finished = False
                failed = 0
            elif isinstance(event, PointFailed):
                failed += 1
            elif isinstance(event, CampaignFinished):
                finished = True
                # Trust the finish marker when present: a resumed session
                # inherits failures persisted by earlier sessions that this
                # session's PointFailed count would miss.
                failed = max(failed, event.failed or 0)
            bus.publish(event)
            events += 1
        return ReplayStats(
            events=events,
            skipped=self.skipped,
            campaigns=campaigns,
            finished=finished,
            errors=list(bus.errors),
            failed=failed,
        )
