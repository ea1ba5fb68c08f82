"""Tail a live campaign from another process: ``python -m repro.sweep --follow``.

Two durable streams can drive the follower:

* the **event log** (:mod:`repro.sweep.eventlog`) — the full typed event
  stream, one JSONL line per event.  Following it shows per-point starts
  (with true worker attribution), in-flight points and per-worker
  throughput, and completion is the logged :class:`CampaignFinished` event;
* the **checkpoint** (:mod:`repro.sweep.checkpoint`) — the legacy fallback:
  one line per *completed* point, so only completions (and the ``finished``
  marker) are visible.

:func:`follow_campaign` picks automatically: given an event log (or a
checkpoint whose sidecar event log exists) it follows events; any other
path falls back to checkpoint tailing, byte-compatible with older files.

One follower serves both.  A small decoder per source turns each JSONL
line into a typed :class:`~repro.sweep.events.RunEvent` — event-log lines
through the event registry (:meth:`RunEvent.from_json`), checkpoint
``record`` lines into :class:`PointCompleted`/:class:`PointFailed` and its
``finished`` marker into :class:`CampaignFinished` — and the follow state
is a :class:`~repro.sweep.events.RunObserver` fed those events.  Lines that
do not decode are ignored.

The follower's incremental reader survives the realities of files written
by other processes:

* a **half-written trailing line** (no newline yet) is re-read on the next
  poll — and if the writer died mid-line, :meth:`_Follower.finalize`
  salvages the tail if it parses, so a torn ``finished`` marker still
  completes the campaign instead of wedging the follower at N-1/N;
* **truncation or atomic rewrite** (``compact`` runs mid-tail, the file
  shrinks, or the first line changes under us) resets the read offset *and*
  the seen-key set, re-syncing from the new file contents — counts stay
  accurate instead of silently stalling until the idle timeout.

The follower is failure-aware: permanently failed points (quarantined by
the fault-tolerant runners) count as *done* — the campaign genuinely
finished with them — but are reported separately, and event logs
additionally surface retries, lost workers and pool restarts as incident
lines as they stream in.

Exit codes: 0 when the campaign completed cleanly, 1 when it completed but
some points permanently failed, 2 when the follower gave up on an
incomplete campaign after ``idle_timeout`` seconds without new data.

The follower needs no connection to the producing process, so it works
across terminals, containers or hosts sharing the file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, TextIO, Tuple

from repro.sweep.eventlog import default_event_log_path
from repro.sweep.events import (
    CampaignFinished,
    CampaignStarted,
    PointCompleted,
    PointFailed,
    PointResumed,
    PointRetried,
    PointStarted,
    PoolRestarted,
    RunEvent,
    RunObserver,
    WorkerLost,
)
from repro.sweep.record import PointRecord
from repro.utils.jsonl import read_header


# --------------------------------------------------------------------------- #
# the two sources
# --------------------------------------------------------------------------- #
def _event_log_line(payload: dict) -> Optional[RunEvent]:
    """An event-log line, decoded through the event registry."""
    return RunEvent.from_json(payload.get("kind"), payload.get("data"))


def _checkpoint_line(payload: dict) -> Optional[RunEvent]:
    """A checkpoint line: a completed or failed point, or the finish marker."""
    kind = payload.get("kind")
    if kind == "record":
        record = PointRecord.from_json_dict(payload)
        return PointFailed(record) if record.failed else PointCompleted(record)
    if kind == "finished":
        # The marker carries no name, total or wall time; the follower only
        # reads the failure count off the finish event.
        return CampaignFinished(
            name="",
            total_points=0,
            evaluated=payload.get("evaluated", 0),
            resumed=payload.get("resumed", 0),
            wall_seconds=0.0,
            failed=payload.get("failed") or 0,
        )
    return None


class _Source(NamedTuple):
    """A durable stream the follower can tail."""

    noun: str  #: what the file is called in the re-sync notice
    attach: str  #: the first line's verb phrase
    decode: Callable[[dict], Optional[RunEvent]]
    #: Show in-flight counts and the per-worker report (event logs only).
    detailed: bool


_EVENT_LOG = _Source("event log", "following events", _event_log_line, True)
_CHECKPOINT = _Source("checkpoint", "following", _checkpoint_line, False)


# --------------------------------------------------------------------------- #
# per-worker throughput
# --------------------------------------------------------------------------- #
@dataclass
class WorkerThroughput:
    """One worker's campaign activity, from the worker's own timestamps.

    Completions carry the evaluating process's pid and begin/finish stamps
    in ``PointRecord.meta`` (see :mod:`repro.sweep.runners`); the follower
    folds them here.
    """

    worker: int
    points: int = 0
    first_ts: Optional[float] = None  #: earliest started_ts stamped
    last_ts: Optional[float] = None  #: latest finished_ts stamped

    @staticmethod
    def fold_completion(workers: Dict[int, "WorkerThroughput"], meta: dict) -> None:
        """Count one completed point under the worker its meta names."""
        worker = meta.get("worker")
        if worker is None:
            return
        stats = workers.setdefault(worker, WorkerThroughput(worker=worker))
        stats.points += 1
        stats.fold_start(meta.get("started_ts"))
        finished = meta.get("finished_ts")
        if finished is not None and (stats.last_ts is None or finished > stats.last_ts):
            stats.last_ts = finished

    def fold_start(self, ts: Optional[float]) -> None:
        """Widen the span back to ``ts`` when it is the earliest start."""
        if ts is not None and (self.first_ts is None or ts < self.first_ts):
            self.first_ts = ts

    @property
    def span_seconds(self) -> Optional[float]:
        if self.first_ts is None or self.last_ts is None:
            return None
        return max(self.last_ts - self.first_ts, 0.0)

    @property
    def points_per_second(self) -> Optional[float]:
        span = self.span_seconds
        if span is None or span <= 0:
            return None
        return self.points / span


# --------------------------------------------------------------------------- #
# the follower: incremental reader plus follow state
# --------------------------------------------------------------------------- #
class _Follower(RunObserver):
    """Incrementally read a live campaign file and track its progress.

    Every complete JSONL line is decoded by the source into a typed event
    and dispatched to this observer's ``on_<kind>`` hooks.  Progress units
    are *done* points (completed, resumed or failed).  Starts accumulate on
    :attr:`pending_starts` and incidents on :attr:`pending_incidents` for
    the follow loop to print; per-worker completion counts and timestamps
    feed the throughput report.
    """

    def __init__(self, path: str, source: _Source) -> None:
        self.path = path
        self.source = source
        self.offset = 0
        self.resyncs = 0  #: rewrites/truncations detected so far
        self.resynced = False  #: the *last* poll detected one
        self.salvaged_tail = False  #: finalize() parsed a torn trailing line
        self._first_line: Optional[str] = None
        self._torn_tail: Optional[str] = None
        self._ino: Optional[int] = None
        self._progress = 0  # done points ever counted, across re-syncs
        self.total: Optional[int] = None
        self.name = "campaign"
        self.strategy: Optional[str] = None
        self._reset_state()

    def _reset_state(self) -> None:
        """Forget everything derived from the file's contents.

        Called per session (each :class:`CampaignStarted`) and when the file
        was rewritten: a compacted file re-lists every live key, and keeping
        the old seen-key set would mask keys the rewrite removed.
        """
        self.finished = False
        self.marker_failed = 0
        self.started: Dict[str, Optional[int]] = {}  # key -> worker pid
        self.done: set = set()  # completed, resumed or failed keys
        self.failed_keys: set = set()
        #: (label, worker pid) starts not yet printed by the follower.
        self.pending_starts: List[Tuple[str, Optional[int]]] = []
        #: incident lines not yet printed by the follower.
        self.pending_incidents: List[str] = []
        self.workers: Dict[int, WorkerThroughput] = {}

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def poll(self) -> int:
        """Consume newly appended complete lines; return new progress units.

        Three independent rewrite detectors guard against a stale offset, in
        cheapest-first order: a shrunk file (plain truncation), a changed
        inode (atomic-rename rewrite, e.g. ``compact`` — catches the rewrite
        even after the new file has regrown *past* the old offset and even
        though compaction reproduces the header byte-identically), and a
        changed first line (in-place rewrite keeping the inode).  Any hit
        resets the offset and the derived state and re-syncs from the start
        instead of stalling.
        """
        self.resynced = False
        if not os.path.exists(self.path):
            return 0
        before = self._progress
        self._torn_tail = None
        with open(self.path, "r", encoding="utf-8") as fh:
            stat = os.fstat(fh.fileno())
            ino = stat.st_ino or None  # some platforms report 0: no signal
            if self.offset > 0:
                rewritten = stat.st_size < self.offset
                if not rewritten and None not in (ino, self._ino):
                    rewritten = ino != self._ino
                if not rewritten and self._first_line is not None:
                    rewritten = fh.readline() != self._first_line
                if rewritten:
                    self._resync()
                fh.seek(self.offset)
            self._ino = ino
            while True:
                line_start = fh.tell()
                line = fh.readline()
                if not line:
                    break
                if not line.endswith("\n"):
                    # A half-written tail: remember it (finalize() may
                    # salvage it) and re-read it on the next poll.
                    self._torn_tail = line
                    break
                if line_start == 0:
                    self._first_line = line
                self.offset = fh.tell()
                self._consume(line)
        return self._progress - before

    def finalize(self) -> None:
        """Last-resort read: also consume a parseable torn trailing line.

        A writer that crashed (or was killed) after writing a full JSON line
        but before its newline leaves a tail ``poll`` will never consume.
        Called when the follower is about to give up: if that tail parses,
        it is consumed — a torn-but-complete ``finished`` marker then ends
        the campaign cleanly instead of reporting N-1/N forever.
        """
        self.poll()
        if self._torn_tail is not None and self._consume(self._torn_tail):
            self.salvaged_tail = True
            self._torn_tail = None

    def _resync(self) -> None:
        self.offset = 0
        self._first_line = None
        self._torn_tail = None
        self.resyncs += 1
        self.resynced = True
        self._reset_state()

    def _consume(self, line: str) -> bool:
        """Parse and apply one line; False when it holds no JSON value."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return False  # blank, or torn mid-JSON
        if not isinstance(payload, dict):
            return True
        if payload.get("kind") == "header":
            # Both files open with the same header fields.
            self.name = payload.get("name", self.name)
            self.total = payload.get("total_points")
            self.strategy = payload.get("strategy")
            return True
        event = self.source.decode(payload)
        if event is not None:
            self.on_event(event)
        return True

    # ------------------------------------------------------------------ #
    # event hooks
    # ------------------------------------------------------------------ #
    def on_campaign_started(self, event: CampaignStarted) -> None:
        # A new session (fresh run or resume) on the same log: per-point
        # state restarts, exactly like a live ProgressReporter's.
        self.name = event.name
        self.total = event.total_points
        self.strategy = event.strategy
        self._reset_state()

    def on_point_started(self, event: PointStarted) -> None:
        if event.key not in self.started:
            self.started[event.key] = event.worker
            self.pending_starts.append((event.label, event.worker))

    def on_point_resumed(self, event: PointResumed) -> None:
        self._settle(event.record)

    def on_point_completed(self, event: PointCompleted) -> None:
        if self._settle(event.record):
            WorkerThroughput.fold_completion(self.workers, event.record.meta)

    def on_point_failed(self, event: PointFailed) -> None:
        record = event.record
        if record.key not in self.failed_keys:
            self.failed_keys.add(record.key)
            self.pending_incidents.append(
                f"FAILED {record.label or record.key}: {record.meta.get('error', '')}"
            )
        self._mark_done(record.key)

    def on_point_retried(self, event: PointRetried) -> None:
        self.pending_incidents.append(
            f"retrying {event.label or event.key} (attempt {event.attempt} "
            f"after {event.reason}: {event.error})"
        )

    def on_worker_lost(self, event: WorkerLost) -> None:
        self.pending_incidents.append(
            f"worker {event.worker} lost with {event.inflight} point(s) in flight"
        )

    def on_pool_restarted(self, event: PoolRestarted) -> None:
        self.pending_incidents.append(
            f"worker pool restarted (#{event.restarts}, jobs={event.jobs}): "
            f"{event.reason}"
        )

    def on_campaign_finished(self, event: CampaignFinished) -> None:
        self.finished = True
        self.marker_failed = int(event.failed or 0)

    def _settle(self, record: PointRecord) -> bool:
        """Count a completed or resumed record; True when newly done.

        A resumed failure record is done but counted as failed; a later
        success supersedes an earlier failure (``--retry-failed`` appends
        the fresh result to the same checkpoint).
        """
        if record.failed:
            self.failed_keys.add(record.key)
        else:
            self.failed_keys.discard(record.key)
        return self._mark_done(record.key)

    def _mark_done(self, key: str) -> bool:
        if key in self.done:
            return False
        self.done.add(key)
        self._progress += 1
        return True

    # ------------------------------------------------------------------ #
    # derived state
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Done points (completed, resumed or failed) of the current session."""
        return len(self.done)

    @property
    def in_flight(self) -> int:
        """Points started but not yet done."""
        return sum(1 for key in self.started if key not in self.done)

    @property
    def failed(self) -> int:
        """Permanently failed points (records seen, or the finish marker)."""
        return max(len(self.failed_keys), self.marker_failed)

    @property
    def complete(self) -> bool:
        """True once the campaign is provably done.

        The durable finish marker (the logged :class:`CampaignFinished`, or
        the checkpoint's ``finished`` line) is authoritative.  Without one,
        the done count is compared against the header's ``total_points`` —
        but only for exhaustive grids (or legacy headers naming no
        strategy): adaptive strategies evaluate more records than the
        expansion (halving's extra rungs) or fewer (random subsampling), so
        their counts prove nothing.
        """
        if self.finished:
            return True
        if self.strategy not in (None, "grid"):
            return False
        return self.total is not None and self.count >= self.total

    def drain_starts(self) -> List[Tuple[str, Optional[int]]]:
        """Starts observed since the last drain (label, worker pid)."""
        pending, self.pending_starts = self.pending_starts, []
        return pending

    def drain_incidents(self) -> List[str]:
        """Incident lines observed since the last drain."""
        pending, self.pending_incidents = self.pending_incidents, []
        return pending

    def worker_report(self) -> List[str]:
        """Per-worker throughput lines, from the workers' own timestamps."""
        lines = []
        for worker in sorted(self.workers):
            stats = self.workers[worker]
            per_second = stats.points_per_second
            rate = "-" if per_second is None else f"{per_second:.2f} points/s"
            lines.append(f"worker {worker}: {stats.points} point(s), {rate}")
        return lines


# --------------------------------------------------------------------------- #
# the follow loop
# --------------------------------------------------------------------------- #
def _completion_suffix(tailer: _Follower) -> str:
    """``, N failed`` when points permanently failed, else nothing.

    Appending only on failure keeps clean-run completion lines
    byte-identical to what CI and older tooling grep for.
    """
    return f", {tailer.failed} failed" if tailer.failed else ""


def _completion_code(tailer: _Follower) -> int:
    """0 for a clean completion, 1 when points permanently failed."""
    return 1 if tailer.failed else 0


def _finish_incomplete(tailer: _Follower, emit, idle_timeout: Optional[float]) -> int:
    """The give-up path: salvage the tail, then report complete or not."""
    tailer.finalize()
    total = tailer.total if tailer.total is not None else "?"
    if tailer.complete:
        note = " (salvaged torn trailing line)" if tailer.salvaged_tail else ""
        emit(
            f"[{tailer.name}] campaign complete: {tailer.count} points"
            f"{_completion_suffix(tailer)}{note}"
        )
        return _completion_code(tailer)
    idle = f"{idle_timeout:.0f}s" if idle_timeout is not None else "a long time"
    emit(
        f"[{tailer.name}] no new data for {idle}; campaign incomplete at "
        f"{tailer.count}/{total} point(s); giving up"
    )
    return 2


def _follow(
    path: str,
    source: _Source,
    poll_seconds: float,
    idle_timeout: Optional[float],
    stream: Optional[TextIO],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> int:
    """Poll ``path`` until its campaign completes or goes idle too long."""
    out = stream if stream is not None else sys.stdout

    def emit(line: str) -> None:
        out.write(line + "\n")
        out.flush()

    tailer = _Follower(path, source)
    emit(f"{source.attach} {path} ...")
    # Points already on disk predate the attach: they seed the count but
    # not the rate, so points/sec means "campaign throughput while watched".
    tailer.poll()
    tailer.drain_starts()  # starts that predate the attach are history
    tailer.drain_incidents()  # ... and so are incidents
    baseline = tailer.count
    t_attach = clock()
    last_data = t_attach
    first_status = True
    while True:
        new_done = 0 if first_status else tailer.poll()
        if tailer.resynced:
            emit(f"[{tailer.name}] {source.noun} rewritten, re-syncing")
            baseline = min(baseline, tailer.count)
        starts = tailer.drain_starts()
        for label, worker in starts:
            where = f" @ worker {worker}" if worker is not None else ""
            emit(f"[{tailer.name}] > started {label}{where}")
        incidents = tailer.drain_incidents()
        for line in incidents:
            emit(f"[{tailer.name}] ! {line}")
        now = clock()
        if new_done or starts or incidents or tailer.complete or first_status:
            if new_done or starts or incidents:
                last_data = now
            fresh = tailer.count - baseline
            elapsed = now - t_attach
            rate = fresh / elapsed if elapsed > 0 and fresh > 0 else 0.0
            total = tailer.total if tailer.total is not None else "?"
            remaining = (
                max(0, tailer.total - tailer.count) if tailer.total is not None else None
            )
            eta = (
                f"{remaining / rate:.1f}s"
                if rate > 0 and remaining is not None
                else "-"
            )
            in_flight = f"{tailer.in_flight} in flight | " if source.detailed else ""
            emit(
                f"[{tailer.name}] {tailer.count}/{total} points | "
                f"{rate:.2f} points/s | {in_flight}ETA {eta}"
            )
            first_status = False
        if tailer.complete:
            workers = tailer.workers if source.detailed else {}
            suffix = f" across {len(workers)} worker(s)" if workers else ""
            emit(
                f"[{tailer.name}] campaign complete: {tailer.count} points"
                f"{_completion_suffix(tailer)}{suffix}"
            )
            if workers:
                for line in tailer.worker_report():
                    emit(f"[{tailer.name}]   {line}")
            return _completion_code(tailer)
        if idle_timeout is not None and now - last_data > idle_timeout:
            return _finish_incomplete(tailer, emit, idle_timeout)
        sleep(poll_seconds)


def follow_checkpoint(
    path: str,
    poll_seconds: float = 0.25,
    idle_timeout: Optional[float] = 60.0,
    stream: Optional[TextIO] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail a JSONL checkpoint until the campaign completes (legacy mode).

    Parameters
    ----------
    path:
        The JSONL checkpoint a (possibly still running) campaign writes to.
        The file may not exist yet; the follower waits for it.
    poll_seconds:
        Delay between file polls.
    idle_timeout:
        Give up after this many seconds without any new data (``None``
        waits forever).  An incomplete campaign then exits with code 2 —
        after a last-resort re-read of any torn trailing line, so a writer
        killed between its final JSON and its newline cannot wedge
        completion detection.
    stream:
        Where progress lines go (default: stdout).  One line per update —
        append-friendly for CI log artifacts.
    """
    return _follow(path, _CHECKPOINT, poll_seconds, idle_timeout, stream, clock, sleep)


def follow_event_log(
    path: str,
    poll_seconds: float = 0.25,
    idle_timeout: Optional[float] = 60.0,
    stream: Optional[TextIO] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail a campaign event log: starts, in-flight points, worker rates.

    Everything :func:`follow_checkpoint` shows, plus per-point start lines
    with true worker attribution, the number of in-flight points on every
    status line, and a per-worker throughput report on completion — the
    payoff of following the full event stream rather than completions only.

    Note on in-flight counts: a chunked process pool ships start stamps
    back only when a chunk completes (delivery is deferred; the stamped
    timestamps stay faithful), so live in-flight counts are most meaningful
    for serial and streaming runners.
    """
    return _follow(path, _EVENT_LOG, poll_seconds, idle_timeout, stream, clock, sleep)


def _is_event_log(path: str) -> bool:
    """True when the file's first intact line is an event-log header."""
    try:
        header = read_header(path)
    except OSError:
        return False
    if header is None:
        # Absent (or content-free so far): trust the naming convention.
        return path.endswith(".events.jsonl")
    return header.get("log") == "events"


def follow_campaign(
    path: str,
    poll_seconds: float = 0.25,
    idle_timeout: Optional[float] = 60.0,
    stream: Optional[TextIO] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Follow a campaign by whichever durable stream the path offers.

    ``path`` may be an event log (followed directly), a checkpoint whose
    sidecar event log exists (the richer stream wins), or a legacy
    checkpoint (tail its completions — byte-compatible fallback).
    """
    kwargs = dict(
        poll_seconds=poll_seconds,
        idle_timeout=idle_timeout,
        stream=stream,
        clock=clock,
        sleep=sleep,
    )
    if _is_event_log(path):
        return follow_event_log(path, **kwargs)
    sidecar = default_event_log_path(path)
    if os.path.exists(sidecar) and os.path.exists(path) and _is_event_log(sidecar):
        # The richer stream wins — unless it is a *stale* sidecar from an
        # earlier session (the campaign was re-run without --event-log): a
        # logging campaign always touches the event log at or after every
        # checkpoint append, so a checkpoint strictly newer than the
        # sidecar means nobody is writing events now.  A checkpoint that
        # does not exist yet proves nothing about the sidecar either way,
        # so the named file wins there too (follow the event log directly
        # to attach to it before the campaign starts).
        try:
            fresh = os.path.getmtime(sidecar) >= os.path.getmtime(path)
        except OSError:
            fresh = True
        if fresh:
            return follow_event_log(sidecar, **kwargs)
    return follow_checkpoint(path, **kwargs)
