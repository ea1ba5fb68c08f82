"""Resumable JSONL campaign checkpoints.

One file per campaign.  The first line is a header carrying the spec's
fingerprint (and the search strategy); every later line is one completed
:class:`~repro.sweep.record.PointRecord`, except a ``finished`` marker
appended when a campaign runs to completion (what ``--follow`` trusts for
adaptive strategies).  Appends are flushed line-by-line, so a killed
campaign leaves a valid prefix: on restart the campaign loads the completed
keys, skips them, and only evaluates what is missing.

A half-written trailing line (the likely artefact of a hard kill) is
tolerated and dropped; a header whose fingerprint does not match the spec
being resumed raises :class:`CheckpointMismatch` rather than silently mixing
two campaigns in one file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, TextIO

try:
    import fcntl
except ImportError:  # non-POSIX platforms: advisory locking degrades to none
    fcntl = None

from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepSpec

#: Version tag of the checkpoint file format.
CHECKPOINT_FORMAT = 1


def iter_jsonl(path: str, on_corrupt=None):
    """Yield the parsed payload of every intact JSONL line of ``path``.

    Blank lines are skipped; unparseable lines (the truncated tail of a
    killed writer) are passed to ``on_corrupt`` (when given) and dropped —
    the shared tolerance contract of every campaign sidecar file: the
    checkpoint, its compactor and the event log all read through here.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                if on_corrupt is not None:
                    on_corrupt(line)


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of :meth:`CampaignCheckpoint.compact`."""

    kept: int  #: records surviving compaction (latest per point key)
    dropped_records: int  #: superseded records removed
    dropped_lines: int  #: unparseable fragments removed

    def format(self) -> str:
        """One-line summary for the ``compact`` CLI subcommand."""
        return (
            f"kept {self.kept} record(s), dropped {self.dropped_records} "
            f"superseded record(s) and {self.dropped_lines} corrupt line(s)"
        )


class CheckpointMismatch(RuntimeError):
    """The checkpoint on disk belongs to a different campaign spec."""


class CampaignCheckpoint:
    """Append-only JSONL store of completed sweep points."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[TextIO] = None
        self.dropped_lines = 0

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def load(
        self,
        spec: Optional[SweepSpec] = None,
        fingerprint: Optional[str] = None,
    ) -> Dict[str, PointRecord]:
        """Completed records keyed by point key (empty when no file yet).

        When ``spec`` (or a precomputed ``fingerprint``) is given, the header
        fingerprint is verified against it.
        """
        expected = fingerprint if fingerprint is not None else (
            spec.fingerprint() if spec is not None else None
        )
        records: Dict[str, PointRecord] = {}
        self.dropped_lines = 0
        if not os.path.exists(self.path):
            return records

        def corrupt(_line):
            # A truncated tail from a killed run; everything before it is
            # intact, so drop the fragment and carry on.
            self.dropped_lines += 1

        for payload in iter_jsonl(self.path, on_corrupt=corrupt):
            kind = payload.get("kind")
            if kind == "header":
                found = payload.get("fingerprint")
                if expected is not None and found != expected:
                    raise CheckpointMismatch(
                        f"checkpoint {self.path!r} was written for campaign "
                        f"{payload.get('name')!r} (fingerprint {found}); "
                        "refusing to resume a campaign with fingerprint "
                        f"{expected} from it"
                    )
            elif kind == "record":
                record = PointRecord.from_json_dict(payload)
                records[record.key] = record
        return records

    def read_header(self) -> Optional[dict]:
        """The header payload of the file on disk (None when absent).

        An introspection helper (tests, tooling): it reads the name,
        fingerprint, strategy and total point count without loading every
        record.  The ``--follow`` follower does *not* use it — it parses the
        header inline while streaming the file incrementally
        (:class:`repro.sweep.follow._Follower`).
        """
        if not os.path.exists(self.path):
            return None
        for payload in iter_jsonl(self.path):
            if payload.get("kind") == "header":
                return payload
        return None

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> CompactionStats:
        """Rewrite the file keeping only the latest record per point key.

        JSONL checkpoints are append-only, so a campaign that re-evaluates a
        point (e.g. after a compaction-free history of crashes and retries)
        accumulates superseded lines.  Compaction preserves the header —
        fingerprint included, so resume still recognises the campaign — and,
        per key, the *last* record written, plus the latest ``finished``
        marker so ``--follow`` still recognises a completed campaign.
        First-seen key order is kept, so compacting an already-compact file
        is a byte-stable no-op.  The rewrite lands via an atomic rename; a
        crash mid-compaction leaves the original file untouched.

        A checkpoint that a live campaign holds open — in this process or
        (via the advisory file lock) any other — is refused: replacing the
        file under an active appender would silently divert its appends to
        an unlinked inode.
        """
        if self._fh is not None:
            raise RuntimeError("cannot compact a checkpoint that is open for append")
        if not os.path.exists(self.path):
            return CompactionStats(kept=0, dropped_records=0, dropped_lines=0)
        header: Optional[dict] = None
        finished: Optional[dict] = None
        latest: Dict[str, dict] = {}
        order: list = []
        dropped_lines = 0
        total_records = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            self._guard_not_locked(fh)

        def corrupt(_line):
            nonlocal dropped_lines
            dropped_lines += 1

        for payload in iter_jsonl(self.path, on_corrupt=corrupt):
            kind = payload.get("kind")
            if kind == "header":
                if header is None:
                    header = payload
            elif kind == "record":
                total_records += 1
                key = payload.get("key")
                if key not in latest:
                    order.append(key)
                latest[key] = payload
            elif kind == "finished":
                finished = payload
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".compact", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                if header is not None:
                    out.write(json.dumps(header, sort_keys=True) + "\n")
                for key in order:
                    out.write(json.dumps(latest[key], sort_keys=True) + "\n")
                if finished is not None:
                    out.write(json.dumps(finished, sort_keys=True) + "\n")
            os.replace(tmp_path, self.path)
        except BaseException:
            os.unlink(tmp_path)
            raise
        return CompactionStats(
            kept=len(order),
            dropped_records=total_records - len(order),
            dropped_lines=dropped_lines,
        )

    @staticmethod
    def _guard_not_locked(fh) -> None:
        """Raise when another process holds the checkpoint's append lock."""
        if fcntl is None:
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_SH | fcntl.LOCK_NB)
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError:
            raise RuntimeError(
                "cannot compact a checkpoint that a running campaign holds "
                "open for append"
            ) from None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def open_for_append(
        self,
        spec: SweepSpec,
        fingerprint: Optional[str] = None,
        total_points: Optional[int] = None,
        strategy: Optional[str] = None,
    ) -> None:
        """Open the file, writing the header when the file is new.

        ``fingerprint``/``total_points`` may be passed precomputed to avoid
        re-expanding the spec; ``strategy`` is recorded in the header so a
        ``--follow`` tailer knows whether the record count can be compared
        against ``total_points`` (only exhaustive grids guarantee that).
        A hard kill can leave a truncated trailing line without a newline;
        terminate it first so the next append starts a fresh line instead of
        gluing onto the fragment (which would lose that record on reload).

        While open, the file carries an advisory exclusive lock so a
        concurrent :meth:`compact` (or a second campaign on the same path)
        fails fast instead of corrupting the append stream.
        """
        is_new = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        needs_newline = False
        if not is_new:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                needs_newline = fh.read(1) != b"\n"
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock_append_handle()
        if needs_newline:
            self._fh.write("\n")
            self._fh.flush()
        if is_new:
            header = {
                "kind": "header",
                "format": CHECKPOINT_FORMAT,
                "name": spec.name,
                "fingerprint": fingerprint if fingerprint is not None else spec.fingerprint(),
                "total_points": (
                    total_points if total_points is not None else len(spec.expand())
                ),
            }
            if strategy is not None:
                header["strategy"] = strategy
            self._write_line(header)

    def _lock_append_handle(self) -> None:
        if fcntl is None:
            return
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise RuntimeError(
                f"checkpoint {self.path!r} is already open for append by "
                "another campaign"
            ) from None

    def append(self, record: PointRecord) -> None:
        """Persist one completed point (flushed immediately)."""
        if self._fh is None:
            raise RuntimeError("checkpoint is not open; call open_for_append() first")
        payload = record.to_json_dict()
        payload["kind"] = "record"
        self._write_line(payload)

    def write_finished(self, evaluated: int, resumed: int, failed: int = 0) -> None:
        """Append the campaign-finished marker (flushed immediately).

        The marker is what tells a ``--follow`` tailer that an *adaptive*
        campaign (halving evaluates more records than ``total_points``,
        random fewer) is genuinely done, independent of record counts.
        ``failed`` counts permanently failed points; the key is written only
        when non-zero, so markers from clean campaigns are unchanged.
        """
        if self._fh is None:
            raise RuntimeError("checkpoint is not open; call open_for_append() first")
        marker = {"kind": "finished", "evaluated": evaluated, "resumed": resumed}
        if failed:
            marker["failed"] = failed
        self._write_line(marker)

    def _write_line(self, payload: dict) -> None:
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file handle."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
