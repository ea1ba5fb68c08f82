"""Resumable JSONL campaign checkpoints.

One file per campaign.  The first line is a header carrying the spec's
fingerprint (and the search strategy); every later line is one completed
:class:`~repro.sweep.record.PointRecord`, except a ``finished`` marker
appended when a campaign runs to completion (what ``--follow`` trusts for
adaptive strategies).  The file follows the append-only JSONL rules of
:mod:`repro.utils.jsonl`, so a killed campaign leaves a valid prefix: on
restart the campaign loads the completed keys, skips them, and only
evaluates what is missing.  A header whose fingerprint does not match the
spec being resumed raises :class:`CheckpointMismatch`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sweep.events import CampaignFinished, PointCompleted, PointFailed, RunEvent, RunObserver
from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepSpec
from repro.utils.jsonl import (
    AppendOnlyJsonl,
    encode_line,
    held_elsewhere,
    iter_jsonl,
    join_members,
    read_header,
)

#: Version tag of the checkpoint file format.
CHECKPOINT_FORMAT = 1


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


class CampaignCheckpoint(RunObserver):
    """Append-only JSONL store of completed sweep points.

    It is also the campaign observer that appends each completed or failed
    point and the finished marker as they are published.
    """

    def __init__(self, path: str) -> None:
        self._file = AppendOnlyJsonl(path, "checkpoint")
        self.path = self._file.path
        self.dropped_lines = 0

    def _mismatch(self, header: dict, expected: Optional[str]) -> CheckpointMismatch:
        return CheckpointMismatch(
            f"checkpoint {self.path!r} was written for campaign "
            f"{header.get('name')!r} (fingerprint {header.get('fingerprint')}); "
            f"refusing to resume a campaign with fingerprint {expected} from it"
        )

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
        for payload in iter_jsonl(self.path, on_corrupt=self._drop):
            kind = payload.get("kind")
            if kind == "header":
                if expected is not None and payload.get("fingerprint") != expected:
                    raise self._mismatch(payload, expected)
            elif kind == "record":
                record = PointRecord.from_json_dict(payload)
                records[record.key] = record
        return records

    def _drop(self, _line: str) -> None:
        # A truncated tail from a killed run; everything before it is
        # intact, so drop the fragment and carry on.
        self.dropped_lines += 1

    def read_header(self) -> Optional[dict]:
        """The header payload of the file on disk (None when absent)."""
        return read_header(self.path)

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
        if self._file.is_open:
            raise RuntimeError("cannot compact a checkpoint that is open for append")
        if not os.path.exists(self.path):
            return CompactionStats(kept=0, dropped_records=0, dropped_lines=0)
        if held_elsewhere(self.path):
            raise RuntimeError(
                "cannot compact a checkpoint that a running campaign holds "
                "open for append"
            )
        header: Optional[dict] = None
        finished: Optional[dict] = None
        latest: Dict[str, dict] = {}
        order: list = []
        total_records = self.dropped_lines = 0
        for payload in iter_jsonl(self.path, on_corrupt=self._drop):
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
        kept = [header] + [latest[key] for key in order] + [finished]
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".compact", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.writelines(encode_line(payload) for payload in kept if payload is not None)
            os.replace(tmp_path, self.path)
        except BaseException:
            os.unlink(tmp_path)
            raise
        return CompactionStats(
            kept=len(order),
            dropped_records=total_records - len(order),
            dropped_lines=self.dropped_lines,
        )

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
        """Open the file, writing the header when the file has none.

        ``fingerprint``/``total_points`` may be passed precomputed to avoid
        re-expanding the spec; ``strategy`` is recorded in the header so a
        ``--follow`` tailer knows whether the record count can be compared
        against ``total_points`` (only exhaustive grids guarantee that).
        While open, the append lock makes a concurrent :meth:`compact` or a
        second campaign on the same path fail fast.
        """
        fingerprint = fingerprint if fingerprint is not None else spec.fingerprint()
        header = {
            "kind": "header",
            "format": CHECKPOINT_FORMAT,
            "name": spec.name,
            "fingerprint": fingerprint,
            "total_points": (
                total_points if total_points is not None else len(spec.expand())
            ),
        }
        if strategy is not None:
            header["strategy"] = strategy
        self._file.open(header, refuse=lambda found: self._mismatch(found, fingerprint))

    def append(self, record: PointRecord, event: Optional[RunEvent] = None) -> None:
        """Persist one completed point (flushed immediately).

        ``event`` is the published event carrying ``record``, when there is
        one: the record is encoded once for the event, and the event log's
        line reuses that text (:meth:`RunEvent.record_members`).
        """
        self._require_open()
        if event is None:
            event = PointCompleted(record=record)
        before, after = event.record_members()
        self._file.write_line(join_members(before, '"kind": "record"', after) + "\n")

    def write_finished(self, evaluated: int, resumed: int, failed: int = 0) -> None:
        """Append the campaign-finished marker (flushed immediately).

        The marker is what tells a ``--follow`` tailer that an *adaptive*
        campaign (halving evaluates more records than ``total_points``,
        random fewer) is genuinely done, independent of record counts.
        ``failed`` counts permanently failed points; the key is written only
        when non-zero, so markers from clean campaigns are unchanged.
        """
        self._require_open()
        marker = {"kind": "finished", "evaluated": evaluated, "resumed": resumed}
        if failed:
            marker["failed"] = failed
        self._file.write(marker)

    def _require_open(self) -> None:
        if not self._file.is_open:
            raise RuntimeError("checkpoint is not open; call open_for_append() first")

    # ------------------------------------------------------------------ #
    # observing
    # ------------------------------------------------------------------ #
    def on_point_completed(self, event: PointCompleted) -> None:
        self.append(event.record, event)

    def on_point_failed(self, event: PointFailed) -> None:
        # Failure records are durable too: a resume must know the point was
        # quarantined, not merely never attempted.
        self.append(event.record, event)

    def on_campaign_finished(self, event: CampaignFinished) -> None:
        # The durable end-of-campaign marker: what tells a cross-process
        # --follow tailer that an adaptive campaign is done (its record
        # count need not match the header's total_points).
        self.write_finished(
            evaluated=event.evaluated, resumed=event.resumed, failed=event.failed
        )

    def close(self) -> None:
        """Close the underlying file handle."""
        self._file.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
