"""The append-only JSONL perf-history store.

One file accumulates every benchmark record a machine (or a CI fleet on a
shared artifact store) ever produced: the first line is a header naming the
log, every later line one :class:`HistoryRecord` — the benchmark envelope
plus a commit id and an append timestamp — so the performance trajectory of
a metric can be reconstructed per host across PRs.

The file follows the append-only JSONL rules of :mod:`repro.utils.jsonl`.
Reading skips a torn or corrupted line **with a warning**
(:class:`PerfHistoryWarning`) instead of poisoning the whole history.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import warnings
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.bench.model import BENCH_FORMAT, BenchResult
from repro.utils.jsonl import AppendOnlyJsonl, iter_jsonl

#: Version tag of the perf-history file format.
HISTORY_FORMAT = 1


class PerfHistoryWarning(UserWarning):
    """A malformed history line was skipped."""


def git_commit_info(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Best-effort ``{"id", "branch", "dirty"}`` of the working tree.

    Returns None outside a git checkout (history records then carry the
    commit info embedded in the benchmark payload, when any).
    """
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if head.returncode != 0:
            return None
        branch = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        return {
            "id": head.stdout.strip(),
            "branch": branch.stdout.strip() if branch.returncode == 0 else None,
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _envelope(result: BenchResult) -> Dict[str, Any]:
    """The :class:`BenchResult` fields of ``result``, as keyword arguments."""
    return {f.name: getattr(result, f.name) for f in fields(BenchResult)}


@dataclass
class HistoryRecord(BenchResult):
    """One appended benchmark envelope, with its append-time stamp.

    ``datetime`` is when the benchmark ran (from its payload);
    ``recorded_ts`` is when the record was appended.
    """

    recorded_ts: Optional[float] = None

    @property
    def host_key(self) -> str:
        return self.host.key

    @property
    def commit_id(self) -> Optional[str]:
        return (self.commit or {}).get("id")

    def to_result(self) -> BenchResult:
        """The envelope view (what the gate consumes)."""
        return BenchResult(**_envelope(self))

    def to_json_dict(self) -> Dict[str, Any]:
        payload = self.to_payload()
        del payload["bench_format"]
        payload.update(
            kind="perf",
            format=HISTORY_FORMAT,
            host_key=self.host_key,
            recorded_ts=self.recorded_ts,
        )
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "HistoryRecord":
        if not isinstance(payload.get("metrics"), dict) or not payload.get("suite"):
            raise ValueError("perf record needs a suite and a metrics dict")
        result = BenchResult.from_payload(dict(payload, bench_format=BENCH_FORMAT))
        return cls(**_envelope(result), recorded_ts=payload.get("recorded_ts"))


class PerfHistory:
    """Append-only JSONL store of benchmark envelopes."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.dropped_lines = 0  #: malformed lines skipped by the last read

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(
        self,
        result: BenchResult,
        commit: Optional[Dict[str, Any]] = None,
        recorded_ts: Optional[float] = None,
    ) -> HistoryRecord:
        """Append one envelope; returns the record as written.

        ``commit`` defaults to the payload's own commit info, then to the
        current git checkout's.
        """
        record = HistoryRecord(
            **dict(
                _envelope(result),
                metrics=dict(result.metrics),
                commit=commit or result.commit or git_commit_info(),
            ),
            recorded_ts=time.time() if recorded_ts is None else recorded_ts,
        )
        history = AppendOnlyJsonl(self.path, "perf history", owner="writer")
        history.open(
            {"kind": "header", "log": "perf-history", "format": HISTORY_FORMAT},
            refuse=lambda found: ValueError(f"{self.path!r} is not a perf history: {found}"),
        )
        try:
            history.write(record.to_json_dict())
        finally:
            history.close()
        return record

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def records(
        self,
        suite: Optional[str] = None,
        host_key: Optional[str] = None,
        include_smoke: bool = True,
    ) -> List[HistoryRecord]:
        """Every intact record, oldest first, optionally filtered.

        Malformed lines — JSON fragments from a torn write, or lines missing
        the record shape — are skipped with a :class:`PerfHistoryWarning`.
        """
        self.dropped_lines = 0
        records: List[HistoryRecord] = []
        if not os.path.exists(self.path):
            return records

        def corrupt(line: str) -> None:
            self.dropped_lines += 1
            warnings.warn(
                f"perf history {self.path!r}: skipping malformed line "
                f"{line[:80]!r}",
                PerfHistoryWarning,
                stacklevel=3,
            )

        for payload in iter_jsonl(self.path, on_corrupt=corrupt):
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if kind == "header":
                continue
            if kind != "perf":
                corrupt(json.dumps(payload)[:80])
                continue
            try:
                record = HistoryRecord.from_json_dict(payload)
            except (ValueError, TypeError, KeyError):
                corrupt(json.dumps(payload)[:80])
                continue
            if suite is not None and record.suite != suite:
                continue
            if host_key is not None and record.host_key != host_key:
                continue
            if not include_smoke and record.smoke:
                continue
            records.append(record)
        return records

    def latest(self) -> List[HistoryRecord]:
        """The newest record per ``(suite, host_key)`` — what ``gate`` checks."""
        latest: Dict[tuple, HistoryRecord] = {}
        for record in self.records():
            latest[(record.suite, record.host_key)] = record
        return [latest[key] for key in sorted(latest)]

    def suites(self) -> List[str]:
        """The distinct suites present, sorted."""
        return sorted({r.suite for r in self.records()})
