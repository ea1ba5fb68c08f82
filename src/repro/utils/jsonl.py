"""Append-only JSONL files: the one owner of their on-disk rules.

The campaign checkpoint and the campaign event log are append-only JSONL
files that share these rules:

* the header is the file's first intact line; a file without one (new,
  empty, or whose header line was torn) gets one when it is opened;
* a file whose header carries a different ``fingerprint`` is refused;
* a torn last line (a killed writer's fragment) is ended with a newline
  before the next append, so readers drop the fragment and the new lines
  parse;
* while open, the file holds a non-blocking exclusive advisory lock, so a
  second writer or a compaction fails fast instead of interleaving;
* each write is one sorted-key JSON line, flushed at once.

A line is always the bytes of :func:`encode_line` of its payload, but a
writer may build it from parts already encoded: :func:`encode_members`
splits a payload's members around one key and :func:`join_members` joins
member texts into an object.  That is how a campaign encodes each completed
record once and writes it to both files: the checkpoint line inserts
``"kind": "record"`` between the record's two halves, and the event line
splices the whole record text in as ``data.record``.

Readers go through :func:`iter_jsonl`, which drops torn and corrupt lines.
"""

from __future__ import annotations

import json
import os
from types import ModuleType
from typing import IO, Any, Callable, Dict, Iterator, Optional, Tuple

_fcntl: Optional[ModuleType]
try:
    import fcntl

    _fcntl = fcntl
except ImportError:  # non-POSIX platforms: advisory locking degrades to none
    _fcntl = None

Payload = Dict[str, Any]

#: ``json.dumps(value, sort_keys=True)``, without building an encoder per call.
encode_json: Callable[[Any], str] = json.JSONEncoder(sort_keys=True).encode


def iter_jsonl(path: str, on_corrupt: Optional[Callable[[str], None]] = None) -> Iterator[Any]:
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


def encode_line(payload: Payload) -> str:
    """``payload`` as one JSONL line: sorted keys, newline-terminated."""
    return encode_json(payload) + "\n"


def encode_members(payload: Payload, pivot: str) -> Tuple[str, str]:
    """The members of ``payload``'s sorted-key JSON that sort before and after ``pivot``.

    Each half is ``"key": value`` texts joined by ``", "``, without braces,
    and empty when no key falls on its side; ``payload`` must not hold
    ``pivot`` itself.  ``join_members(before, member, after)`` is then the
    object with ``member`` (the pivot's own ``"pivot": value`` text) in its
    sorted place, and ``join_members(before, after)`` the object without it.
    """
    before: Payload = {}
    after: Payload = {}
    for key, value in payload.items():
        if key < pivot:
            before[key] = value
        elif key > pivot:
            after[key] = value
        else:
            raise ValueError(f"payload already holds the pivot key {pivot!r}")
    return _members(before), _members(after)


def _members(payload: Payload) -> str:
    return encode_json(payload)[1:-1] if payload else ""


def join_members(*members: str) -> str:
    """The JSON object whose members are ``members``, skipping empty ones."""
    return "{" + ", ".join(member for member in members if member) + "}"


def splice(payload: Payload, key: str, text: str) -> str:
    """The sorted-key JSON of ``payload`` plus ``key``, whose value is the JSON ``text``.

    ``text`` (itself sorted-key JSON) goes in as is, so a value already
    encoded for another line is not encoded again:
    ``splice(p, k, encode_json(v)) + "\\n"`` equals ``encode_line({**p, k: v})``.
    """
    before, after = encode_members(payload, key)
    return join_members(before, f"{encode_json(key)}: {text}", after)


def read_header(path: str, on_line: Optional[Callable[[Any], None]] = None) -> Optional[Payload]:
    """The header on disk: the first intact line, when it is one.

    ``on_line``, when given, sees every other intact line in the same pass.
    """
    header: Optional[Payload] = None
    if not os.path.exists(path):
        return header
    for index, payload in enumerate(iter_jsonl(path)):
        if index == 0 and isinstance(payload, dict) and payload.get("kind") == "header":
            header = payload
        elif on_line is not None:
            on_line(payload)
        if on_line is None:
            break
    return header


def _try_lock(fh: IO[bytes], exclusive: bool) -> bool:
    """Take a non-blocking ``flock``; False when another handle holds it."""
    if _fcntl is None:
        return True
    mode = _fcntl.LOCK_EX if exclusive else _fcntl.LOCK_SH
    try:
        _fcntl.flock(fh.fileno(), mode | _fcntl.LOCK_NB)
    except OSError:
        return False
    return True


def held_elsewhere(path: str) -> bool:
    """True when another open handle holds the append lock of ``path``."""
    with open(path, "rb") as fh:
        return not _try_lock(fh, exclusive=False)


class AppendOnlyJsonl:
    """One append-only JSONL file, locked from :meth:`open` to :meth:`close`.

    ``what`` names the file in errors ("checkpoint", "event log").
    """

    def __init__(self, path: str, what: str) -> None:
        self.path = os.fspath(path)
        self.what = what
        self._fh: Optional[IO[bytes]] = None

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def open(
        self,
        header: Payload,
        refuse: Callable[[Payload], Exception],
        on_line: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Open for append, writing ``header`` when the file has none.

        ``refuse(existing)`` is raised, before the file is touched, when the
        existing header's fingerprint differs from ``header``'s; ``on_line``
        is passed to :func:`read_header`.
        """
        if self._fh is not None:
            return
        existing = read_header(self.path, on_line)
        if existing is not None and existing.get("fingerprint") != header.get("fingerprint"):
            raise refuse(existing)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fh = open(self.path, "a+b")
        if not _try_lock(fh, exclusive=True):
            fh.close()
            raise RuntimeError(
                f"{self.what} {self.path!r} is already open for append by "
                "another campaign"
            )
        self._fh = fh
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
                fh.flush()
        if existing is None:
            self.write(header)

    def write(self, payload: Payload) -> None:
        """Append ``payload`` as one line, flushed."""
        self.write_line(encode_line(payload))

    def write_line(self, line: str) -> None:
        """Append one line already encoded as :func:`encode_line` would, flushed."""
        if self._fh is None:
            raise RuntimeError(f"{self.what} {self.path!r} is not open")
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()

    def close(self) -> None:
        """Close the handle, releasing the lock."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
