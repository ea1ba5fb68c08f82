"""The shared append-only JSONL layer and the two files written through it.

The campaign checkpoint and the event log share one set of file rules
(:mod:`repro.utils.jsonl`).  These tests pin the on-disk format those files
had before the rules were shared, and check each rule once on the layer
itself.
"""

import builtins

import pytest

import repro.utils.jsonl as jsonl
from repro.sweep.campaign import execute_campaign
from repro.sweep.checkpoint import CheckpointMismatch
from repro.sweep.eventlog import EventLogMismatch, EventLogObserver
from repro.sweep.spec import smoke_spec
from repro.utils.jsonl import AppendOnlyJsonl, held_elsewhere, iter_jsonl, read_header

#: The smoke campaign's fingerprint (name plus every point key).
SMOKE_FINGERPRINT = "82324f87982cb84c"


def kinds(path):
    return [payload["kind"] for payload in iter_jsonl(path)]


class TestFormatPin:
    """Exact header bytes and line kinds of both files."""

    def test_serial_smoke_checkpoint_and_event_log(self, tmp_path):
        checkpoint = tmp_path / "smoke.jsonl"
        log = tmp_path / "smoke.events.jsonl"
        execute_campaign(smoke_spec(), checkpoint=str(checkpoint), event_log=str(log))
        assert checkpoint.read_bytes().split(b"\n")[0] == (
            b'{"fingerprint": "82324f87982cb84c", "format": 1, "kind": "header", '
            b'"name": "smoke", "strategy": "grid", "total_points": 18}'
        )
        assert log.read_bytes().split(b"\n")[0] == (
            b'{"fingerprint": "82324f87982cb84c", "format": 1, "jobs": 1, '
            b'"kind": "header", "log": "events", "name": "smoke", '
            b'"strategy": "grid", "total_points": 18}'
        )
        assert kinds(checkpoint) == ["header"] + ["record"] * 18 + ["finished"]
        assert kinds(log) == (
            ["header", "campaign_started"]
            + ["point_started"] * 18
            + ["point_completed"] * 18
            + ["campaign_finished"]
        )
        assert checkpoint.read_bytes().endswith(b"}\n")
        assert log.read_bytes().endswith(b"}\n")


def _checkpointed(path, spec):
    execute_campaign(spec, checkpoint=path)


def _logged(path, spec):
    execute_campaign(spec, event_log=path)


@pytest.mark.parametrize(
    "write, refusal, header",
    [
        (_checkpointed, CheckpointMismatch, {"kind": "header", "name": "smoke"}),
        (_logged, EventLogMismatch, {"kind": "header", "log": "events", "name": "smoke"}),
    ],
    ids=["checkpoint", "event-log"],
)
def test_a_torn_header_gets_a_header_back(tmp_path, write, refusal, header):
    """A file whose header line was torn gets a header on the next open, so
    a different campaign is refused afterwards instead of mixing in."""
    path = str(tmp_path / "torn.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"fingerprint": "abc", "format": 1, "kind": "hea')  # no newline
    write(path, smoke_spec())
    found = read_header(path)
    assert found is not None and header.items() <= found.items()
    assert found["fingerprint"] == SMOKE_FINGERPRINT
    with pytest.raises(refusal):
        write(path, smoke_spec(name="renamed"))
    write(path, smoke_spec())
    assert kinds(path).count("header") == 1


def refuse(found):
    return KeyError(found["fingerprint"])


class TestAppendOnlyJsonl:
    HEADER = {"kind": "header", "fingerprint": "f1"}

    def test_header_is_written_once_and_lines_are_sorted(self, tmp_path):
        path = str(tmp_path / "sub" / "f.jsonl")  # the directory is created
        for value in (1, 2):
            store = AppendOnlyJsonl(path, "test file")
            store.open(self.HEADER, refuse)
            store.write({"z": value, "a": 0})
            store.close()
        with open(path, "rb") as fh:
            assert fh.read() == (
                b'{"fingerprint": "f1", "kind": "header"}\n'
                b'{"a": 0, "z": 1}\n{"a": 0, "z": 2}\n'
            )

    def test_a_different_fingerprint_is_refused_before_the_file_is_touched(self, tmp_path):
        path = tmp_path / "f.jsonl"
        store = AppendOnlyJsonl(str(path), "test file")
        store.open(self.HEADER, refuse)
        store.close()
        before = path.read_bytes()
        with pytest.raises(KeyError, match="f1"):
            AppendOnlyJsonl(str(path), "test file").open({"kind": "header", "fingerprint": "f2"}, refuse)
        assert path.read_bytes() == before

    def test_a_torn_tail_is_ended_before_the_next_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"fingerprint": "f1", "kind": "header"}\n{"a": ')
        store = AppendOnlyJsonl(str(path), "test file")
        store.open(self.HEADER, refuse)
        store.write({"a": 1})
        store.close()
        assert path.read_bytes().endswith(b'{"a": \n{"a": 1}\n')
        dropped = []
        assert list(iter_jsonl(str(path), on_corrupt=dropped.append))[1:] == [{"a": 1}]
        assert dropped == ['{"a":']

    def test_on_line_sees_every_line_after_the_header_in_one_pass(self, tmp_path, monkeypatch):
        path = str(tmp_path / "f.jsonl")
        store = AppendOnlyJsonl(path, "test file")
        store.open(self.HEADER, refuse)
        for seq in (1, 2, 3):
            store.write({"seq": seq})
        store.close()
        passes = []
        real = jsonl.iter_jsonl
        monkeypatch.setattr(jsonl, "iter_jsonl", lambda p, **kw: passes.append(p) or real(p, **kw))
        seen = []
        store.open(self.HEADER, refuse, on_line=seen.append)
        store.close()
        assert seen == [{"seq": 1}, {"seq": 2}, {"seq": 3}]
        assert passes == [path]

    def test_the_lock_is_held_while_open(self, tmp_path):
        pytest.importorskip("fcntl")
        path = str(tmp_path / "f.jsonl")
        first = AppendOnlyJsonl(path, "test file")
        first.open(self.HEADER, refuse)
        try:
            assert held_elsewhere(path)
            with pytest.raises(RuntimeError, match="test file .* already open for append by another campaign"):
                AppendOnlyJsonl(path, "test file").open(self.HEADER, refuse)
        finally:
            first.close()
        assert not held_elsewhere(path)

    def test_writing_a_closed_file_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not open"):
            AppendOnlyJsonl(str(tmp_path / "f.jsonl"), "test file").write({})


def test_event_log_open_reads_an_existing_log_once(tmp_path, monkeypatch):
    """Header check and last ``seq`` come from one pass over the file."""
    path = str(tmp_path / "smoke.events.jsonl")
    spec = smoke_spec()
    execute_campaign(spec, event_log=path)
    last = [p["seq"] for p in iter_jsonl(path) if "seq" in p][-1]
    modes = []
    real = builtins.open
    monkeypatch.setattr(
        builtins, "open", lambda file, mode="r", *a, **k: modes.append(mode) or real(file, mode, *a, **k)
    )
    log = EventLogObserver(path)
    log.open(name=spec.name, fingerprint=spec.fingerprint())
    log.close()
    assert modes == ["r", "a+b"]  # one read pass, then the append handle
    assert log.seq == last
