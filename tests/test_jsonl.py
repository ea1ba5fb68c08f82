"""The shared append-only JSONL layer and the two files written through it.

The campaign checkpoint and the event log share one set of file rules
(:mod:`repro.utils.jsonl`).  These tests pin the on-disk format those files
had before the rules were shared, and check each rule once on the layer
itself.
"""

import builtins
import json

import pytest

import repro.utils.jsonl as jsonl
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, inject_faults
from repro.sweep.campaign import execute_campaign
from repro.sweep.checkpoint import CampaignCheckpoint, CheckpointMismatch
from repro.sweep.eventlog import EventLogMismatch, EventLogObserver
from repro.sweep.record import PointRecord
from repro.sweep.spec import smoke_spec
from repro.utils.jsonl import (
    AppendOnlyJsonl,
    encode_line,
    encode_members,
    held_elsewhere,
    iter_jsonl,
    join_members,
    read_header,
    splice,
)

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


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


class TestOneEncodingPerRecord:
    """Each published record is encoded once, and both files keep their bytes."""

    def test_lines_are_canonical_and_the_event_log_embeds_the_checkpoint_record(
        self, tmp_path, monkeypatch
    ):
        spec = smoke_spec(iterations=1)
        label = sorted(p.display_label for p in spec.expand())[0]
        checkpoint, log = str(tmp_path / "c.jsonl"), str(tmp_path / "c.events.jsonl")
        encoded = []
        real = PointRecord.to_json_dict
        monkeypatch.setattr(
            PointRecord, "to_json_dict", lambda record: encoded.append(record) or real(record)
        )
        plan = FaultPlan(faults=(FaultSpec(action="fail", label=label),))
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001, jitter=0.0)
        with inject_faults(plan):
            result = execute_campaign(spec, checkpoint=checkpoint, event_log=log,
                                      retry_policy=policy)
        assert result.failed == 1
        # One encoding per published record, shared by its two lines.
        assert len(encoded) == len({id(record) for record in encoded}) == spec.size
        # A resume appends point_resumed lines to the log through the same path.
        execute_campaign(spec, checkpoint=checkpoint, event_log=log, retry_policy=policy)
        for path in (checkpoint, log):
            for line in _lines(path):
                assert line == encode_line(json.loads(line))
        records = [json.loads(line) for line in _lines(checkpoint)]
        records = [payload for payload in records if payload.pop("kind") == "record"]
        events = [json.loads(line) for line in _lines(log)]
        logged = [e["data"]["record"] for e in events
                  if e["kind"] in ("point_completed", "point_failed")]
        assert logged == records and len(records) == spec.size
        assert sum(record["meta"].get("status") == "failed" for record in records) == 1
        # The resume announces every persisted record, the failed one too.
        resumed = [e["data"]["record"] for e in events if e["kind"] == "point_resumed"]
        assert sorted(resumed, key=lambda r: r["key"]) == sorted(records, key=lambda r: r["key"])

    def test_append_without_an_event_writes_the_same_line(self, tmp_path):
        record = PointRecord(key="k", label="x\u00e9", backend="analytic", system="smache",
                             cycles=7, fmax_mhz=0.1 + 0.2, extra={"b": 1.0, "a": -2},
                             meta={"worker": 3})
        store = CampaignCheckpoint(str(tmp_path / "c.jsonl"))
        store.open_for_append(smoke_spec(), fingerprint="f", total_points=1)
        store.append(record)
        store.close()
        assert _lines(store.path)[-1] == encode_line({**record.to_json_dict(), "kind": "record"})


class TestMembers:
    """The helpers that build a line from parts already encoded."""

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"a": 1, "ind": [2, {"z": 1, "b": None}]},  # every key sorts before "kind"
            {"meta": {"y": 1.5, "x": "\u00e9"}, "z": True, "kinds": 0},  # every key after
            {"key": "k", "cycles": 3, "label": "l", "extra": {}},
        ],
        ids=["empty", "all-before", "all-after", "both-sides"],
    )
    def test_halves_rebuild_the_line_with_and_without_the_pivot(self, payload):
        before, after = encode_members(payload, "kind")
        assert join_members(before, after) == json.dumps(payload, sort_keys=True)
        assert join_members(before, '"kind": "record"', after) + "\n" == encode_line(
            {**payload, "kind": "record"}
        )
        text = json.dumps({"record": payload}, sort_keys=True)
        assert splice(payload, "kind", text) + "\n" == encode_line(
            {**payload, "kind": {"record": payload}}
        )

    def test_a_payload_holding_the_pivot_is_refused(self):
        with pytest.raises(ValueError, match="pivot key 'kind'"):
            encode_members({"kind": "record"}, "kind")


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
