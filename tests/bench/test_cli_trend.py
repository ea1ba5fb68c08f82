"""The ``python -m repro.bench`` CLI and the trend/worker-mining reports."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.history import PerfHistory
from repro.bench.host import HostFingerprint
from repro.bench.model import BenchResult, load_result
from repro.bench.trend import (
    format_metric_trend,
    format_trend_report,
    format_worker_report,
    mine_worker_throughput,
)


def sim_result(speedup=5.0, **flags):
    """A claims envelope shaped like ``python -m repro.bench run sim`` output."""
    return BenchResult(
        suite="sim",
        host=HostFingerprint(
            node="box", system="Linux", machine="x86_64", python="3.11.7", cpus=2
        ),
        metrics={
            "smache_cycles_per_sec.speedup": speedup,
            "smache_cycles_per_sec.cycles": 49028,
        },
        **flags,
    )


def write_envelope(path, result):
    path.write_text(json.dumps(result.to_payload()))
    return str(path)


class TestGateCommand:
    def test_perfbench_results_pass(self, perfbench_result, tmp_path, capsys):
        files = [perfbench_result(), write_envelope(tmp_path / "sim.json", sim_result())]
        assert main(["gate", *files]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS (2 suite report(s))" in out
        assert "campaign_cold.compile.calls" in out

    def test_doctored_counter_fails(self, perfbench_result, capsys):
        from tests.bench.conftest import COLD_METRICS

        doctored = dict(COLD_METRICS, **{"compile.calls": 97.0})
        assert main(["gate", perfbench_result(metrics=doctored)]) == 1
        out = capsys.readouterr().out
        assert "campaign_cold.compile.calls" in out and "gate: FAIL" in out

    def test_incorrect_perfbench_result_fails(self, perfbench_result, capsys):
        assert main(["gate", perfbench_result(correct=False)]) == 1
        assert "incorrect" in capsys.readouterr().out
        assert main(["gate", perfbench_result(failed=1)]) == 1

    def test_end_to_end_timings_stay_unreferenced(self, perfbench_result, capsys):
        from repro.bench.gate import check_result

        report = check_result(load_result(perfbench_result()))
        statuses = {c.metric: c.status for c in report.checks}
        assert statuses["campaign_cold.throughput_per_s"] == "unreferenced"
        assert statuses["campaign_cold.compile.s"] == "unreferenced"
        assert statuses["campaign_cold.compile.calls"] == "ok"

    def test_gate_needs_an_input(self):
        with pytest.raises(SystemExit):
            main(["gate"])

    def test_synthetic_regression_fails(self, tmp_path, capsys):
        regressed = write_envelope(tmp_path / "sim.json", sim_result(speedup=0.01))
        assert main(["gate", regressed]) == 1
        out = capsys.readouterr().out
        assert "low" in out and "gate: FAIL" in out

    def test_history_gate_uses_latest_record(self, tmp_path, capsys):
        hist = str(tmp_path / "hist.jsonl")
        history = PerfHistory(hist)
        history.append(sim_result(), recorded_ts=1.0)
        history.append(sim_result(speedup=0.01), recorded_ts=2.0)
        assert main(["gate", "--history", hist]) == 1
        # a newer in-band record heals the gate
        history.append(sim_result(), recorded_ts=3.0)
        assert main(["gate", "--history", hist]) == 0
        # ...and an incorrect one fails it again, through the history
        history.append(sim_result(correct=False, failed=1), recorded_ts=4.0)
        assert main(["gate", "--history", hist]) == 1

    def test_smoke_history_never_gates(self, tmp_path, capsys):
        hist = str(tmp_path / "hist.jsonl")
        PerfHistory(hist).append(sim_result(speedup=0.01, smoke=True))
        assert main(["gate", "--history", hist]) == 0
        assert "smoke" in capsys.readouterr().out

    def test_empty_history_fails(self, tmp_path, capsys):
        assert main(["gate", "--history", str(tmp_path / "none.jsonl")]) == 1

    def test_custom_references_file(self, tmp_path, capsys):
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps(
            {"*": {"sim.smache_cycles_per_sec.speedup": [1e6, -0.1, None, "x"]}}
        ))
        envelope = write_envelope(tmp_path / "sim.json", sim_result())
        assert main(["gate", envelope, "--references", str(refs)]) == 1

    def test_strict_flags_missing_metrics(self, tmp_path, capsys):
        res = sim_result()
        del res.metrics["smache_cycles_per_sec.speedup"]
        path = write_envelope(tmp_path / "sim.json", res)
        assert main(["gate", path]) == 0
        assert main(["gate", path, "--strict"]) == 1


class TestRecordCommand:
    def test_record_then_trend(self, perfbench_result, tmp_path, capsys):
        hist = str(tmp_path / "hist.jsonl")
        files = [perfbench_result(), write_envelope(tmp_path / "sim.json", sim_result())]
        assert main(["record", *files, "--history", hist]) == 0
        out = capsys.readouterr().out
        assert out.count("recorded") == 2
        assert main(["trend", "--history", hist, "--metric", "speedup"]) == 0
        out = capsys.readouterr().out
        assert "sim.smache_cycles_per_sec.speedup" in out
        assert main(["trend", "--history", hist, "--metric", "sweep.events"]) == 0
        assert "campaign_cold.sweep.events" in capsys.readouterr().out

    def test_unrecognized_filename_errors(self, tmp_path):
        path = tmp_path / "whatever.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["record", str(path), "--history", str(tmp_path / "h.jsonl")])


class TestTrendReport:
    def test_deltas_between_records(self, tmp_path):
        hist = PerfHistory(str(tmp_path / "hist.jsonl"))
        hist.append(sim_result(speedup=4.0), recorded_ts=1.0)
        hist.append(sim_result(speedup=6.0), recorded_ts=2.0)
        text = format_metric_trend(
            hist.records(), "sim.smache_cycles_per_sec.speedup"
        )
        assert "+50.0%" in text

    def test_empty_history_message(self):
        assert format_trend_report([]) == "perf history is empty"

    def test_cli_requires_an_input(self):
        with pytest.raises(SystemExit):
            main(["trend"])


class TestWorkerMining:
    @pytest.fixture
    def event_log(self, tmp_path):
        """A real (tiny) campaign persisted with worker attribution."""
        from repro.api import Workbench
        from repro.sweep.spec import smoke_spec

        path = str(tmp_path / "campaign.events.jsonl")
        Workbench(jobs=2).run(smoke_spec(iterations=1), event_log=path)
        return path

    def test_mined_points_cover_the_campaign(self, event_log):
        workers = mine_worker_throughput(event_log)
        assert workers, "a pool campaign must attribute work to workers"
        total = sum(w.points for w in workers.values())
        assert total == 18  # smoke_spec: 3 grids x 3 reaches x 2 modes
        for stats in workers.values():
            if stats.points and stats.span_seconds:
                assert stats.points_per_second > 0

    def test_worker_report_renders(self, event_log, capsys):
        text = format_worker_report(event_log)
        assert "worker" in text and "point(s) across" in text
        assert main(["trend", "--events", event_log]) == 0
        assert "worker" in capsys.readouterr().out

    def test_missing_worker_stamps_degrade_gracefully(self, tmp_path):
        path = tmp_path / "empty.events.jsonl"
        path.write_text('{"kind": "header", "log": "events", "format": 1}\n')
        assert mine_worker_throughput(str(path)) == {}
        assert "no worker-stamped events" in format_worker_report(str(path))
