"""Gate semantics: bands, exemptions and exit codes, and the
``python -m repro.bench gate`` CLI."""

import pytest

from repro.bench.__main__ import main
from repro.bench.gate import check_result, gate_results
from repro.bench.host import HostFingerprint
from repro.bench.model import BenchResult, load_result
from repro.bench.references import (
    CONTENDED_EXEMPT,
    band_bounds,
    format_band,
    in_band,
)
from tests.bench.conftest import COLD_METRICS


def host(node="box", machine="x86_64", cpus=8):
    return HostFingerprint(node=node, machine=machine, python="3.11.0", cpus=cpus)


def result(metrics, *, suite="sim", smoke=False, contended=None, **host_kwargs):
    return BenchResult(
        suite=suite,
        host=host(**host_kwargs),
        metrics=metrics,
        smoke=smoke,
        contended=contended,
    )


REFS = {
    "sim.widget.speedup": (4.0, -0.5, None, "x"),
    "sim.widget.ratio": (1.0, -0.1, 0.1, "ratio"),
    "sim.widget.count": (10.0, 0.0, 0.0, "n"),
}


class TestBands:
    def test_band_bounds_and_membership(self):
        band = (4.0, -0.5, 0.25, "x")
        assert band_bounds(band) == (2.0, 5.0)
        assert in_band(2.0, band) and in_band(5.0, band)
        assert not in_band(1.99, band)
        assert not in_band(5.01, band)

    def test_unbounded_sides(self):
        assert in_band(1e9, (4.0, -0.5, None, "x"))
        assert in_band(-1e9, (4.0, None, 0.25, "x"))

    def test_format_band(self):
        assert format_band((4.0, -0.5, None, "x")) == "[2, -] x"
        assert format_band((1183249.0, 0, 0, "count")) == "[1183249, 1183249] count"


class TestGate:
    def test_in_band_passes_exit_0(self):
        res = result({"widget.speedup": 4.1, "widget.ratio": 1.0, "widget.count": 10})
        reports, code = gate_results([res], REFS)
        assert code == 0
        assert reports[0].passed()
        statuses = {c.metric: c.status for c in reports[0].checks}
        assert statuses["sim.widget.speedup"] == "ok"

    def test_out_of_band_fails_exit_1(self):
        res = result({"widget.speedup": 1.2, "widget.ratio": 1.0, "widget.count": 10})
        reports, code = gate_results([res], REFS)
        assert code == 1
        (failure,) = reports[0].failures()
        assert failure.metric == "sim.widget.speedup"
        assert failure.status == "low"

    def test_high_side_fails_too(self):
        res = result({"widget.ratio": 1.5, "widget.speedup": 4.0, "widget.count": 10})
        _, code = gate_results([res], REFS)
        assert code == 1

    def test_smoke_results_never_gate(self):
        res = result({"widget.speedup": 0.01, "widget.count": 3}, smoke=True)
        reports, code = gate_results([res], REFS)
        assert code == 0
        assert all(
            c.status == "smoke" for c in reports[0].checks if c.band is not None
        )

    def test_contended_exemption_only_for_listed_metrics(self):
        exempt = next(iter(CONTENDED_EXEMPT))
        suite, rest = exempt.split(".", 1)
        refs = {exempt: (2.0, -0.1, None, "x"), f"{suite}.other": (2.0, -0.1, None, "x")}
        res = result(
            {rest: 0.5, "other": 0.5}, suite=suite, contended=True, cpus=1
        )
        report = check_result(res, refs)
        statuses = {c.metric: c.status for c in report.checks}
        assert statuses[exempt] == "contended"
        assert statuses[f"{suite}.other"] == "low"  # exemption is per-metric
        assert not report.passed()

    def test_uncontended_host_gates_exempt_metrics(self):
        exempt = next(iter(CONTENDED_EXEMPT))
        suite, rest = exempt.split(".", 1)
        refs = {exempt: (2.0, -0.1, None, "x")}
        res = result({rest: 0.5}, suite=suite, contended=False)
        assert not check_result(res, refs).passed()

    def test_missing_metric_gates_only_under_strict(self):
        res = result({"widget.speedup": 4.0, "widget.ratio": 1.0})  # no count
        report = check_result(res, REFS)
        assert report.passed()
        assert not report.passed(strict=True)
        assert any(c.status == "missing" for c in report.checks)

    def test_unreferenced_metrics_are_reported_not_gated(self):
        res = result(
            {"widget.speedup": 4.0, "widget.ratio": 1.0, "widget.count": 10,
             "widget.seconds": 123.0}
        )
        report = check_result(res, REFS)
        assert report.passed()
        statuses = {c.metric: c.status for c in report.checks}
        assert statuses["sim.widget.seconds"] == "unreferenced"

    def test_incorrect_result_fails_whatever_its_metrics(self):
        good = {"widget.speedup": 4.1, "widget.ratio": 1.0, "widget.count": 10}
        for flags in ({"correct": False}, {"failed": 2}, {"smoke": True, "failed": 1}):
            res = BenchResult(suite="sim", host=host(), metrics=good, **flags)
            reports, code = gate_results([res], REFS)
            assert code == 1
            (failure,) = reports[0].failures()
            assert (failure.metric, failure.status) == ("sim.correct", "incorrect")
            assert failure.value == flags.get("failed", 0)

    def test_report_format_mentions_verdict_counts(self):
        res = result({"widget.speedup": 1.2, "widget.ratio": 1.0, "widget.count": 10})
        text = check_result(res, REFS).format()
        assert "sim @ box:x86_64" in text
        assert "low" in text


#: The five exact scheduler counters of a traced ``sim_fig2`` run.
FIG2_METRICS = {
    "sim.cycles": 75924.0,
    "sim.ticks_executed": 2298.0,
    "sim.cycles_skipped": 3.0,
    "sim.skip_regions": 3.0,
    "sim.component_ticks": 6901.0,
}


class TestGateCommand:
    def test_perfbench_results_pass(self, perfbench_result, capsys):
        files = [perfbench_result(), perfbench_result("sim_fig2", FIG2_METRICS)]
        assert main(["gate", *files]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS (2 suite report(s))" in out
        assert "campaign_cold.compile.calls" in out

    def test_doctored_counter_fails(self, perfbench_result, capsys):
        doctored = dict(COLD_METRICS, **{"compile.calls": 97.0})
        assert main(["gate", perfbench_result(metrics=doctored)]) == 1
        out = capsys.readouterr().out
        assert "campaign_cold.compile.calls" in out and "gate: FAIL" in out

    def test_incorrect_perfbench_result_fails(self, perfbench_result, capsys):
        assert main(["gate", perfbench_result(correct=False)]) == 1
        assert "incorrect" in capsys.readouterr().out
        assert main(["gate", perfbench_result(failed=1)]) == 1

    def test_end_to_end_timings_stay_unreferenced(self, perfbench_result, capsys):
        report = check_result(load_result(perfbench_result()))
        statuses = {c.metric: c.status for c in report.checks}
        assert statuses["campaign_cold.throughput_per_s"] == "unreferenced"
        assert statuses["campaign_cold.compile.s"] == "unreferenced"
        assert statuses["campaign_cold.compile.calls"] == "ok"

    def test_gate_needs_an_input(self):
        with pytest.raises(SystemExit):
            main(["gate"])

    def test_synthetic_regression_fails(self, perfbench_result, capsys):
        # Every cycle ticked again: fast-forward lost.
        regressed = dict(FIG2_METRICS, **{"sim.ticks_executed": 75824.0})
        assert main(["gate", perfbench_result("sim_fig2", regressed)]) == 1
        out = capsys.readouterr().out
        assert "high" in out and "gate: FAIL" in out

    def test_strict_flags_missing_metrics(self, perfbench_result):
        dropped = {k: v for k, v in COLD_METRICS.items() if k != "compile.calls"}
        path = perfbench_result(metrics=dropped)
        assert main(["gate", path]) == 0
        assert main(["gate", path, "--strict"]) == 1

    def test_unrecognized_filename_errors(self, tmp_path):
        path = tmp_path / "whatever.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["gate", str(path)])
