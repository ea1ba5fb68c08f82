"""Gate semantics: bands, exemptions, fallbacks and exit codes, and the
``python -m repro.bench gate`` CLI."""

import json

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
    load_references,
    resolve_references,
)


def host(node="box", machine="x86_64", cpus=8):
    return HostFingerprint(
        node=node, system="Linux", machine=machine, python="3.11.0", cpus=cpus
    )


def result(metrics, *, suite="sim", smoke=False, contended=None, **host_kwargs):
    return BenchResult(
        suite=suite,
        host=host(**host_kwargs),
        metrics=metrics,
        smoke=smoke,
        contended=contended,
    )


REFS = {
    "box:x86_64": {
        "sim.widget.speedup": (4.0, -0.5, None, "x"),
        "sim.widget.ratio": (1.0, -0.1, 0.1, "ratio"),
    },
    "*": {
        "sim.widget.speedup": (2.0, -0.5, None, "x"),
        "sim.widget.count": (10.0, 0.0, 0.0, "n"),
    },
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

    def test_resolution_host_wins_wildcard_fills(self):
        resolved = resolve_references("box:x86_64", REFS)
        assert resolved["sim.widget.speedup"][0] == 4.0  # host entry wins
        assert resolved["sim.widget.count"][0] == 10.0  # wildcard fills the gap
        assert "sim.widget.ratio" in resolved

    def test_unknown_host_falls_back_to_wildcard(self):
        resolved = resolve_references("elsewhere:arm64", REFS)
        assert resolved["sim.widget.speedup"][0] == 2.0
        assert set(resolved) == set(REFS["*"])

    def test_malformed_band_rejected(self):
        with pytest.raises(ValueError):
            resolve_references("h", {"h": {"m": (1.0, 0.0)}})
        with pytest.raises(ValueError):
            resolve_references("h", {"h": {"m": ("ref", 0.0, 0.0, "x")}})


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

    def test_missing_host_reference_falls_back_to_wildcard(self):
        # 1.2 fails the host band [2, -] but passes the wildcard band [1, -]:
        # an unknown host must gate against the wildcard, not the host entry.
        res = result(
            {"widget.speedup": 1.2, "widget.count": 10},
            node="elsewhere", machine="arm64",
        )
        report = check_result(res, REFS)
        assert report.reference_host == "*"
        assert report.passed()

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
        refs = {
            "*": {exempt: (2.0, -0.1, None, "x"), f"{suite}.other": (2.0, -0.1, None, "x")}
        }
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
        refs = {"*": {exempt: (2.0, -0.1, None, "x")}}
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


class TestReferenceFiles:
    def test_load_references_roundtrip(self, tmp_path):
        path = tmp_path / "refs.json"
        path.write_text(
            '{"box:x86_64": {"sim.widget.speedup": [4.0, -0.5, null, "x"]}}'
        )
        table = load_references(str(path))
        assert table["box:x86_64"]["sim.widget.speedup"] == (4.0, -0.5, None, "x")

    def test_load_references_rejects_junk(self, tmp_path):
        path = tmp_path / "refs.json"
        path.write_text('{"box": {"m": [1.0]}}')
        with pytest.raises(ValueError):
            load_references(str(path))


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

    def test_smoke_file_never_gates(self, tmp_path, capsys):
        smoke = write_envelope(tmp_path / "sim.json", sim_result(speedup=0.01, smoke=True))
        assert main(["gate", smoke]) == 0
        assert "smoke" in capsys.readouterr().out

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

    def test_unrecognized_filename_errors(self, tmp_path):
        path = tmp_path / "whatever.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["gate", str(path)])
