"""Result model: the perfbench reader and the host fingerprint."""

import os
import subprocess
import sys

import pytest

from repro.bench.host import (
    HostFingerprint,
    contention,
    cpu_count,
    current_host,
)
from repro.bench.model import (
    BenchFormatError,
    BenchResult,
    load_result,
)
from tests.bench.conftest import perfbench_text


class TestCompatReader:
    def test_perfbench_result(self):
        res = BenchResult.from_perfbench(
            perfbench_text(metrics={"compile.calls": 96.0, "label": "x", "flag": True})
        )
        assert res.suite == "campaign_cold"  # the workload name
        assert res.host.key == "box:x86_64"
        assert res.host.cpus == 2 and res.host.python == "3.11.7"
        assert res.metrics == {"compile.calls": 96.0}  # non-numeric values dropped
        assert res.correct is True and res.failed == 0
        assert res.smoke is False

    def test_incorrect_perfbench_result(self):
        assert BenchResult.from_perfbench(perfbench_text(correct=False)).correct is False
        assert BenchResult.from_perfbench(perfbench_text(failed=3)).failed == 3

    def test_truncated_perfbench_output_rejected(self):
        text = perfbench_text()
        with pytest.raises(BenchFormatError):
            BenchResult.from_perfbench(text.rsplit("\n", 2)[0])  # no result line
        with pytest.raises(BenchFormatError):
            BenchResult.from_perfbench(text.split("\n", 1)[1])  # no host line
        with pytest.raises(BenchFormatError):
            BenchResult.from_perfbench("")

    def test_junk_rejected(self, tmp_path):
        # A JSON object is not what perfbench prints, whatever it holds.
        junk = tmp_path / "result.json"
        junk.write_text('{"suite": "sim", "metrics": {"widget.speedup": 5.0}}')
        with pytest.raises(BenchFormatError):
            load_result(str(junk))

    def test_load_result_infers_suite_from_workload(self, perfbench_result):
        assert load_result(perfbench_result(workload="sim_fig2")).suite == "sim_fig2"
        assert load_result(perfbench_result()).suite == "campaign_cold"


class TestHost:
    def test_fingerprint_key(self):
        fp = HostFingerprint(node="vm", machine="x86_64", python="3.11", cpus=2)
        assert fp.key == "vm:x86_64"

    def test_current_host_is_self_consistent(self):
        fp = current_host()
        assert fp.key == f"{fp.node}:{fp.machine}"
        assert fp.cpus == cpu_count()

    def test_contention_needs_enough_cores(self):
        cpus = cpu_count()
        assert contention(jobs=(cpus or 0) + 1) is True

    def test_host_import_loads_no_simulator_or_server(self):
        # perfbench stamps its results through repro.bench.host while it
        # measures set-up time and memory: the import must stay light.
        code = (
            "import sys, repro.bench.host\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.serve', 'repro.arch'))))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"
