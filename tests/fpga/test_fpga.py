"""Tests for repro.fpga: resources, devices and the synthesis model."""

import pytest

from repro.core.partition import StreamBufferMode
from repro.eval.paper_constants import PAPER_RESOURCES, PAPER_TABLE1
from repro.fpga.device import FPGADevice, small_device, stratix_v
from repro.fpga.resources import ResourceUsage
from repro.fpga.synthesis import (
    TimingModel,
    _clog2,
    _next_pow2,
    synthesize_baseline,
    synthesize_smache,
)
from repro.pipeline import StencilProblem, compile


def smache_report(problem):
    """The Smache synthesis report of ``problem``'s compiled plan."""
    return synthesize_smache(problem, compile(problem).plan)


class TestResourceUsage:
    def test_addition(self):
        a = ResourceUsage(alms=10, registers=20, bram_bits=30)
        b = ResourceUsage(alms=1, registers=2, bram_bits=3, dsps=4)
        c = a + b
        assert (c.alms, c.registers, c.bram_bits, c.dsps) == (11, 22, 33, 4)

    def test_scaled_and_rounded(self):
        u = ResourceUsage(alms=3.2, registers=5.5)
        assert u.scaled(2).alms == 6.4
        assert u.rounded().alms == 4
        with pytest.raises(ValueError):
            u.scaled(-1)

    def test_exceeds(self):
        small = ResourceUsage(alms=10, registers=10, bram_bits=10)
        big = ResourceUsage(alms=20, registers=20, bram_bits=20)
        assert not small.exceeds(big)
        assert big.exceeds(small)

    def test_total_and_dict_roundtrip(self):
        parts = [ResourceUsage(alms=1), ResourceUsage(registers=2), ResourceUsage(bram_bits=3)]
        total = ResourceUsage.total(parts)
        assert ResourceUsage.from_dict(total.as_dict()) == total

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceUsage(alms=-1)


class TestDevices:
    def test_stratix_v_capacity(self):
        dev = stratix_v()
        assert dev.bram_bits == 2560 * 20480
        assert dev.fits(ResourceUsage(alms=1000, registers=1000, bram_bits=1000))

    def test_small_device_is_smaller(self):
        assert small_device().alms < stratix_v().alms

    def test_fits_and_utilisation(self):
        dev = FPGADevice(name="d", alms=100, registers=400, m20k_blocks=1)
        assert not dev.fits(ResourceUsage(alms=101))
        util = dev.utilisation(ResourceUsage(alms=50, registers=100, bram_bits=2048))
        assert util["alms"] == 0.5
        assert util["registers"] == 0.25
        assert util["bram_bits"] == pytest.approx(0.1)

    def test_invalid_device_rejected(self):
        with pytest.raises(ValueError):
            FPGADevice(name="d", alms=0, registers=1, m20k_blocks=1)


class TestTimingModel:
    def test_more_levels_is_slower(self):
        t = TimingModel()
        assert t.fmax_mhz(3) > t.fmax_mhz(9)

    def test_ceiling_applies(self):
        t = TimingModel()
        assert t.fmax_mhz(0) == t.fmax_ceiling_mhz

    def test_path_ns_linear_in_levels(self):
        t = TimingModel()
        assert t.path_ns(5) == pytest.approx(t.t_reg_ns + 5 * t.t_level_ns)

    def test_helpers(self):
        assert _clog2(2) == 1
        assert _clog2(121) == 7
        for n in range(-3, 4100):
            assert _clog2(n) == max(1, next(bits for bits in range(64) if 2**bits >= n))
        # Exact past float precision, where ceil(log2(n)) rounds to 60.
        assert _clog2(2**60 + 1) == 61
        assert _next_pow2(14) == 16
        assert _next_pow2(2040) == 2048
        assert _next_pow2(1) == 1


class TestSynthesisCalibration:
    """The synthesis model lands near the paper's reported numbers."""

    def test_baseline_fmax_close_to_paper(self, paper_problem):
        report = synthesize_baseline(paper_problem)
        assert report.fmax_mhz == pytest.approx(PAPER_FIGURE2_BASELINE_FMAX, rel=0.05)

    def test_smache_fmax_close_to_paper(self, paper_problem):
        report = smache_report(paper_problem)
        assert report.fmax_mhz == pytest.approx(235.3, rel=0.05)

    def test_baseline_is_faster_than_smache(self, paper_problem):
        assert (
            synthesize_baseline(paper_problem).fmax_mhz
            > smache_report(paper_problem).fmax_mhz
        )

    def test_baseline_resources_close_to_paper(self, paper_problem):
        report = synthesize_baseline(paper_problem)
        assert report.bram_bits == 0
        assert report.registers == pytest.approx(PAPER_RESOURCES["baseline"]["registers"], rel=0.3)
        assert report.alms == pytest.approx(PAPER_RESOURCES["baseline"]["alms"], rel=0.3)

    def test_smache_register_only_resources_close_to_paper(self):
        report = smache_report(StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY))
        assert report.bram_bits == PAPER_RESOURCES["smache"]["bram_bits"]
        assert report.registers == pytest.approx(PAPER_RESOURCES["smache"]["registers"], rel=0.2)
        assert report.alms == pytest.approx(PAPER_RESOURCES["smache"]["alms"], rel=0.25)

    @pytest.mark.parametrize(
        "shape,mode,key",
        [
            ((11, 11), StreamBufferMode.REGISTER_ONLY, ("11x11", "r")),
            ((11, 11), StreamBufferMode.HYBRID, ("11x11", "h")),
            ((1024, 1024), StreamBufferMode.REGISTER_ONLY, ("1024x1024", "r")),
            ((1024, 1024), StreamBufferMode.HYBRID, ("1024x1024", "h")),
        ],
    )
    def test_actual_memory_close_to_paper_actual(self, shape, mode, key):
        report = smache_report(StencilProblem.paper_example(shape[0], shape[1], mode=mode))
        paper_actual = PAPER_TABLE1[key]["actual"]
        measured = report.memory.as_table_row()
        for col in ("Bsc", "Rsm", "Bsm"):
            if paper_actual[col] == 0:
                assert measured[col] == 0
            else:
                assert measured[col] == pytest.approx(paper_actual[col], rel=0.12)

    def test_estimate_tracks_actual(self, paper_problem, paper_design):
        """The paper's headline claim for Table I: the cost model closely
        tracks synthesis."""
        estimate = paper_design.cost
        actual = smache_report(paper_problem).memory
        for col, est_value in estimate.as_table_row().items():
            act_value = actual.as_table_row()[col]
            if act_value == 0:
                continue
            assert abs(est_value - act_value) / act_value < 0.20


PAPER_FIGURE2_BASELINE_FMAX = 372.9


class TestSynthesisStructure:
    def test_breakdown_sums_to_total_registers(self, paper_problem):
        report = smache_report(paper_problem)
        assert report.registers == pytest.approx(
            sum(b.registers for b in report.breakdown.values()), abs=1
        )

    def test_hybrid_uses_less_registers_than_register_only(self):
        h = smache_report(StencilProblem.paper_example(1024, 1024))
        r = smache_report(
            StencilProblem.paper_example(1024, 1024, mode=StreamBufferMode.REGISTER_ONLY)
        )
        assert h.registers < r.registers / 10
        assert h.bram_bits > r.bram_bits

    def test_fmax_independent_of_grid_size(self):
        small = smache_report(StencilProblem.paper_example(11, 11))
        big = smache_report(StencilProblem.paper_example(1024, 1024))
        assert small.fmax_mhz == big.fmax_mhz

    def test_describe_output(self, paper_problem):
        text = smache_report(paper_problem).describe()
        assert "Fmax" in text and "BRAM bits" in text
        text_b = synthesize_baseline(paper_problem).describe()
        assert "baseline" in text_b
