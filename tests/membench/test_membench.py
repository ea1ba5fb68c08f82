"""Tests for the MP-Stream-style memory micro-benchmark."""

import pytest

from repro.membench.patterns import AccessPattern, generate_pattern
from repro.membench.runner import measure_pattern, run_membench
from repro.memory.dram import DRAMTiming


class TestPatternGeneration:
    def test_contiguous(self):
        trace = generate_pattern(AccessPattern.CONTIGUOUS, 10, 1000)
        assert trace == list(range(10))

    def test_contiguous_wraps_region(self):
        trace = generate_pattern(AccessPattern.CONTIGUOUS, 10, 4)
        assert trace == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_strided(self):
        trace = generate_pattern(AccessPattern.STRIDED, 5, 1000, stride=7)
        assert trace == [0, 7, 14, 21, 28]

    def test_random_within_region_and_deterministic(self):
        a = generate_pattern(AccessPattern.RANDOM, 100, 64, seed=3)
        b = generate_pattern(AccessPattern.RANDOM, 100, 64, seed=3)
        assert a == b
        assert all(0 <= x < 64 for x in a)

    def test_stencil_gather_visits_neighbours(self):
        trace = generate_pattern(AccessPattern.STENCIL_GATHER, 8, 4096, row_width=64)
        assert trace[:4] == [(0 - 64) % 4096, 4095, 1, 64]

    def test_lengths_respected(self):
        for pattern in AccessPattern:
            assert len(generate_pattern(pattern, 37, 512)) == 37

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_pattern(AccessPattern.CONTIGUOUS, 0, 100)
        with pytest.raises(ValueError):
            generate_pattern(AccessPattern.STRIDED, 10, 100, stride=0)


class TestMeasurement:
    @pytest.fixture(scope="class")
    def report(self):
        return run_membench(n_accesses=1024)

    @pytest.fixture(scope="class")
    def paper_scale_report(self):
        return run_membench(n_accesses=4096)

    def test_contiguous_sustains_near_peak(self, report, paper_scale_report):
        for run in (report, paper_scale_report):
            contiguous = run.by_pattern()[AccessPattern.CONTIGUOUS]
            assert contiguous.efficiency > 0.9

    def test_random_is_much_slower(self, report, paper_scale_report):
        for run in (report, paper_scale_report):
            random = run.by_pattern()[AccessPattern.RANDOM]
            assert random.efficiency < 0.3
            assert run.contiguous_advantage() > 3.0

    def test_strided_between_the_extremes(self, report):
        table = report.by_pattern()
        assert (
            table[AccessPattern.RANDOM].words_per_cycle
            <= table[AccessPattern.STRIDED].words_per_cycle
            <= table[AccessPattern.CONTIGUOUS].words_per_cycle
        )

    def test_stencil_gather_is_not_contiguous_rate(self, report):
        table = report.by_pattern()
        assert (
            table[AccessPattern.STENCIL_GATHER].words_per_cycle
            < table[AccessPattern.CONTIGUOUS].words_per_cycle
        )

    def test_interleaved_rw_counts_writes(self, report):
        interleaved = report.by_pattern()[AccessPattern.INTERLEAVED_RW]
        assert interleaved.accesses > 1024  # reads plus the interleaved writes

    def test_bandwidth_scales_with_frequency(self, report):
        contiguous = report.by_pattern()[AccessPattern.CONTIGUOUS]
        assert contiguous.bandwidth_mbps(400.0) == pytest.approx(
            2 * contiguous.bandwidth_mbps(200.0)
        )

    def test_format_lists_every_pattern(self, report):
        text = report.format()
        for pattern in AccessPattern:
            assert pattern.value in text

    def test_no_penalty_timing_closes_the_gap(self):
        flat = DRAMTiming(random_access_cycles=1, row_miss_penalty=0)
        contiguous = measure_pattern(AccessPattern.CONTIGUOUS, n_accesses=512, timing=flat)
        random = measure_pattern(AccessPattern.RANDOM, n_accesses=512, timing=flat)
        assert random.words_per_cycle == pytest.approx(contiguous.words_per_cycle, rel=0.1)
