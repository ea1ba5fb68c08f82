"""Tests for repro.core.partition: hybrid register/BRAM splits."""

import pytest

from repro.core.buffers import StreamBufferSpec
from repro.core.partition import (
    StreamBufferMode,
    hybrid_register_slots,
    partition_for_plan,
    partition_stream_buffer,
)
from repro.dse.explorer import register_candidates


@pytest.fixture
def stream_25():
    return StreamBufferSpec(reach=22, window_lo=-11, window_hi=11, word_bits=32)


class TestHybridFormula:
    def test_register_slots_for_four_taps(self):
        assert hybrid_register_slots(4) == 11

    def test_register_slots_for_zero_taps(self):
        assert hybrid_register_slots(0) == 3

    def test_negative_taps_rejected(self):
        with pytest.raises(ValueError):
            hybrid_register_slots(-1)


class TestPartition:
    def test_register_only_uses_whole_depth(self, stream_25):
        p = partition_stream_buffer(stream_25, 4, StreamBufferMode.REGISTER_ONLY)
        assert p.register_elements == 25
        assert p.bram_elements == 0
        assert p.bram_segments == 0
        assert p.register_bits == 800

    def test_hybrid_keeps_taps_in_registers(self, stream_25):
        p = partition_stream_buffer(stream_25, 4, StreamBufferMode.HYBRID)
        assert p.register_elements == 11
        assert p.bram_elements == 14
        assert p.register_bits == 352
        assert p.bram_bits == 448

    def test_hybrid_capped_by_depth(self):
        small = StreamBufferSpec(reach=2, window_lo=-1, window_hi=1, word_bits=32)
        p = partition_stream_buffer(small, 4, StreamBufferMode.HYBRID)
        assert p.register_elements == small.depth
        assert p.bram_elements == 0

    def test_custom_partition(self, stream_25):
        p = partition_stream_buffer(
            stream_25, 4, StreamBufferMode.CUSTOM, register_elements=20
        )
        assert p.register_elements == 20
        assert p.bram_elements == 5

    def test_custom_requires_register_elements(self, stream_25):
        with pytest.raises(ValueError):
            partition_stream_buffer(stream_25, 4, StreamBufferMode.CUSTOM)

    def test_custom_out_of_range_rejected(self, stream_25):
        with pytest.raises(ValueError):
            partition_stream_buffer(
                stream_25, 4, StreamBufferMode.CUSTOM, register_elements=26
            )

    def test_max_concurrent_bram_reads_is_at_most_one(self, stream_25):
        p = partition_stream_buffer(stream_25, 4, StreamBufferMode.HYBRID)
        assert p.max_concurrent_bram_reads == 1
        r = partition_stream_buffer(stream_25, 4, StreamBufferMode.REGISTER_ONLY)
        assert r.max_concurrent_bram_reads == 0

    def test_describe_mentions_mode(self, stream_25):
        assert "h:" in partition_stream_buffer(stream_25, 4).describe()


class TestPartitionForPlan:
    def test_paper_plan_hybrid(self, paper_design):
        plan = paper_design.plan
        p = partition_for_plan(plan, StreamBufferMode.HYBRID)
        assert p.register_elements == 11
        assert p.register_bits == 352

    def test_paper_plan_register_only(self, paper_design):
        plan = paper_design.plan
        p = partition_for_plan(plan, StreamBufferMode.REGISTER_ONLY)
        assert p.register_bits == 800

    def test_1024_hybrid_register_section_constant(self):
        from repro.pipeline import StencilProblem, compile

        plan = compile(StencilProblem.paper_example(1024, 1024)).plan
        p = partition_for_plan(plan, StreamBufferMode.HYBRID)
        assert p.register_elements == 11
        assert p.bram_elements == 2040


class TestSweep:
    def test_sweep_includes_both_extremes(self, stream_25):
        regs = register_candidates(stream_25.depth, 4, steps=5)
        assert min(regs) == 11
        assert max(regs) == 25

    def test_sweep_is_monotone_and_consistent(self, stream_25):
        regs = register_candidates(stream_25.depth, 4, steps=6)
        assert regs == sorted(regs)
        for r in regs:
            p = partition_stream_buffer(
                stream_25, 4, StreamBufferMode.CUSTOM, register_elements=r
            )
            assert p.register_elements + p.bram_elements == stream_25.depth
