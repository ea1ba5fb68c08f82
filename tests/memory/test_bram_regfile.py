"""Tests for repro.memory.bram."""

import pytest

from repro.memory.bram import BRAMFifo, BRAMModel, PortConflictError


class TestBRAMModel:
    def test_read_write_roundtrip(self):
        bram = BRAMModel("b", depth=16)
        bram.write(3, 1.5, cycle=0)
        assert bram.read(3, cycle=1) == 1.5

    def test_one_read_per_cycle_enforced(self):
        bram = BRAMModel("b", depth=16, read_ports=1)
        bram.read(0, cycle=0)
        with pytest.raises(PortConflictError):
            bram.read(1, cycle=0)

    def test_read_allowed_again_next_cycle(self):
        bram = BRAMModel("b", depth=16)
        bram.read(0, cycle=0)
        bram.read(1, cycle=1)
        assert bram.max_reads_in_cycle == 1

    def test_one_write_per_cycle_enforced(self):
        bram = BRAMModel("b", depth=16, write_ports=1)
        bram.write(0, 1.0, cycle=0)
        with pytest.raises(PortConflictError):
            bram.write(1, 2.0, cycle=0)

    def test_dual_read_ports(self):
        bram = BRAMModel("b", depth=16, read_ports=2)
        bram.read(0, cycle=0)
        bram.read(1, cycle=0)
        assert bram.max_reads_in_cycle == 2

    def test_out_of_range_access(self):
        bram = BRAMModel("b", depth=4)
        with pytest.raises(IndexError):
            bram.read(4, cycle=0)
        with pytest.raises(IndexError):
            bram.write(-1, 0.0, cycle=0)

    def test_total_bits(self):
        assert BRAMModel("b", depth=14, word_bits=32).total_bits == 448

    def test_fill_and_reset(self):
        bram = BRAMModel("b", depth=8)
        bram.fill([1, 2, 3])
        assert bram.read(1, cycle=0) == 2
        bram.reset()
        assert bram.read(1, cycle=1) == 0
        with pytest.raises(ValueError):
            bram.fill(range(20))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BRAMModel("b", depth=0)
        with pytest.raises(ValueError):
            BRAMModel("b", depth=4, word_bits=0)


class TestBRAMFifo:
    def test_shift_through_behaviour(self):
        fifo = BRAMFifo("f", depth=3)
        assert fifo.push(1.0, cycle=0) is None
        assert fifo.push(2.0, cycle=1) is None
        assert fifo.push(3.0, cycle=2) is None
        assert fifo.full
        assert fifo.push(4.0, cycle=3) == 1.0
        assert fifo.push(5.0, cycle=4) == 2.0

    def test_zero_depth_passes_through(self):
        fifo = BRAMFifo("f", depth=0)
        assert fifo.push(7.0, cycle=0) == 7.0

    def test_never_exceeds_one_read_one_write_per_cycle(self):
        fifo = BRAMFifo("f", depth=4)
        for cycle in range(32):
            fifo.push(float(cycle), cycle=cycle)
        assert fifo.bram.max_reads_in_cycle <= 1
        assert fifo.bram.max_writes_in_cycle <= 1

    def test_reset(self):
        fifo = BRAMFifo("f", depth=2)
        fifo.push(1.0, cycle=0)
        fifo.reset()
        assert len(fifo) == 0

