"""Tests for repro.memory.dram: the DRAM timing and traffic model."""

import numpy as np
import pytest

from repro.memory.dram import DRAMCommand, DRAMModel, DRAMTiming
from repro.sim.engine import Simulator


def make_dram(**kwargs):
    sim = Simulator()
    dram = DRAMModel(sim, size_words=1024, **kwargs)
    return sim, dram


def read_n_words(sim, dram, addresses, max_cycles=10_000):
    """Push read commands for the addresses and collect the responses."""
    addresses = list(addresses)
    responses = []
    to_send = list(addresses)
    while len(responses) < len(addresses):
        if to_send and dram.read_cmd.can_push():
            dram.read_cmd.push(DRAMCommand(kind="read", addr=to_send.pop(0)))
        while dram.read_rsp.can_pop():
            responses.append(dram.read_rsp.pop())
        sim.step()
        if sim.cycle > max_cycles:
            raise AssertionError("DRAM read sequence did not complete")
    return responses


class TestBasicReadsWrites:
    def test_preload_and_read_back(self):
        sim, dram = make_dram()
        dram.preload(0, np.arange(16))
        responses = read_n_words(sim, dram, range(16))
        assert [r.data for r in responses] == list(range(16))
        assert dram.words_read == 16
        assert dram.bytes_read == 64

    def test_responses_preserve_order_and_tags(self):
        sim, dram = make_dram()
        dram.preload(0, np.arange(32))
        to_send = [DRAMCommand(kind="read", addr=a, tag=a % 3) for a in (5, 1, 9)]
        responses = []
        while len(responses) < 3:
            if to_send and dram.read_cmd.can_push():
                dram.read_cmd.push(to_send.pop(0))
            while dram.read_rsp.can_pop():
                responses.append(dram.read_rsp.pop())
            sim.step()
        assert [r.addr for r in responses] == [5, 1, 9]
        assert [r.tag for r in responses] == [2, 1, 0]

    def test_write_updates_storage_and_counters(self):
        sim, dram = make_dram()
        dram.write_cmd.push(DRAMCommand(kind="write", addr=7, data=3.5))
        for _ in range(10):
            sim.step()
        assert dram.storage[7] == 3.5
        assert dram.words_written == 1
        assert dram.writes_completed == 1

    def test_out_of_range_read_raises(self):
        sim, dram = make_dram()
        dram.read_cmd.push(DRAMCommand(kind="read", addr=5000))
        with pytest.raises(IndexError):
            for _ in range(10):
                sim.step()

    def test_out_of_range_preload_rejected(self):
        _, dram = make_dram()
        with pytest.raises(ValueError):
            dram.preload(1020, np.arange(16))

    def test_snapshot(self):
        _, dram = make_dram()
        dram.preload(4, np.array([1.0, 2.0, 3.0]))
        assert list(dram.snapshot(4, 3)) == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            dram.snapshot(1023, 5)

    def test_invalid_command_kind_rejected(self):
        with pytest.raises(ValueError):
            DRAMCommand(kind="refresh", addr=0)
        with pytest.raises(ValueError):
            DRAMCommand("refresh", 0)

    def test_messages_keep_their_constructor_signature(self):
        from repro.memory import DRAMCommand as ExportedCommand
        from repro.memory import DRAMResponse

        assert ExportedCommand is DRAMCommand
        read = DRAMCommand(kind="read", addr=5, tag=2)
        write = DRAMCommand("write", 7, 3.5)
        assert (read.kind, read.addr, read.data, read.tag) == ("read", 5, 0.0, 2)
        assert (write.kind, write.addr, write.data, write.tag) == ("write", 7, 3.5, 0)
        rsp = DRAMResponse(addr=5, data=1.5, tag=2)
        assert (rsp.addr, rsp.data, rsp.tag) == (5, 1.5, 2)
        assert DRAMResponse(4, 2.0).tag == 0
        # slotted: a misspelt field is an error, not a silent new attribute
        with pytest.raises(AttributeError):
            read.adress = 6

    def test_write_address_out_of_range_raises(self):
        sim, dram = make_dram()
        dram.write_cmd.push(DRAMCommand(kind="write", addr=-1, data=1.0))
        with pytest.raises(IndexError, match="write address"):
            for _ in range(4):
                sim.step()


class TestTimingModel:
    def test_sequential_stream_is_one_word_per_cycle(self):
        sim, dram = make_dram()
        dram.preload(0, np.arange(64))
        read_n_words(sim, dram, range(64))
        # one access is "random" (the first), the rest continue the burst
        assert dram.sequential_accesses == 63
        assert dram.random_accesses == 1

    def test_strided_access_counts_as_random(self):
        sim, dram = make_dram()
        dram.preload(0, np.arange(512))
        read_n_words(sim, dram, range(0, 512, 7))
        assert dram.sequential_accesses == 0
        assert dram.random_accesses == len(range(0, 512, 7))

    def test_random_penalty_slows_reads_down(self):
        addresses = list(range(0, 500, 7))
        sim_fast, dram_fast = make_dram(timing=DRAMTiming(random_access_cycles=1))
        dram_fast.preload(0, np.arange(512))
        read_n_words(sim_fast, dram_fast, addresses)

        sim_slow, dram_slow = make_dram(timing=DRAMTiming(random_access_cycles=4))
        dram_slow.preload(0, np.arange(512))
        read_n_words(sim_slow, dram_slow, addresses)
        assert sim_slow.cycle > sim_fast.cycle * 2

    def test_row_miss_penalty_counted(self):
        timing = DRAMTiming(row_miss_penalty=10, row_words=16)
        sim, dram = make_dram(timing=timing)
        dram.preload(0, np.arange(128))
        read_n_words(sim, dram, [0, 64, 3, 100])
        assert dram.row_misses >= 3

    def test_moving_back_a_row_is_a_row_miss(self):
        # The port's previous access sat in a later row: the next access
        # opens another row just as a move forward would.
        timing = DRAMTiming(random_access_cycles=3, row_miss_penalty=10, row_words=16)
        sim, dram = make_dram(timing=timing)
        dram.preload(0, np.arange(64))
        read_n_words(sim, dram, [40])  # row 2
        before = dram.busy_cycles
        read_n_words(sim, dram, [5])  # row 0
        assert dram.row_misses == 2
        assert dram.random_accesses == 2
        assert (dram.busy_cycles - before
                == timing.random_access_cycles + timing.row_miss_penalty)

    def test_sequential_immune_to_row_penalty_between_words(self):
        timing = DRAMTiming(row_miss_penalty=10, row_words=16)
        sim, dram = make_dram(timing=timing)
        dram.preload(0, np.arange(64))
        read_n_words(sim, dram, range(64))
        # only the initial access pays the activation
        assert dram.row_misses == 1

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            DRAMTiming(stream_word_cycles=0)
        with pytest.raises(ValueError):
            DRAMTiming(row_miss_penalty=-1)


class TestSharedBus:
    def test_shared_bus_serialises_reads_and_writes(self):
        # With a shared bus, N reads + N writes take ~2N cycles; with a split
        # bus they overlap and take ~N.
        def run(shared):
            sim, dram = make_dram(shared_bus=shared)
            dram.preload(0, np.arange(256))
            reads = list(range(100))
            writes = list(range(100, 200))
            done_reads = 0
            while done_reads < 100 or dram.writes_completed < 100:
                if reads and dram.read_cmd.can_push():
                    dram.read_cmd.push(DRAMCommand(kind="read", addr=reads.pop(0)))
                if writes and dram.write_cmd.can_push():
                    dram.write_cmd.push(DRAMCommand(kind="write", addr=writes.pop(0), data=1.0))
                while dram.read_rsp.can_pop():
                    dram.read_rsp.pop()
                    done_reads += 1
                sim.step()
                assert sim.cycle < 5000
            return sim.cycle

        # the split bus should be markedly faster
        assert run(shared=True) > run(shared=False) * 1.5

    def test_finished_reflects_inflight_work(self):
        sim, dram = make_dram()
        assert dram.finished()
        dram.read_cmd.push(DRAMCommand(kind="read", addr=0))
        sim.step(2)  # one cycle to commit the command, one for the DRAM to accept it
        assert not dram.finished()
        for _ in range(12):
            sim.step()
        dram.read_rsp.drain()
        assert dram.finished()

    def test_reset_clears_state(self):
        sim, dram = make_dram()
        dram.preload(0, np.arange(8))
        read_n_words(sim, dram, range(8))
        dram.reset()
        assert dram.words_read == 0
        assert np.all(dram.storage == 0)
