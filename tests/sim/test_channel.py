"""Tests for repro.sim.channel: two-phase FIFOs and wires."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channel import Channel, SimulationChannelError, Wire


class TestChannelBasics:
    def test_new_channel_is_empty(self):
        ch = Channel("c")
        assert not ch.can_pop()
        assert ch.can_push()
        assert ch.is_idle
        assert len(ch) == 0

    def test_push_not_visible_until_commit(self):
        ch = Channel("c")
        ch.push(1)
        assert not ch.can_pop()
        ch.commit()
        assert ch.can_pop()
        assert ch.peek() == 1

    def test_pop_returns_fifo_order(self):
        ch = Channel("c", capacity=4)
        for v in (1, 2, 3):
            ch.push(v)
        ch.commit()
        assert [ch.pop(), ch.pop(), ch.pop()] == [1, 2, 3]

    def test_pop_frees_space_only_after_commit(self):
        ch = Channel("c", capacity=1)
        ch.push(1)
        ch.commit()
        ch.pop()
        assert not ch.can_push()  # space frees at the commit
        ch.commit()
        assert ch.can_push()

    def test_push_over_capacity_raises(self):
        ch = Channel("c", capacity=1)
        ch.push(1)
        with pytest.raises(SimulationChannelError):
            ch.push(2)

    def test_pop_empty_raises(self):
        ch = Channel("c")
        with pytest.raises(SimulationChannelError):
            ch.pop()

    def test_peek_past_end_raises(self):
        ch = Channel("c")
        ch.push(1)
        ch.commit()
        with pytest.raises(SimulationChannelError):
            ch.peek(offset=1)

    def test_commit_rejects_occupancy_over_capacity(self):
        # push() never stages past the capacity; commit() still re-checks
        # what it latches, so state staged behind push()'s back cannot hide.
        ch = Channel("c", capacity=1)
        ch.push(1)
        ch._staged_pushes.append(2)
        with pytest.raises(SimulationChannelError, match="exceeded its capacity"):
            ch.commit()

    def test_mutations_count_pushes_and_pops_not_stalls(self):
        ch = Channel("c", capacity=2)
        ch.push(1)
        ch.push(2)
        ch.commit()
        ch.pop()
        ch.note_push_stall(3)
        ch.note_pop_stall(2)
        assert ch.mutations == 3
        ch.commit()
        ch.pop()
        assert ch.mutations == ch.total_pushes + ch.total_pops == 4
        ch.reset()
        assert ch.mutations == 0

    def test_simulator_channel_marks_itself_dirty_once_per_cycle(self):
        dirty = []
        ch = Channel("c", capacity=4, on_dirty=dirty.append)
        ch.push(1)
        ch.push(2)
        assert dirty == [ch]
        ch.commit()
        ch.pop()
        ch.pop()
        assert dirty == [ch, ch]
        ch.commit()
        assert not ch.can_pop() and ch.is_idle

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel("c", capacity=0)

    def test_drain(self):
        ch = Channel("c", capacity=4)
        for v in range(3):
            ch.push(v)
        ch.commit()
        assert ch.drain() == [0, 1, 2]

    def test_reset_clears_everything(self):
        ch = Channel("c")
        ch.push(1)
        ch.commit()
        ch.reset()
        assert not ch.can_pop()
        assert ch.total_pushes == 0


class TestChannelThroughput:
    def test_capacity_two_sustains_one_per_cycle(self):
        """A producer pushing every cycle and a consumer popping every cycle
        never stall with capacity >= 2 (the skid-buffer property)."""
        ch = Channel("c", capacity=2)
        produced = 0
        consumed = []
        for cycle in range(50):
            if ch.can_pop():
                consumed.append(ch.pop())
            if ch.can_push():
                ch.push(produced)
                produced += 1
            ch.commit()
        assert produced >= 49
        assert consumed == list(range(len(consumed)))
        assert len(consumed) >= 48

    def test_capacity_one_halves_throughput(self):
        ch = Channel("c", capacity=1)
        produced = 0
        consumed = 0
        for cycle in range(40):
            if ch.can_pop():
                ch.pop()
                consumed += 1
            if ch.can_push():
                ch.push(produced)
                produced += 1
            ch.commit()
        assert consumed <= 21  # roughly every other cycle

    def test_stall_counters(self):
        ch = Channel("c", capacity=1)
        ch.push(0)
        ch.commit()
        ch.note_push_stall()
        ch.note_pop_stall()
        assert ch.push_stall_cycles == 1
        assert ch.pop_stall_cycles == 1

    def test_max_occupancy_tracked(self):
        ch = Channel("c", capacity=4)
        for v in range(3):
            ch.push(v)
        ch.commit()
        assert ch.max_occupancy == 3

    @given(ops=st.lists(st.sampled_from(["push", "pop", "commit"]), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_preserved_under_any_interleaving(self, ops):
        """Whatever the interleaving, popped values are a prefix-ordered
        subsequence 0,1,2,... of pushed values."""
        ch = Channel("c", capacity=3)
        next_value = 0
        popped = []
        for op in ops:
            if op == "push" and ch.can_push():
                ch.push(next_value)
                next_value += 1
            elif op == "pop" and ch.can_pop():
                popped.append(ch.pop())
            elif op == "commit":
                ch.commit()
        assert popped == list(range(len(popped)))


class TestWire:
    def test_initial_value(self):
        w = Wire("w", initial=7)
        assert w.get() == 7

    def test_set_visible_after_commit(self):
        w = Wire("w")
        w.set(3)
        assert w.get() == 0
        w.commit()
        assert w.get() == 3

    def test_commit_without_set_keeps_value(self):
        w = Wire("w", initial=5)
        w.commit()
        assert w.get() == 5

    def test_reset(self):
        w = Wire("w", initial=2)
        w.set(9)
        w.commit()
        w.reset()
        assert w.get() == 2
