"""Tests for the idle-horizon fast engine: scheduling, skipping, debug mode."""

import pytest

from repro.sim.engine import (
    ENGINE_MODES,
    Component,
    SimulationError,
    Simulator,
    default_engine,
    set_default_engine,
)


class LatencyProducer(Component):
    """Pushes one item every ``period`` cycles (self-scheduled activity)."""

    def __init__(self, sim, limit=10, period=25):
        super().__init__(sim, "producer")
        self.out = self.channel("out", 2)
        self.sent = 0
        self.limit = limit
        self.period = period
        self.idle_noted = 0

    def tick(self):
        if self.sent < self.limit and self.cycle % self.period == 0:
            if self.out.can_push():
                self.out.push(self.sent)
                self.sent += 1
        elif self.sent < self.limit:
            self.idle_noted += 1  # per-cycle bookkeeping, reproduced by skip()

    def finished(self):
        return self.sent >= self.limit

    def next_activity(self):
        if self.sent >= self.limit:
            return None
        now = self.sim.cycle
        if now % self.period == 0:
            return now
        return now + (self.period - now % self.period)

    def skip(self, cycles):
        if self.sent < self.limit:
            self.idle_noted += cycles

    def skip_digest(self):
        return (self.sent,)


class Sink(Component):
    """Pops everything available."""

    def __init__(self, sim, source):
        super().__init__(sim, "sink")
        self.source = source
        self.received = []

    def tick(self):
        if self.source.can_pop():
            self.received.append((self.cycle, self.source.pop()))

    def finished(self):
        return not self.source.can_pop()

    def next_activity(self):
        return self.sim.cycle if self.source.can_pop() else None

    def skip_digest(self):
        return (len(self.received),)


class LyingProducer(LatencyProducer):
    """Claims to be idle for twice its real period (an unsound horizon)."""

    def next_activity(self):
        if self.sent >= self.limit:
            return None
        now = self.sim.cycle
        if now % self.period == 0:
            return now
        # Lies: reports the wake-up one full period too late.
        return now + (2 * self.period - now % self.period)


def build(engine, producer_cls=LatencyProducer, limit=6, period=25):
    sim = Simulator("t", engine=engine)
    producer = producer_cls(sim, limit=limit, period=period)
    sink = Sink(sim, producer.out)
    return sim, producer, sink


class TestEngineModes:
    def test_default_engine_is_fast(self):
        assert default_engine() == "fast"
        assert Simulator().engine == "fast"

    def test_engine_override_and_validation(self):
        assert Simulator(engine="naive").engine == "naive"
        with pytest.raises(ValueError):
            Simulator(engine="warp")

    def test_set_default_engine_roundtrip(self):
        previous = set_default_engine("naive")
        try:
            assert default_engine() == "naive"
            assert Simulator().engine == "naive"
        finally:
            set_default_engine(previous)
        assert default_engine() == previous

    def test_set_default_engine_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_default_engine("warp")

    def test_engine_modes_constant(self):
        assert set(ENGINE_MODES) == {"fast", "naive", "debug"}


class TestFastParity:
    @pytest.mark.parametrize("engine", ["fast", "debug"])
    def test_run_until_matches_naive(self, engine):
        sim_n, prod_n, sink_n = build("naive")
        sim_f, prod_f, sink_f = build(engine)
        sim_n.run_until(lambda: len(sink_n.received) == 6, max_cycles=1000)
        sim_f.run_until(lambda: len(sink_f.received) == 6, max_cycles=1000)
        assert sim_f.cycle == sim_n.cycle
        assert sink_f.received == sink_n.received
        # per-cycle bookkeeping batched by skip() matches naive accrual
        assert prod_f.idle_noted == prod_n.idle_noted

    @pytest.mark.parametrize("engine", ["fast", "debug"])
    def test_run_until_idle_matches_naive(self, engine):
        sim_n, _, sink_n = build("naive")
        sim_f, _, sink_f = build(engine)
        sim_n.run_until_idle(max_cycles=1000)
        sim_f.run_until_idle(max_cycles=1000)
        assert sim_f.cycle == sim_n.cycle
        assert sink_f.received == sink_n.received

    def test_fast_engine_actually_skips(self):
        sim, _, sink = build("fast")
        sim.run_until(lambda: len(sink.received) == 6, max_cycles=1000)
        stats = sim.run_stats()
        assert stats["cycles_skipped"] > 0
        assert stats["skip_regions"] > 0
        assert stats["skip_ratio"] > 0.5
        assert stats["cycles_fast_forwarded"] == 0
        total = stats["ticks_executed"] + stats["cycles_skipped"] + stats["cycles_fast_forwarded"]
        assert total == sim.cycle

    def test_naive_engine_never_skips(self):
        sim, _, sink = build("naive")
        sim.run_until(lambda: len(sink.received) == 6, max_cycles=1000)
        stats = sim.run_stats()
        assert stats["cycles_skipped"] == 0
        assert stats["skip_ratio"] == 0.0
        assert stats["cycles_fast_forwarded"] == 0
        assert stats["ticks_executed"] == sim.cycle

    def test_timeout_budget_and_stall_accounting_match_naive(self):
        # A producer that never finishes: both engines must raise at exactly
        # max_cycles with identical per-cycle bookkeeping.
        sim_n, prod_n, _ = build("naive", limit=10**9)
        sim_f, prod_f, _ = build("fast", limit=10**9)
        for sim in (sim_n, sim_f):
            with pytest.raises(SimulationError):
                sim.run_until(lambda: False, max_cycles=200)
        assert sim_f.cycle == sim_n.cycle == 200
        assert prod_f.idle_noted == prod_n.idle_noted

    def test_check_every_keeps_naive_batching(self):
        # check_every > 1 documents literal sampling semantics; the fast
        # engine defers to the naive loop there.
        sim, _, sink = build("fast")
        cycles = sim.run_until(
            lambda: len(sink.received) == 6, max_cycles=1000, check_every=8
        )
        assert cycles % 8 == 0
        assert sim.run_stats()["cycles_skipped"] == 0

    def test_reset_clears_efficiency_counters(self):
        sim, _, sink = build("fast")
        sim.run_until(lambda: len(sink.received) == 6, max_cycles=1000)
        sim.reset()
        stats = sim.run_stats()
        assert stats["ticks_executed"] == 0
        assert stats["cycles_skipped"] == 0
        assert sim.cycle == 0

    def test_external_push_wakes_idle_system(self):
        # Everything is idle; a testbench pushes directly into a channel
        # between cycles.  The staged update must force an executed cycle.
        sim = Simulator(engine="fast")
        ch = sim.create_channel("stim", 4)
        sink = Sink(sim, ch)
        ch.push("hello")
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=50)
        assert sink.received[0][1] == "hello"

    @pytest.mark.parametrize("engine", ENGINE_MODES)
    def test_stimulus_staged_after_a_quiet_cycle_is_executed(self, engine):
        # The system has gone quiet, so the next event would be a horizon
        # pass; a testbench then stages a push from outside any tick right
        # before run_until.  Nothing has committed yet, so every horizon is
        # None: only the staged update itself may force the executed cycle
        # (a dead region would run straight into the budget).
        sim = Simulator(engine=engine)
        ch = sim.create_channel("stim", 4)
        sink = Sink(sim, ch)
        sim.step(3)
        ch.push("late")
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=50)
        assert sink.received == [(4, "late")]
        assert sim.cycle == 5
        assert sim.run_stats()["ticks_executed"] == 5


class TestDebugCrossCheck:
    def test_debug_mode_catches_lying_next_activity(self):
        sim, _, sink = build("debug", producer_cls=LyingProducer)
        with pytest.raises(SimulationError, match="dead region|under-report"):
            sim.run_until(lambda: len(sink.received) == 6, max_cycles=1000)

    def test_fast_mode_would_miss_the_lie(self):
        # The same lie silently corrupts scheduling under "fast" — which is
        # exactly why the debug engine exists for new components.
        sim, _, sink = build("fast", producer_cls=LyingProducer)
        sim.run_until_idle(max_cycles=10_000)
        sim_ok, _, sink_ok = build("naive", producer_cls=LatencyProducer)
        sim_ok.run_until_idle(max_cycles=10_000)
        assert sim.cycle != sim_ok.cycle

    def test_debug_mode_passes_for_honest_components(self):
        sim, _, sink = build("debug")
        sim.run_until_idle(max_cycles=1000)
        assert [v for _, v in sink.received] == list(range(6))


class DigestingProducer(LatencyProducer):
    """A producer that publishes its timing state (instance fast-forward)."""

    def instance_digest(self, origin):
        if self.sent >= self.limit:
            return ()
        return (origin % self.period,)


class DigestingSink(Sink):
    def instance_digest(self, origin):
        return ()


class TestInstanceFastForward:
    def build(self, engine="fast"):
        sim = Simulator("ff", engine=engine)
        producer = DigestingProducer(sim, limit=6, period=25)
        sink = DigestingSink(sim, producer.out)
        return sim, producer, sink

    def test_a_component_without_a_digest_vetoes(self):
        sim, _, _ = build("fast")  # the plain producer and sink have none
        assert sim.instance_digest() is None

    def test_digest_is_relative_and_covers_channels(self):
        sim, _, sink = self.build()
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=1000)
        first = sim.instance_digest()
        sim.run_until(lambda: len(sink.received) == 2, max_cycles=1000)
        # one period later the producer's phase and the empty channel repeat
        assert sim.instance_digest() == first
        assert first[-1] == ()  # the channel's committed contents

    def test_channel_timing_key_leaves_data_out(self):
        sim = Simulator("keys")
        keyed = sim.create_channel("keyed", 2, timing_key=lambda item: item[0])
        plain = sim.create_channel("plain", 2)
        keyed.push((7, 1.5))
        plain.push((7, 1.5))
        keyed.commit()
        plain.commit()
        assert keyed.timing_digest() == (7,)
        assert plain.timing_digest() == ((7, 1.5),)

    def test_fast_forward_moves_the_clock_and_is_counted(self):
        sim, _, sink = self.build()
        sim.run_until(lambda: len(sink.received) == 2, max_cycles=1000)
        ticked = sim.cycle
        sim.fast_forward(100, max_cycles=1000)
        stats = sim.run_stats()
        assert sim.cycle == stats["cycles"] == ticked + 100
        assert stats["cycles_fast_forwarded"] == 100
        total = stats["ticks_executed"] + stats["cycles_skipped"] + stats["cycles_fast_forwarded"]
        assert total == sim.cycle
        # the components were left behind: the simulation cannot run on
        with pytest.raises(SimulationError, match="fast-forwarded"):
            sim.step()
        sim.reset()
        assert sim.run_stats()["cycles_fast_forwarded"] == 0
        sim.step()

    def test_fast_forward_past_the_budget_raises_like_run_until(self):
        sim, _, sink = self.build()
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=1000)
        with pytest.raises(SimulationError, match="exceeded 50 cycles"):
            sim.fast_forward(50, max_cycles=50)
        sim.fast_forward(50 - sim.cycle, max_cycles=50)  # landing on it is fine
        assert sim.cycle == 50
