"""The clock-driven simulation kernel.

Every hardware block is a :class:`Component`; the :class:`Simulator` owns the
clock.  Each cycle has two phases:

1. **tick** — every component's :meth:`Component.tick` runs exactly once.  A
   component reads the *committed* state of its input channels/wires and
   stages pushes/pops/writes.
2. **commit** — every channel and wire latches its staged updates.

Because a component never observes another component's same-cycle writes, the
result of a simulation does not depend on the order in which components were
registered, exactly like synchronous RTL.

The idle-horizon fast path
--------------------------
Ticking every component on every cycle is exact but wasteful: most ticks are
provable no-ops — DRAM latency waits, pipeline drains, prefetch stalls, and
the long tails of a memory-bound stream where only one component has work.
Components therefore publish an **idle horizon** through
:meth:`Component.next_activity`: the earliest future cycle at which their
``tick`` could have any effect, assuming their inputs do not change.  The
fast scheduler uses it to batch-advance over **dead regions**: when *every*
component's horizon lies in the future, no component can act, so no channel
or wire can change, so the assumption holds inductively across the whole
region and the simulator jumps the clock to the minimum horizon without
executing any cycle at all.

One loop, :meth:`Simulator._run`, advances the clock for every entry point
and engine mode.  It binds each component's ``tick`` once; an executed cycle
calls them in registration order and commits the dirty channels and wires
inline.  Horizons are evaluated only after a *quiet* cycle (one that
committed no channel or wire) with nothing staged from outside a tick, as a
cycle that moved data cannot be followed by a dead region the horizon pass
would miss; an active cycle pays one branch for the fast path.

Per-cycle statistics that the region's no-op ticks would still have
recorded (stall counters, FSM occupancy) are reproduced exactly through
:meth:`Component.skip`.

Three engine modes are available (per simulator through
``Simulator(engine=...)``, process-wide through :func:`set_default_engine`):

* ``"fast"``  — idle-horizon cycle skipping (the default);
* ``"naive"`` — tick every component on every cycle (the reference
  scheduler);
* ``"debug"`` — take the fast path's skip decisions but *execute* every
  skipped region naively, asserting it really was dead: no channel or wire
  activity at all, and no drift of any component's
  :meth:`Component.skip_digest`.  Use this to validate the
  ``next_activity`` implementation of a new component.

The fast path is bit-identical to naive ticking: cycle counts, traffic
counters, stall statistics and outputs all match, which the parity suite in
``tests/arch/test_parity.py`` enforces across grids, reaches, partitions and
boundary kinds.

The idle-horizon contract for component authors
-----------------------------------------------
``next_activity()`` is called *between* cycles (all staged channel state is
committed) and must return:

* ``self.sim.cycle`` when the next ``tick()`` may change any state at all —
  pushing/popping a channel, mutating internal state, or raising;
* a future cycle ``c`` when the component is dormant until a *self-scheduled*
  event at ``c`` (a pipeline retire time, a DRAM ready time).  Any
  cycle-dependent change of *observable* state counts as an event — in
  particular, if :meth:`Component.finished` flips purely because the clock
  reaches some cycle (a port draining), that cycle must be reported, or
  :meth:`Simulator.run_until_idle` could sleep through the transition;
* ``None`` when the component has no self-scheduled work and can only be
  woken by an input change (another component's push/pop).

Per-cycle bookkeeping that a no-op tick would still perform (stall counters,
FSM occupancy) must not be declared as activity; implement :meth:`skip`
instead, which receives the number of skipped cycles and batch-accrues
exactly what the naive ticks would have.  Components that do not override
``next_activity`` are conservatively treated as active every cycle and stay
correct (the system simply never skips).  Cross-component *direct* state
(a control method call, or reading another component's counters live during
a tick) needs no special handling: executed cycles tick every component in
registration order exactly like the naive scheduler, and inside a skipped
region no component acts, so no such state can move.
The condition passed to :meth:`Simulator.run_until` must be a function of
simulation *state* (not of the raw cycle counter): a dead region cannot
change state, so the fast path does not re-sample the condition inside one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.channel import Channel, Wire
from repro.utils.validation import check_positive

#: Recognised scheduler implementations.
ENGINE_MODES = ("fast", "naive", "debug")

_default_engine = "fast"


def default_engine() -> str:
    """The engine mode used by simulators constructed without an override."""
    return _default_engine


def set_default_engine(mode: str) -> str:
    """Set the process-wide default engine mode; returns the previous mode.

    Used by parity tests and benchmarks to run the same workload under
    ``"fast"`` and ``"naive"`` scheduling without threading a parameter
    through every construction site.
    """
    global _default_engine
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}")
    previous = _default_engine
    _default_engine = mode
    return previous


class SimulationError(RuntimeError):
    """Raised for protocol violations or runaway simulations."""


class Component:
    """Base class for clocked hardware blocks.

    Subclasses implement :meth:`tick` (mandatory) and may override
    :meth:`reset` (call ``super().reset()``), :meth:`finished`, and the
    idle-horizon hooks :meth:`next_activity` / :meth:`skip` (see the module
    docstring for the contract).
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        sim.register_component(self)

    # ------------------------------------------------------------------ #
    def channel(self, suffix: str, capacity: int = 2) -> Channel:
        """Create a channel owned by (named after) this component."""
        return self.sim.create_channel(f"{self.name}.{suffix}", capacity)

    def wire(self, suffix: str, initial=0) -> Wire:
        """Create a wire owned by this component."""
        return self.sim.create_wire(f"{self.name}.{suffix}", initial)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the component to its power-on state."""

    def tick(self) -> None:
        """Advance one clock cycle (must be overridden)."""
        raise NotImplementedError

    def finished(self) -> bool:
        """True when the component has no more work to do (used by run_until_idle)."""
        return True

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self) -> Optional[int]:
        """Earliest cycle at which ``tick()`` may have an effect.

        The conservative default declares the component active every cycle,
        which keeps components that predate the fast path exactly correct
        (they are simply never skipped over).
        """
        return self.sim.cycle

    def skip(self, cycles: int) -> None:
        """Account ``cycles`` consecutive no-op ticks that were not executed.

        Override to batch-accrue per-cycle bookkeeping (stall counters, FSM
        occupancy) that the naive scheduler would have recorded during the
        skipped region.  Must not change any state an input-driven ``tick``
        depends on.
        """

    def skip_digest(self) -> Optional[Tuple]:
        """State that must not drift across a dead region (debug engine).

        Return a tuple of load-bearing state (FSM states, progress counters)
        *excluding* the per-cycle statistics that :meth:`skip` reproduces.
        The debug engine compares digests before and after naively executing
        a region the fast path would have skipped.
        """
        return None

    @property
    def cycle(self) -> int:
        """The current cycle number."""
        return self.sim.cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Simulator:
    """Owns the clock, the components and the channels."""

    def __init__(self, name: str = "sim", engine: Optional[str] = None) -> None:
        self.name = name
        self.cycle = 0
        if engine is not None and engine not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {engine!r}; expected one of {ENGINE_MODES}")
        self.engine = engine or default_engine()
        self._components: List[Component] = []
        self._channels: Dict[str, Channel] = {}
        self._wires: Dict[str, Wire] = {}
        # commit worklists: only channels/wires with staged updates commit
        self._dirty_channels: List[Channel] = []
        self._dirty_wires: List[Wire] = []
        # efficiency counters (surfaced through run_stats())
        self.ticks_executed = 0
        self.cycles_skipped = 0
        self.skip_regions = 0
        self.component_ticks = 0
        # True when the last executed cycle committed no channel or wire: the
        # trigger for evaluating idle horizons.
        self._quiet = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def register_component(self, component: Component) -> None:
        """Add a component to the tick list (called by Component.__init__)."""
        self._components.append(component)

    def create_channel(self, name: str, capacity: int = 2) -> Channel:
        """Create and register a channel."""
        if name in self._channels:
            raise SimulationError(f"duplicate channel name {name!r}")
        ch = Channel(name, capacity, on_dirty=self._dirty_channels.append)
        self._channels[name] = ch
        return ch

    def create_wire(self, name: str, initial=0) -> Wire:
        """Create and register a wire."""
        if name in self._wires:
            raise SimulationError(f"duplicate wire name {name!r}")
        w = Wire(name, initial, on_dirty=self._dirty_wires.append)
        self._wires[name] = w
        return w

    @property
    def components(self) -> List[Component]:
        """The registered components, in registration order."""
        return list(self._components)

    @property
    def channels(self) -> Dict[str, Channel]:
        """All channels by name."""
        return dict(self._channels)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Reset the clock, all components, channels and wires."""
        self.cycle = 0
        self.ticks_executed = 0
        self.cycles_skipped = 0
        self.skip_regions = 0
        self.component_ticks = 0
        self._quiet = False
        self._dirty_channels.clear()
        self._dirty_wires.clear()
        for comp in self._components:
            comp.reset()
        for ch in self._channels.values():
            ch.reset()
        for w in self._wires.values():
            w.reset()

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` executed clock cycles.

        Every component ticks on every one of them whatever the engine mode:
        ``step`` never skips.  The commit phase only visits channels and
        wires that staged an update this cycle (the dirty worklists), which
        is an observable no-op — untouched channels have nothing to latch.
        """
        check_positive("cycles", cycles)
        self._run(None, self.cycle + cycles, False)

    def _run(self, condition: Optional[Callable[[], bool]], limit: int, skip: bool) -> bool:
        """The scheduler loop behind every way of advancing the clock.

        Advances event by event until ``condition()`` holds (sampled before
        every event; ``None`` never holds) or the clock reaches ``limit``;
        returns whether the condition held.  An event is one executed cycle
        or, with ``skip``, one dead region up to the minimum future horizon
        (never past ``limit``).  State only changes across executed cycles,
        so the condition is never sampled inside a region.
        """
        components = self._components
        ticks = [comp.tick for comp in components]
        dirty_channels = self._dirty_channels
        dirty_wires = self._dirty_wires
        quiet = self._quiet
        executed = 0
        try:
            while True:
                if condition is not None and condition():
                    return True
                now = self.cycle
                if now >= limit:
                    return False
                if skip and quiet and not dirty_channels and not dirty_wires:
                    # Dead unless someone can act now; it ends at the first
                    # self-scheduled wake-up, or at the limit if there is none.
                    target = limit
                    for comp in components:
                        c = comp.next_activity()
                        if c is not None and c < target:
                            if c <= now:
                                break
                            target = c
                    else:
                        self._dead_region(target - now)
                        # The wake-up cycle at the region's end must execute.
                        quiet = False
                        continue
                for tick in ticks:
                    tick()
                if dirty_channels or dirty_wires:
                    quiet = False
                    for ch in dirty_channels:
                        ch.commit()
                    dirty_channels.clear()
                    for w in dirty_wires:
                        w.commit()
                    dirty_wires.clear()
                else:
                    quiet = True
                self.cycle = now + 1
                executed += 1
        finally:
            self.ticks_executed += executed
            self.component_ticks += executed * len(ticks)
            self._quiet = quiet

    # ------------------------------------------------------------------ #
    # idle-horizon machinery
    # ------------------------------------------------------------------ #
    def _mutations(self) -> int:
        return sum(ch.mutations for ch in self._channels.values()) + sum(
            w.mutations for w in self._wires.values()
        )

    def _dead_region(self, cycles: int) -> None:
        """Pass ``cycles`` cycles in which no component can act.

        The fast engine jumps the clock and lets every component batch-accrue
        its per-cycle bookkeeping; the debug engine executes the region
        instead and checks that it really was dead.
        """
        self.skip_regions += 1
        if self.engine != "debug":
            for comp in self._components:
                comp.skip(cycles)
            self.cycle += cycles
            self.cycles_skipped += cycles
            return
        mutations_before = self._mutations()
        digests_before = [comp.skip_digest() for comp in self._components]
        start = self.cycle
        self._run(None, start + cycles, False)
        if self._mutations() != mutations_before:
            raise SimulationError(
                f"simulation '{self.name}': channel/wire activity inside the dead "
                f"region [{start}, {start + cycles}) — some component's "
                "next_activity() under-reported its wake-up cycle"
            )
        for comp, before in zip(self._components, digests_before):
            after = comp.skip_digest()
            if after != before:
                raise SimulationError(
                    f"simulation '{self.name}': component '{comp.name}' state "
                    f"drifted inside the dead region [{start}, {start + cycles}): "
                    f"{before!r} -> {after!r}"
                )

    # ------------------------------------------------------------------ #
    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 10_000_000,
        check_every: int = 1,
    ) -> int:
        """Run until ``condition()`` is true; returns the cycle count.

        Raises :class:`SimulationError` if the condition is not met within
        ``max_cycles`` (runaway / deadlock protection).  The budget is
        respected exactly even when ``check_every > 1``: the last batch is
        clipped so the simulation never silently runs past ``max_cycles``.

        With the fast and debug engines (and ``check_every == 1``) dead
        regions are batch-skipped (or, under debug, executed and
        cross-checked); the condition is re-evaluated after every event, and
        never *inside* a dead region — state cannot change there, so the
        condition (which must depend on simulation state only) cannot
        either.  ``check_every > 1`` keeps the historical naive batching
        semantics: the condition is literally sampled every ``check_every``
        cycles.
        """
        check_positive("max_cycles", max_cycles)
        check_positive("check_every", check_every)
        if check_every == 1:
            met = self._run(condition, max_cycles, self.engine != "naive")
        else:
            met = condition()
            while not met and self.cycle < max_cycles:
                self._run(None, min(self.cycle + check_every, max_cycles), False)
                met = condition()
        if not met:
            raise SimulationError(
                f"simulation '{self.name}' exceeded {max_cycles} cycles "
                "without meeting its termination condition"
            )
        return self.cycle

    def run_until_idle(self, max_cycles: int = 10_000_000, settle: int = 4) -> int:
        """Run until every component reports finished and channels are empty.

        ``settle`` extra cycles are required to be idle consecutively before
        stopping, so that single-cycle bubbles do not end the run early.
        """
        skip = self.engine != "naive"

        def all_idle() -> bool:
            if not all(c.finished() for c in self._components):
                return False
            return all(ch.is_idle for ch in self._channels.values())

        idle_streak = 0
        idle = all_idle()
        while idle_streak < settle:
            before = self.cycle
            if before >= max_cycles:
                raise SimulationError(
                    f"simulation '{self.name}' exceeded {max_cycles} cycles without idling"
                )
            # While already idle, a dead region only needs to cover the rest
            # of the settle window; clip so the final cycle count matches
            # naive ticking exactly.
            limit = max_cycles
            if idle:
                limit = min(max_cycles, before + (settle - idle_streak))
            # One event: stop as soon as the clock has moved.
            self._run(lambda: self.cycle != before, limit, skip)
            advanced = self.cycle - before
            # Naive ticking evaluates the predicate at every cycle boundary.
            # A region's *intermediate* boundaries all see the frozen
            # pre-region state (cycle-dependent flips like a port draining
            # are horizon events, landing on the region's end): credit them
            # from the idle state before it (a streak is only ever non-zero
            # while idle), then evaluate the end boundary fresh.
            carried = idle_streak + advanced - 1 if idle else 0
            idle = all_idle()
            idle_streak = carried + 1 if idle else 0
        return self.cycle

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def run_stats(self) -> Dict[str, object]:
        """Scheduler efficiency counters for the run so far.

        ``ticks_executed`` counts cycles that were actually executed,
        ``cycles_skipped`` counts cycles batch-advanced over dead regions
        (in ``skip_regions`` batches), ``component_ticks`` counts individual
        ``tick()`` calls, and ``skip_ratio`` is the fraction of simulated
        time that was skipped.  Under the naive engine the ratio is 0 by
        construction.
        """
        total = self.ticks_executed + self.cycles_skipped
        return {
            "engine": self.engine,
            "cycles": self.cycle,
            "ticks_executed": self.ticks_executed,
            "cycles_skipped": self.cycles_skipped,
            "skip_regions": self.skip_regions,
            "skip_ratio": self.cycles_skipped / total if total else 0.0,
            "component_ticks": self.component_ticks,
        }

    def channel_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel transfer and stall statistics."""
        return {
            name: {
                "pushes": ch.total_pushes,
                "pops": ch.total_pops,
                "push_stalls": ch.push_stall_cycles,
                "pop_stalls": ch.pop_stall_cycles,
                "max_occupancy": ch.max_occupancy,
            }
            for name, ch in self._channels.items()
        }
