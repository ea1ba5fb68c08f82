"""Analytical synthesis model: "actual" resources and Fmax.

The paper's Table I compares its memory cost model (our
:mod:`repro.core.cost_model`) against *actual* numbers from a full Quartus
synthesis for a Stratix-V device, and Figure 2 uses the synthesised clock
frequencies of the two designs.  Without vendor tooling we stand in for
synthesis with a structural model:

* every architectural block (window buffer, static buffers, controller FSMs,
  counters, kernel pipeline, stream interfaces) contributes registers, logic
  ALMs and BRAM bits according to simple structural formulas (pointer widths,
  adder widths, mux fan-ins);
* BRAM-resident structures incur the overheads a vendor tool introduces
  (FIFO depth rounded to a power of two, one guard word per static-buffer
  bank);
* ALM count combines register packing (4 registers per ALM when packing is
  good, as on Stratix-V) with the logic ALMs;
* Fmax comes from a critical-path model ``t = t_reg + levels * t_level``
  where the number of logic levels is derived from the design structure
  (address adders for the baseline; tap mux + source select + boundary-case
  select for Smache).

The delay and packing constants are calibrated once against the paper's
reported numbers (baseline 79 ALMs / 262 registers / 372.9 MHz, Smache
520 ALMs / 1088 registers / 1.5K BRAM bits / 235.3 MHz) and then reused,
unchanged, for every other configuration; EXPERIMENTS.md records the
resulting estimate-vs-paper errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.buffers import BufferPlan
from repro.core.cost_model import MemoryCostEstimate
from repro.core.partition import HybridPartition, partition_for_plan
from repro.core.ranges import partition_into_ranges
from repro.fpga.resources import ResourceUsage

if TYPE_CHECKING:  # pipeline.compile imports this module
    from repro.pipeline.problem import StencilProblem


# --------------------------------------------------------------------------- #
# timing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TimingModel:
    """Critical-path delay model."""

    #: register clock-to-out plus setup plus local routing (ns)
    t_reg_ns: float = 0.65
    #: one LUT level plus its routing (ns)
    t_level_ns: float = 0.40
    #: hard ceiling: no design runs faster than this (I/O, PLL limits)
    fmax_ceiling_mhz: float = 450.0

    def path_ns(self, levels: int) -> float:
        """Critical-path delay for a path of ``levels`` logic levels."""
        return self.t_reg_ns + max(0, levels) * self.t_level_ns

    def fmax_mhz(self, levels: int) -> float:
        """Achievable clock frequency for a path of ``levels`` logic levels."""
        return min(self.fmax_ceiling_mhz, 1000.0 / self.path_ns(levels))


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of the analytical synthesis of one design."""

    design: str
    usage: ResourceUsage
    fmax_mhz: float
    critical_path_ns: float
    critical_path_levels: int
    memory: MemoryCostEstimate
    breakdown: Dict[str, ResourceUsage] = field(default_factory=dict)

    @property
    def registers(self) -> int:
        """Total register count (bits)."""
        return int(round(self.usage.registers))

    @property
    def alms(self) -> int:
        """Total ALM count."""
        return int(round(self.usage.alms))

    @property
    def bram_bits(self) -> int:
        """Total BRAM bits."""
        return int(round(self.usage.bram_bits))

    def describe(self) -> str:
        """Multi-line, human-readable report."""
        lines = [
            f"Synthesis report: {self.design}",
            f"  Fmax            : {self.fmax_mhz:.1f} MHz "
            f"({self.critical_path_ns:.2f} ns, {self.critical_path_levels} levels)",
            f"  ALMs            : {self.alms}",
            f"  Registers       : {self.registers}",
            f"  BRAM bits       : {self.bram_bits}",
        ]
        for name, usage in self.breakdown.items():
            lines.append(
                f"    - {name:<20} regs={usage.registers:<8.0f} "
                f"logic_alms={usage.alms:<6.0f} bram={usage.bram_bits:.0f}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# structural helpers
# --------------------------------------------------------------------------- #
#: registers packed per ALM when packing succeeds (Stratix-V style ALM).
REGISTERS_PER_ALM = 4
#: ALMs per bit of a 2:1 mux (two bits per ALM).
MUX_BITS_PER_ALM = 2
#: ALMs per bit of an adder (carry chains pack two bits per ALM).
ADDER_BITS_PER_ALM = 2


def _clog2(n: int) -> int:
    """Ceiling log2 with a floor of 1 bit (exact for any int)."""
    return (max(2, n) - 1).bit_length()


def _next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def _alms_from(registers: float, logic_alms: float) -> float:
    """Combine register packing with logic ALMs."""
    return math.ceil(registers / REGISTERS_PER_ALM) + logic_alms


# --------------------------------------------------------------------------- #
# Smache synthesis
# --------------------------------------------------------------------------- #
def smache_design_name(problem: "StencilProblem") -> str:
    """The name of ``problem``'s Smache design on its :class:`SynthesisReport`."""
    return f"smache-{problem.name}-{problem.mode.value}"


def synthesize_smache(
    problem: "StencilProblem",
    plan: BufferPlan,
    partition: Optional[HybridPartition] = None,
    timing: Optional[TimingModel] = None,
    *,
    n_cases: Optional[int] = None,
) -> SynthesisReport:
    """Structural synthesis of the Smache design for one planned problem.

    ``plan`` is the problem's compiled plan; ``partition`` is derived from
    it and the problem's mode when omitted.  The boundary-case decoder is
    sized by the number of stencil cases of the grid, always counted over
    the contiguous pattern: a case's shape key depends only on the centre
    element, not on the order the stream visits it, so any permutation
    pattern has the same case set.  ``n_cases`` is that count when the
    caller has already partitioned the contiguous stream; it is computed
    here when omitted.  The kernel pipeline is the problem's
    ``effective_kernel``.
    """
    timing = timing or TimingModel()
    kernel = problem.effective_kernel
    if partition is None:
        partition = partition_for_plan(
            plan, problem.mode, register_elements=problem.register_elements
        )

    word_bits = plan.stream.word_bits
    n = problem.grid.size
    index_bits = _clog2(n)
    depth = plan.stream.depth
    n_taps = max(1, len([o for o in plan.lookup_offsets() if o != 0]))
    if n_cases is None:
        n_cases = partition_into_ranges(problem.grid, problem.stencil, problem.boundary).n_cases
    n_cases = max(1, n_cases)

    breakdown: Dict[str, ResourceUsage] = {}

    # -- stream (window) buffer -------------------------------------------- #
    # Register section holds data; BRAM section is a FIFO whose depth the
    # vendor tool rounds up to a power of two; the FIFO needs read/write
    # pointers and a fill counter regardless of where the data lives.
    stream_ctrl_regs = 2 * _clog2(depth) + _clog2(depth) + 4  # pointers, fill count, valids
    stream_data_regs = partition.register_bits
    stream_bram_bits = (
        _next_pow2(partition.bram_elements) * word_bits if partition.bram_elements else 0
    )
    breakdown["stream_buffer"] = ResourceUsage(
        registers=stream_data_regs + stream_ctrl_regs,
        alms=stream_ctrl_regs / MUX_BITS_PER_ALM / 4,  # small control logic
        bram_bits=stream_bram_bits,
    )

    # -- static buffers ----------------------------------------------------- #
    # Each bank gets one guard word; each buffer needs an address pointer and
    # a bank-select flop; data lives in BRAM.
    static_bram_bits = 0
    static_ctrl_regs = 0
    static_logic = 0.0
    for spec in plan.statics:
        banks = spec.banks
        static_bram_bits += (spec.length + 1) * spec.word_bits * banks
        static_ctrl_regs += _clog2(spec.length + 1) + 1
        static_logic += _clog2(spec.length + 1)  # address compare/increment
    breakdown["static_buffers"] = ResourceUsage(
        registers=static_ctrl_regs,
        alms=static_logic / ADDER_BITS_PER_ALM,
        bram_bits=static_bram_bits,
    )

    # -- controller (FSM-1/2/3, counters, boundary-case decode) ------------- #
    controller_regs = (
        3 * 3                      # three FSM state registers
        + 4 * index_bits           # received/emitted/row/column counters
        + 2 * index_bits           # work-instance bookkeeping
    )
    controller_logic = (
        n_cases * index_bits / ADDER_BITS_PER_ALM / 2   # boundary-case comparators
        + 4 * index_bits / ADDER_BITS_PER_ALM           # counter increments
        + 12                                            # FSM next-state logic
    )
    breakdown["controller"] = ResourceUsage(registers=controller_regs, alms=controller_logic)

    # -- tuple assembly muxes ------------------------------------------------ #
    # Every operand of the stencil tuple selects between the window taps, the
    # static buffers and a constant; the mux is word-wide.
    n_sources = n_taps + plan.n_static_buffers + 1
    mux_logic = kernel_inputs = max(1, problem.stencil.n_points)
    mux_logic = kernel_inputs * word_bits * (n_sources - 1) / (MUX_BITS_PER_ALM * 4)
    breakdown["tuple_mux"] = ResourceUsage(alms=mux_logic)

    # -- kernel pipeline ----------------------------------------------------- #
    kernel_regs = kernel.latency * word_bits + index_bits * kernel.latency
    kernel_logic = (
        max(1, problem.stencil.n_points - 1) * word_bits / ADDER_BITS_PER_ALM / 2
        + word_bits / ADDER_BITS_PER_ALM / 2  # normalisation / final stage
    )
    breakdown["kernel"] = ResourceUsage(registers=kernel_regs, alms=kernel_logic)

    # -- stream interfaces (skid buffers, write-back) ------------------------ #
    interface_regs = 2 * (word_bits + 2) + (word_bits + index_bits)
    breakdown["interfaces"] = ResourceUsage(
        registers=interface_regs, alms=interface_regs / MUX_BITS_PER_ALM / 4
    )

    total_regs = sum(b.registers for b in breakdown.values())
    total_logic = sum(b.alms for b in breakdown.values())
    total_bram = sum(b.bram_bits for b in breakdown.values())
    usage = ResourceUsage(
        alms=_alms_from(total_regs, total_logic),
        registers=total_regs,
        bram_bits=total_bram,
    ).rounded()

    # -- memory split (Table I "Actual" analogue) ---------------------------- #
    # Like the paper's Table I, only *data* storage is attributed to the
    # buffers here; the buffers' pointer/control registers are accounted in
    # the per-block breakdown and the whole-design register count instead.
    memory = MemoryCostEstimate(
        r_static_bits=0,
        b_static_bits=static_bram_bits,
        r_stream_bits=stream_data_regs + stream_ctrl_regs,
        b_stream_bits=stream_bram_bits,
    )

    # -- timing -------------------------------------------------------------- #
    levels = (
        _clog2(n_taps + 1)         # window tap mux
        + 1                        # window / static / constant source select
        + _clog2(n_cases)          # boundary-case select
        + 1                        # output register enable / stall gating
    )
    fmax = timing.fmax_mhz(levels)
    return SynthesisReport(
        design=smache_design_name(problem),
        usage=usage,
        fmax_mhz=fmax,
        critical_path_ns=timing.path_ns(levels),
        critical_path_levels=levels,
        memory=memory,
        breakdown=breakdown,
    )


# --------------------------------------------------------------------------- #
# baseline synthesis
# --------------------------------------------------------------------------- #
def synthesize_baseline(
    problem: "StencilProblem",
    timing: Optional[TimingModel] = None,
) -> SynthesisReport:
    """Structural synthesis of the no-buffering baseline master."""
    timing = timing or TimingModel()
    word_bits = problem.word_bits if problem.word_bits is not None else problem.grid.word_bits
    n = problem.grid.size
    index_bits = _clog2(2 * n)  # addresses cover both ping-pong copies

    breakdown: Dict[str, ResourceUsage] = {}

    # operand collection registers: one word per stencil operand
    operand_regs = problem.stencil.n_points * word_bits
    breakdown["operand_regs"] = ResourceUsage(registers=operand_regs)

    # address generation: point counter, operand counter, read/write address adders
    addr_regs = 2 * index_bits + 2 * index_bits + 4
    addr_logic = 2 * index_bits / ADDER_BITS_PER_ALM
    breakdown["address_gen"] = ResourceUsage(registers=addr_regs, alms=addr_logic)

    # control FSM
    breakdown["control"] = ResourceUsage(registers=6, alms=4)

    # kernel datapath (combinational adder tree + result register)
    kernel_regs = word_bits + 8
    kernel_logic = max(1, problem.stencil.n_points - 1) * word_bits / ADDER_BITS_PER_ALM / 2
    breakdown["kernel"] = ResourceUsage(registers=kernel_regs, alms=kernel_logic)

    total_regs = sum(b.registers for b in breakdown.values())
    total_logic = sum(b.alms for b in breakdown.values())
    usage = ResourceUsage(
        alms=_alms_from(total_regs, total_logic),
        registers=total_regs,
        bram_bits=0,
    ).rounded()

    memory = MemoryCostEstimate(
        r_static_bits=0, b_static_bits=0, r_stream_bits=0, b_stream_bits=0
    )

    # critical path: the external 32-bit (byte) address adder — the DRAM bus
    # address width, independent of the grid size — carried in 8-bit segments,
    # plus the request mux.
    external_addr_bits = 32
    levels = external_addr_bits // 8 + 1
    fmax = timing.fmax_mhz(levels)
    return SynthesisReport(
        design=f"baseline-{problem.name}",
        usage=usage,
        fmax_mhz=fmax,
        critical_path_ns=timing.path_ns(levels),
        critical_path_levels=levels,
        memory=memory,
        breakdown=breakdown,
    )
