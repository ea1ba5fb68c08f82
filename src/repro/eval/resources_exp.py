"""Experiments E3 and E4 — whole-design resources and the hybrid trade-off.

E3 reproduces the prose comparison of Section IV: the baseline synthesises to
a handful of ALMs and registers with no BRAM, while Smache spends a few
hundred ALMs, around a thousand registers and 1.5K BRAM bits — the resource
price of eliminating the redundant DRAM accesses.

E4 reproduces the 1M-element (1024x1024) register/BRAM trade-off: Case-R
(register-only stream buffer) consumes tens of thousands of registers and
~131K BRAM bits, while Case-H (hybrid) brings the registers down to the
low thousands by moving the window bulk into ~196K BRAM bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.partition import StreamBufferMode
from repro.eval.paper_constants import PAPER_HYBRID_TRADEOFF, PAPER_RESOURCES, relative_error
from repro.fpga.synthesis import SynthesisReport, synthesize_baseline
from repro.pipeline import StencilProblem, compile
from repro.utils.tables import format_table


@dataclass
class ResourceComparison:
    """E3: baseline vs Smache whole-design resources."""

    baseline: SynthesisReport
    smache: SynthesisReport
    paper: Dict[str, Dict[str, float]] = field(default_factory=lambda: PAPER_RESOURCES)

    def rows(self) -> Dict[str, Dict[str, float]]:
        """Measured values in the same shape as the paper constants."""
        return {
            "baseline": {
                "alms": self.baseline.alms,
                "registers": self.baseline.registers,
                "bram_bits": self.baseline.bram_bits,
            },
            "smache": {
                "alms": self.smache.alms,
                "registers": self.smache.registers,
                "bram_bits": self.smache.bram_bits,
            },
        }

    def errors(self) -> Dict[str, Dict[str, float]]:
        """Relative errors against the paper's prose numbers."""
        measured = self.rows()
        return {
            design: {
                key: relative_error(measured[design][key], self.paper[design][key])
                for key in ("alms", "registers", "bram_bits")
            }
            for design in ("baseline", "smache")
        }

    def format(self) -> str:
        """Text table of measured vs paper resources."""
        headers = ["design", "ALMs", "registers", "BRAM bits", "source"]
        measured = self.rows()
        body = []
        for design in ("baseline", "smache"):
            m = measured[design]
            p = self.paper[design]
            body.append([design, m["alms"], m["registers"], m["bram_bits"], "measured"])
            body.append([design, p["alms"], p["registers"], p["bram_bits"], "paper"])
        return format_table(headers, body, title="E3 — whole-design resource utilisation")


def run_resources(rows: int = 11, cols: int = 11) -> ResourceComparison:
    """Synthesize both designs for the validation case (E3).

    The paper's in-text Smache numbers correspond to the register-only
    (Case-R) variant — its 1.5K BRAM bits are exactly the double-buffered
    static buffers — so that is the variant synthesised here.
    """
    smache = StencilProblem.paper_example(rows, cols, mode=StreamBufferMode.REGISTER_ONLY)
    return ResourceComparison(
        baseline=synthesize_baseline(StencilProblem.paper_example(rows, cols)),
        smache=compile(smache).synthesis,
    )


@dataclass
class HybridTradeoffResult:
    """E4: the 1024x1024 register-only vs hybrid resource trade-off."""

    register_only: Dict[str, float]
    hybrid: Dict[str, float]
    paper: Dict[str, Dict[str, float]] = field(default_factory=lambda: PAPER_HYBRID_TRADEOFF)

    def format(self) -> str:
        """Text table of the trade-off, measured vs paper."""
        headers = ["variant", "stream registers (bits)", "BRAM bits", "source"]
        body = [
            ["Case-R", self.register_only["registers"], self.register_only["bram_bits"], "measured"],
            [
                "Case-R",
                self.paper["register_only"]["registers"],
                self.paper["register_only"]["bram_bits"],
                "paper (approx.)",
            ],
            ["Case-H", self.hybrid["registers"], self.hybrid["bram_bits"], "measured"],
            [
                "Case-H",
                self.paper["hybrid"]["registers"],
                self.paper["hybrid"]["bram_bits"],
                "paper (approx.)",
            ],
        ]
        return format_table(headers, body, title="E4 — 1M-element register/BRAM trade-off")


def run_hybrid_tradeoff(rows: int = 1024, cols: int = 1024) -> HybridTradeoffResult:
    """Price the 1M-element grid in Case-R and Case-H (E4)."""
    results = {}
    for key, mode in (
        ("register_only", StreamBufferMode.REGISTER_ONLY),
        ("hybrid", StreamBufferMode.HYBRID),
    ):
        cost = compile(StencilProblem.paper_example(rows, cols, mode=mode)).cost
        results[key] = {
            "registers": cost.r_total_bits,
            "bram_bits": cost.b_total_bits,
        }
    return HybridTradeoffResult(register_only=results["register_only"], hybrid=results["hybrid"])
