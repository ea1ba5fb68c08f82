"""Experiment E2 — Table I: estimated vs actual on-chip memory utilisation.

Four configurations: {11x11, 1024x1024} x {register-only, hybrid}.  The
"Estimate" rows come from the memory cost model
(:mod:`repro.core.cost_model`); the "Actual" rows come from the analytical
synthesis model (:mod:`repro.fpga.synthesis`), our stand-in for the paper's
Quartus run.  The reproduced claim is that the estimate closely tracks the
actual for every column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.partition import StreamBufferMode
from repro.eval.paper_constants import PAPER_TABLE1, relative_error
from repro.pipeline import StencilProblem, compile
from repro.utils.tables import format_table

#: Table I columns, in the paper's order.
TABLE1_COLUMNS = ("Rsc", "Bsc", "Rsm", "Bsm", "Rtotal", "Btotal")

#: The four problem rows of Table I.
TABLE1_PROBLEMS: Tuple[Tuple[str, Tuple[int, int], StreamBufferMode], ...] = (
    ("11x11", (11, 11), StreamBufferMode.REGISTER_ONLY),
    ("11x11", (11, 11), StreamBufferMode.HYBRID),
    ("1024x1024", (1024, 1024), StreamBufferMode.REGISTER_ONLY),
    ("1024x1024", (1024, 1024), StreamBufferMode.HYBRID),
)


@dataclass
class Table1Row:
    """One problem row: estimate and actual, measured here and in the paper."""

    problem: str
    mode: str
    estimate: Dict[str, int]
    actual: Dict[str, int]
    paper_estimate: Dict[str, int]
    paper_actual: Dict[str, int]

    def estimate_vs_actual_error(self) -> float:
        """Largest relative gap between our estimate and our actual (non-zero cols)."""
        worst = 0.0
        for col in TABLE1_COLUMNS:
            actual = self.actual[col]
            if actual == 0:
                continue
            worst = max(worst, abs(self.estimate[col] - actual) / actual)
        return worst

    def estimate_vs_paper_error(self) -> float:
        """Largest relative gap between our estimate and the paper's estimate."""
        worst = 0.0
        for col in TABLE1_COLUMNS:
            paper = self.paper_estimate[col]
            if paper == 0:
                continue
            worst = max(worst, relative_error(self.estimate[col], paper))
        return worst


@dataclass
class Table1Result:
    """All four rows of Table I."""

    rows: List[Table1Row] = field(default_factory=list)

    def format(self) -> str:
        """Render the table with measured and paper values side by side."""
        headers = ["problem", "kind"] + list(TABLE1_COLUMNS)
        body = []
        for row in self.rows:
            label = f"{row.problem}{row.mode}"
            body.append([label, "estimate"] + [row.estimate[c] for c in TABLE1_COLUMNS])
            body.append([label, "actual"] + [row.actual[c] for c in TABLE1_COLUMNS])
            body.append(
                [label, "paper-est"] + [row.paper_estimate[c] for c in TABLE1_COLUMNS]
            )
            body.append([label, "paper-act"] + [row.paper_actual[c] for c in TABLE1_COLUMNS])
        return format_table(headers, body, title="Table I — on-chip memory (bits)")


def run_table1() -> Table1Result:
    """Regenerate Table I for the four paper configurations."""
    result = Table1Result()
    for problem, shape, mode in TABLE1_PROBLEMS:
        design = compile(StencilProblem.paper_example(shape[0], shape[1], mode=mode))
        estimate = design.cost
        synthesis = design.synthesis
        mode_key = "r" if mode is StreamBufferMode.REGISTER_ONLY else "h"
        paper = PAPER_TABLE1[(problem, mode_key)]
        result.rows.append(
            Table1Row(
                problem=problem,
                mode=mode_key,
                estimate=dict(estimate.as_table_row()),
                actual=dict(synthesis.memory.as_table_row()),
                paper_estimate=dict(paper["estimate"]),
                paper_actual=dict(paper["actual"]),
            )
        )
    return result
