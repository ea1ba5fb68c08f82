"""Run-everything harness.

``run_all()`` regenerates every experiment (Figure 2, Table I, the resource
comparisons and the three ablations) and returns one text report; the
``python -m repro.eval`` command line wraps it.  ``tests/eval`` asserts
the paper's results through the same entry points, so the numbers in
EXPERIMENTS.md, the tests and this harness always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.eval.ablations import (
    run_dram_penalty_ablation,
    run_planner_ablation,
    run_write_through_ablation,
)
from repro.eval.analytic_exp import run_analytic_check
from repro.eval.figure2 import run_figure2
from repro.eval.resources_exp import run_hybrid_tradeoff, run_resources
from repro.eval.table1 import run_table1


@dataclass
class ExperimentRecord:
    """One experiment's formatted output."""

    name: str
    title: str
    text: str


@dataclass
class EvaluationReport:
    """Everything the harness produced, with a single formatted view."""

    records: List[ExperimentRecord] = field(default_factory=list)

    def format(self) -> str:
        """Concatenate every experiment's output with separators."""
        blocks = []
        for record in self.records:
            header = f"{'=' * 72}\n{record.title}\n{'=' * 72}"
            blocks.append(f"{header}\n{record.text}")
        return "\n\n".join(blocks)

    def get(self, name: str) -> Optional[ExperimentRecord]:
        """Look up one experiment's record by name."""
        for record in self.records:
            if record.name == name:
                return record
        return None


#: Registry of experiments: name -> runner returning a formatted string.
#: Every runner accepts the session :class:`repro.api.Workbench`;
#: experiments that are sweeps (Figure 2, E5, the ablations) shard their
#: points over the session's runner policy, the rest ignore it.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "figure2": lambda wb: run_figure2(workbench=wb).format(),
    "table1": lambda wb: run_table1().format(),
    "resources": lambda wb: run_resources().format(),
    "hybrid": lambda wb: run_hybrid_tradeoff().format(),
    "analytic": lambda wb: run_analytic_check(workbench=wb).format(),
    "ablation-writethrough": lambda wb: run_write_through_ablation(workbench=wb).format(),
    "ablation-dram": lambda wb: run_dram_penalty_ablation(workbench=wb).format(),
    "ablation-planner": lambda wb: run_planner_ablation(workbench=wb).format(),
}

TITLES: Dict[str, str] = {
    "figure2": "E1 / Figure 2 — Smache vs baseline (11x11, 4-point stencil, 100 runs)",
    "table1": "E2 / Table I — estimated vs actual on-chip memory",
    "resources": "E3 — whole-design resource utilisation (baseline vs Smache)",
    "hybrid": "E4 — 1M-element register/BRAM trade-off (Case-R vs Case-H)",
    "analytic": "E5 — analytic performance model vs cycle-accurate simulation",
    "ablation-writethrough": "A1 — write-through / double-buffering ablation",
    "ablation-dram": "A2 — DRAM random-access penalty sensitivity",
    "ablation-planner": "A3 — planner benefit across grid sizes",
}


def run_experiment(name: str, jobs: int = 1, workbench=None) -> ExperimentRecord:
    """Run a single experiment by name.

    Experiments run through a :class:`repro.api.Workbench` session; pass an
    existing one to share its plan cache and runner policy across
    experiments (what :func:`run_all` does), or ``jobs`` builds a throwaway
    session whose sweeps shard over a process pool.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    from repro.api import Workbench

    text = EXPERIMENTS[name](Workbench.ensure(workbench, jobs=jobs))
    return ExperimentRecord(name=name, title=TITLES[name], text=text)


def run_all(
    names: Optional[List[str]] = None, jobs: int = 1, workbench=None
) -> EvaluationReport:
    """Run the requested experiments (all of them by default).

    One :class:`repro.api.Workbench` session is shared by every experiment,
    so repeated compilations of the paper's validation case hit one plan
    cache and every sweep uses one runner policy.
    """
    from repro.api import Workbench

    workbench = Workbench.ensure(workbench, jobs=jobs)
    report = EvaluationReport()
    for name in names or list(EXPERIMENTS):
        report.records.append(run_experiment(name, workbench=workbench))
    return report
