"""Experiment E1 — Figure 2: Smache vs baseline on the validation case.

The paper's setup: an 11x11 grid, the 4-point averaging filter, circular
horizontal boundaries and open vertical boundaries, with the kernel run 100
times.  Cycle counts and DRAM traffic come from simulation; the clock
frequency comes from synthesis; execution time and MOPS are derived from the
two.  This module reproduces all five columns for both designs, plus the
normalised (against baseline) values that the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.arch.system import SimulationResult
from repro.eval.paper_constants import PAPER_FIGURE2, PAPER_FIGURE2_SETUP, relative_error
from repro.fpga.synthesis import synthesize_baseline
from repro.pipeline import EvaluationRequest, StencilProblem
from repro.sweep.spec import SweepPoint
from repro.utils.tables import format_table

#: The columns of Figure 2, in the paper's order.
FIGURE2_METRICS = ("cycle_count", "freq_mhz", "dram_traffic_kib", "exec_time_us", "mops")


@dataclass
class Figure2Row:
    """One design's row of Figure 2."""

    design: str
    cycle_count: int
    freq_mhz: float
    dram_traffic_kib: float
    exec_time_us: float
    mops: float

    def as_dict(self) -> Dict[str, float]:
        """The five metrics as a plain dict."""
        return {
            "cycle_count": self.cycle_count,
            "freq_mhz": self.freq_mhz,
            "dram_traffic_kib": self.dram_traffic_kib,
            "exec_time_us": self.exec_time_us,
            "mops": self.mops,
        }


@dataclass
class Figure2Result:
    """Both rows of Figure 2 plus the normalised ratios and paper comparison."""

    baseline: Figure2Row
    smache: Figure2Row
    iterations: int
    grid_shape: tuple
    baseline_sim: Optional[SimulationResult] = None
    smache_sim: Optional[SimulationResult] = None
    paper: Dict[str, Dict[str, float]] = field(default_factory=lambda: PAPER_FIGURE2)

    # ------------------------------------------------------------------ #
    def normalised(self) -> Dict[str, Dict[str, float]]:
        """Each design's metrics divided by the baseline's (the paper's bars)."""
        base = self.baseline.as_dict()
        out = {}
        for name, row in (("baseline", self.baseline), ("smache", self.smache)):
            out[name] = {
                metric: (row.as_dict()[metric] / base[metric]) if base[metric] else 0.0
                for metric in FIGURE2_METRICS
            }
        return out

    @property
    def speedup(self) -> float:
        """Smache speed-up in simulated execution time (the paper reports ~3x)."""
        return self.baseline.exec_time_us / self.smache.exec_time_us

    @property
    def cycle_ratio(self) -> float:
        """Smache cycles as a fraction of baseline cycles (paper: ~20-25%)."""
        return self.smache.cycle_count / self.baseline.cycle_count

    @property
    def traffic_ratio(self) -> float:
        """Smache DRAM traffic as a fraction of baseline (paper: ~40%)."""
        return self.smache.dram_traffic_kib / self.baseline.dram_traffic_kib

    def paper_errors(self) -> Dict[str, Dict[str, float]]:
        """Relative error of every measured metric against the paper's value."""
        errors: Dict[str, Dict[str, float]] = {}
        for name, row in (("baseline", self.baseline), ("smache", self.smache)):
            errors[name] = {
                metric: relative_error(row.as_dict()[metric], self.paper[name][metric])
                for metric in FIGURE2_METRICS
            }
        return errors

    # ------------------------------------------------------------------ #
    def format(self) -> str:
        """The figure's data as text tables (measured, normalised, vs paper)."""
        headers = ["design", "cycles", "Fmax (MHz)", "DRAM (KiB)", "time (us)", "MOPS"]
        rows = [
            [
                name,
                row.cycle_count,
                round(row.freq_mhz, 1),
                round(row.dram_traffic_kib, 1),
                round(row.exec_time_us, 1),
                round(row.mops, 1),
            ]
            for name, row in (("baseline", self.baseline), ("smache", self.smache))
        ]
        measured = format_table(headers, rows, title="Figure 2 — measured")

        norm = self.normalised()
        nrows = [
            [name] + [round(norm[name][m], 3) for m in FIGURE2_METRICS]
            for name in ("baseline", "smache")
        ]
        normalised = format_table(headers, nrows, title="Figure 2 — normalised to baseline")

        prow = []
        for name in ("baseline", "smache"):
            p = self.paper[name]
            prow.append(
                [
                    name,
                    p["cycle_count"],
                    p["freq_mhz"],
                    p["dram_traffic_kib"],
                    p["exec_time_us"],
                    p["mops"],
                ]
            )
        paper = format_table(headers, prow, title="Figure 2 — paper")
        summary = (
            f"speed-up (exec time): {self.speedup:.2f}x (paper ~2.9x)\n"
            f"cycle ratio         : {self.cycle_ratio:.2%} (paper ~21.9%)\n"
            f"traffic ratio       : {self.traffic_ratio:.2%} (paper ~40.4%)"
        )
        return "\n\n".join([measured, normalised, paper, summary])


def run_figure2(
    rows: int = PAPER_FIGURE2_SETUP["rows"],
    cols: int = PAPER_FIGURE2_SETUP["cols"],
    iterations: int = PAPER_FIGURE2_SETUP["iterations"],
    keep_sim_results: bool = False,
    jobs: int = 1,
    workbench=None,
) -> Figure2Result:
    """Run the Figure 2 experiment and return both rows.

    ``rows``/``cols``/``iterations`` default to the paper's setup; smaller
    values are used by the fast test-suite configuration.  Both designs run
    as one two-point sweep through the session's runner policy (pass a
    :class:`repro.api.Workbench`, or ``jobs`` builds a throwaway one), so
    with ``jobs=2`` the baseline and Smache simulations execute concurrently.
    ``keep_sim_results`` needs the live simulation objects and therefore
    forces the serial runner.
    """
    from repro.api import Workbench

    workbench = Workbench.ensure(workbench, jobs=jobs)
    problem = StencilProblem.paper_example(rows, cols)
    design = workbench.compile(problem)
    points = [
        SweepPoint(
            problem=problem,
            backend="simulate",
            request=EvaluationRequest(system=system, iterations=iterations),
            label=system,
        )
        for system in ("baseline", "smache")
    ]
    runner = workbench.runner(1 if keep_sim_results else None)
    records = {
        r.label: r for r in runner.run(points, keep_results=True)
    }
    baseline_res, smache_res = records["baseline"].result, records["smache"].result

    baseline_syn = synthesize_baseline(design.problem)
    smache_syn = design.synthesis

    def make_row(name: str, res, fmax: float) -> Figure2Row:
        return Figure2Row(
            design=name,
            cycle_count=res.cycles,
            freq_mhz=fmax,
            dram_traffic_kib=res.dram_traffic_kib,
            exec_time_us=res.execution_time_us(fmax),
            mops=res.mops(fmax),
        )

    result = Figure2Result(
        baseline=make_row("baseline", baseline_res, baseline_syn.fmax_mhz),
        smache=make_row("smache", smache_res, smache_syn.fmax_mhz),
        iterations=iterations,
        grid_shape=(rows, cols),
        baseline_sim=baseline_res.artifacts.get("simulation") if keep_sim_results else None,
        smache_sim=smache_res.artifacts.get("simulation") if keep_sim_results else None,
    )
    return result
