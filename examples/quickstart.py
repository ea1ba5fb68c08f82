#!/usr/bin/env python
"""Quickstart: the paper's validation case end to end, through the pipeline.

This example walks the public API through the exact scenario the paper uses
to validate Smache: an 11x11 grid, a 4-point averaging stencil, circular
boundaries at the horizontal edges and open boundaries at the vertical edges.

It shows, in order:

1. describing the problem (`StencilProblem`),
2. compiling it once (`repro.pipeline.compile`): static analysis, buffer
   plan, register/BRAM partition, memory cost and synthesis estimate,
3. evaluating the compiled design with three interchangeable backends —
   the NumPy `reference`, the cycle-accurate `simulate` and the closed-form
   `analytic` model — and checking they agree,
4. the Figure-2 style comparison (cycles, DRAM traffic, Fmax, time, MOPS).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import StencilProblem, compile, evaluate
from repro.fpga.synthesis import synthesize_baseline

ITERATIONS = 20  # the paper runs 100; 20 keeps the example snappy


def main() -> None:
    # 1. describe the problem ------------------------------------------------
    problem = StencilProblem.paper_example(rows=11, cols=11)
    print("=== problem ===")
    print(problem.describe())
    print()

    # 2. compile once: plan, partition, cost, synthesis ------------------------
    design = compile(problem)
    print("=== compiled design ===")
    print(design.describe())
    print()

    # 3. one design, three backends --------------------------------------------
    reference = evaluate(design, backend="reference", iterations=ITERATIONS)
    smache = evaluate(design, backend="simulate", iterations=ITERATIONS)
    analytic = evaluate(design, backend="analytic", iterations=ITERATIONS)
    baseline = evaluate(design, backend="simulate", system="baseline", iterations=ITERATIONS)
    assert np.allclose(smache.output, reference.output), "Smache diverged from the reference"
    assert np.allclose(baseline.output, reference.output), "baseline diverged from the reference"
    cycle_error = (analytic.cycles - smache.cycles) / smache.cycles
    print("=== evaluation (simulated outputs match the NumPy reference) ===")
    print(f"  iterations           : {ITERATIONS}")
    print(f"  smache cycles        : {smache.cycles} simulated, "
          f"{analytic.cycles} analytic ({cycle_error:+.2%})")
    print(f"  baseline cycles      : {baseline.cycles}")
    print(f"  smache DRAM traffic  : {smache.dram_traffic_kib:.1f} KiB "
          f"(analytic: {analytic.dram_traffic_kib:.1f} KiB)")
    print(f"  baseline DRAM traffic: {baseline.dram_traffic_kib:.1f} KiB")
    print()

    # 4. Figure-2 style comparison ---------------------------------------------
    smache_fmax = design.fmax_mhz
    baseline_fmax = synthesize_baseline(design.problem).fmax_mhz
    print("=== Figure-2 style comparison ===")
    header = f"{'':<10}{'cycles':>10}{'Fmax MHz':>10}{'KiB':>8}{'time us':>10}{'MOPS':>10}"
    print(header)
    for name, sim, fmax in (("baseline", baseline, baseline_fmax), ("smache", smache, smache_fmax)):
        print(
            f"{name:<10}{sim.cycles:>10}{fmax:>10.1f}{sim.dram_traffic_kib:>8.1f}"
            f"{sim.execution_time_us(fmax):>10.1f}{sim.mops(fmax):>10.1f}"
        )
    speedup = baseline.execution_time_us(baseline_fmax) / smache.execution_time_us(smache_fmax)
    print(f"\nsimulated speed-up: {speedup:.2f}x "
          f"(the paper reports ~3x for 100 iterations)")


if __name__ == "__main__":
    main()
