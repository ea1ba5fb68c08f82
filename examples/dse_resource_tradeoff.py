#!/usr/bin/env python
"""Design-space exploration: trading registers against BRAM bits.

Section IV of the paper demonstrates the value of the hybrid stream buffer on
a 1-million-element grid: the register-only mapping (Case-R) needs ~66K
registers, while the hybrid mapping (Case-H) needs only ~1.5K registers at the
price of more BRAM bits.  This example runs that exploration with the DSE
module:

1. sweep the register/BRAM split of the stream buffer for a 1024x1024 grid,
2. print the Pareto front of the sweep,
3. pick the best mapping under two different scarcity assumptions
   (register-scarce vs BRAM-scarce),
4. check which mappings fit a small edge-class device once the kernel's own
   resource budget is reserved,
5. run a whole-problem performance sweep through the pipeline: the full
   candidate space is priced with the closed-form `analytic` backend and only
   the cycles/memory Pareto front is re-run cycle-accurately (sharded over
   two worker processes via `jobs=2`), and
6. run the same exploration as a *declarative campaign* through the sweep
   engine: describe the space once, execute it on a process pool with a
   resumable JSONL checkpoint, and re-run to show that completed points are
   loaded instead of re-evaluated.

Run with:  python examples/dse_resource_tradeoff.py
"""

import os
import tempfile
from dataclasses import replace

from repro.api import Workbench
from repro.core.partition import StreamBufferMode
from repro.dse import (
    explore_partitions,
    minimise_bram_bits,
    minimise_registers,
    select_best,
)
from repro.dse.explorer import pareto_front
from repro.fpga.device import small_device, stratix_v
from repro.fpga.resources import ResourceUsage
from repro.pipeline import StencilProblem, compile

GRID = (1024, 1024)


def main() -> None:
    problem = StencilProblem.paper_example(*GRID)
    device = stratix_v()
    # Assume the surrounding computation kernel and shell already consume a
    # slice of the device; the front-end has to fit in what is left.
    reserved = ResourceUsage(alms=40_000, registers=150_000, bram_bits=10_000_000)

    print(f"=== sweep: register/BRAM split of the stream buffer ({GRID[0]}x{GRID[1]}) ===")
    points = explore_partitions(problem, device=device, steps=8, reserved=reserved)
    header = f"{'mapping':<34}{'Rtotal bits':>14}{'Btotal bits':>14}{'Fmax MHz':>10}{'fits':>6}"
    print(header)
    for p in points:
        print(
            f"{p.label:<34}{p.design.cost.r_total_bits:>14}{p.design.cost.b_total_bits:>14}"
            f"{p.design.synthesis.fmax_mhz:>10.1f}{str(p.fits):>6}"
        )
    # Registers only grow and BRAM bits only shrink along the sweep, and each
    # point is exactly what compile() makes of its problem.
    r_bits = [p.design.cost.r_total_bits for p in points]
    b_bits = [p.design.cost.b_total_bits for p in points]
    assert r_bits == sorted(r_bits) and b_bits == sorted(b_bits, reverse=True)
    assert all(p.design.synthesis == compile(p.design.problem).synthesis for p in points)

    print("\n=== Pareto front (register bits vs BRAM bits) ===")
    for p in pareto_front(points):
        print(f"  {p.label:<34} R={p.design.cost.r_total_bits:<8} B={p.design.cost.b_total_bits}")

    print("\n=== best mapping under different scarcity assumptions ===")
    register_scarce = select_best(points, minimise_registers)
    bram_scarce = select_best(points, minimise_bram_bits)
    assert register_scarce.fits and bram_scarce.fits
    print(f"  register-scarce design -> {register_scarce.label} "
          f"(R={register_scarce.design.cost.r_total_bits}, "
          f"B={register_scarce.design.cost.b_total_bits})")
    print(f"  BRAM-scarce design     -> {bram_scarce.label} "
          f"(R={bram_scarce.design.cost.r_total_bits}, B={bram_scarce.design.cost.b_total_bits})")

    print("\n=== feasibility on a small edge-class device ===")
    edge = small_device()
    edge_points = explore_partitions(problem, device=edge, steps=8)
    feasible = [p for p in edge_points if p.fits]
    print(f"  {len(feasible)}/{len(edge_points)} mappings fit {edge.name}")
    best_edge = select_best(edge_points, minimise_bram_bits)
    assert best_edge is None or best_edge.fits
    assert all(p.design.synthesis == compile(p.design.problem).synthesis for p in edge_points)
    if best_edge is None:
        print("  no mapping fits; the problem needs a larger device or tiling")
    else:
        util = edge.utilisation(best_edge.design.synthesis.usage)
        print(f"  chosen mapping: {best_edge.label}")
        print(f"  utilisation   : {util['registers']:.1%} registers, "
              f"{util['bram_bits']:.1%} BRAM, {util['alms']:.1%} ALMs")

    print("\n=== whole-problem performance sweep (analytic + Pareto re-simulation) ===")
    base = StencilProblem.paper_example(48, 48)
    candidates = [
        replace(
            base,
            max_stream_reach=reach,
            name=f"48x48-reach<={reach}" if reach is not None else "48x48-unconstrained",
        )
        for reach in (8, 16, 32, 48, 96, None)
    ]
    workbench = Workbench(jobs=2)
    sweep = workbench.explore(candidates, iterations=3)
    print(sweep.format())
    print(f"\n  {len(sweep.points)} candidates priced analytically, "
          f"{sweep.simulated_count} re-simulated (the Pareto front)")
    print(f"  selected: {sweep.selected.label} "
          f"({sweep.selected.cycles} cycles, {sweep.selected.total_bits} bits on chip)")

    print("\n=== declarative campaign: spec -> run -> resume -> report ===")
    checkpoint = os.path.join(tempfile.mkdtemp(prefix="smache-campaign-"), "tradeoff.jsonl")

    def tradeoff_campaign():
        # Successive halving prices all 18 points analytically and
        # re-simulates only the best half; two worker processes share the
        # load.  (`python -m repro.sweep follow <checkpoint>` can tail this
        # from another terminal.)
        return (
            workbench.problem(StencilProblem.paper_example(48, 48))
            .sweep(
                "tradeoff",
                grid_sizes=[(24, 24), (48, 48), (96, 96)],
                max_stream_reaches=[8, 32, None],
                modes=[StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY],
                iterations=3,
            )
            .strategy("halving", eta=2)
            .checkpoint(checkpoint)
            .run()
        )

    campaign = tradeoff_campaign()
    print(campaign.format(max_rows=12))
    resumed = tradeoff_campaign()
    print(f"\n  re-run from {checkpoint}: {resumed.evaluated} evaluated, "
          f"{resumed.resumed} resumed from checkpoint (no point ran twice)")
    print(f"  regression check vs first run: {campaign.diff(resumed).format()}")


if __name__ == "__main__":
    main()
