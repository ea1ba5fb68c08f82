#!/usr/bin/env python
"""Automatic generation of a Smache HDL skeleton (the paper's future work).

The paper's stated key future work is to "completely automate the creation of
the Smache architecture given a problem with a particular stencil shape and
boundary conditions".  The `repro.hdlgen` package does exactly that for this
reproduction: from a compiled design (`compile(problem)`, which plans the
buffers once) it emits

* `smache_params.vh` — the parameter layer (window geometry, tap positions,
  static-buffer regions, register/BRAM split),
* `smache_top.v`     — a structural Verilog skeleton of the front-end
  (window buffer, double-buffered static buffers, the three controller FSMs),
* `smache_top_tb.v`  — a testbench stub with the expected per-instance totals.

This example generates the files for two different problems into ./generated/
and shows that only the parameter header changes between structurally
compatible problems (the two-level customisation of Section III).

Run with:  python examples/generate_hdl.py
"""

from pathlib import Path

from repro.pipeline import StencilProblem, evaluate

OUTPUT_DIR = Path(__file__).resolve().parent / "generated"


def strip_comments(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("//"))


def generate_project(problem: StencilProblem):
    """Generate the Verilog project through the pipeline's ``hdl`` backend."""
    return evaluate(problem, backend="hdl").artifacts["project"]


def main() -> None:
    # problem 1: the paper's validation case
    paper = StencilProblem.paper_example(11, 11)
    # problem 2: the same stencil/boundary structure on a much larger grid
    large = StencilProblem.paper_example(1024, 1024)

    for problem, subdir in ((paper, "paper_11x11"), (large, "large_1024x1024")):
        project = generate_project(problem)
        written = project.write_to(OUTPUT_DIR / subdir)
        print(f"=== {problem.name} ===")
        for path in written:
            print(f"  wrote {path}")
        header = project.files["smache_params.vh"]
        interesting = [
            line for line in header.splitlines()
            if any(key in line for key in ("WINDOW_DEPTH", "REG_SLOTS", "BRAM_SLOTS",
                                           "N_STATIC_BUFS", "SB0_BASE", "SB1_BASE"))
        ]
        print("\n".join("  " + line for line in interesting))
        print()

    # the structural layer (the module body) is identical for both problems:
    module_paper = generate_project(paper).files["smache_top.v"]
    module_large = generate_project(large).files["smache_top.v"]
    same_structure = strip_comments(module_paper) == strip_comments(module_large)
    print(f"structural Verilog identical across the two problems: {same_structure}")
    print("(only the generated parameter header differs — the paper's two-level customisation)")


if __name__ == "__main__":
    main()
