#!/usr/bin/env python
"""Arbitrary stencil shapes and boundary conditions.

The point of Smache (and of this library) is that the stencil does *not* have
to be the friendly 4-point cross: any finite set of offsets, with any mix of
boundary rules per edge, gets a buffer plan and a working cycle-accurate
datapath.  This example exercises three progressively nastier cases:

* an asymmetric stencil reaching 3 rows down and 2 columns right,
* a high-order star stencil (radius 2) with mirrored boundaries,
* a stencil with an extreme "far tap" — an offset many rows away, which is
  exactly the kind of access that forces a static buffer.

Each case is planned, costed, simulated and validated against the NumPy
reference.

Run with:  python examples/arbitrary_stencil.py
"""

import numpy as np

from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, compile, evaluate

ITERATIONS = 3


def show_case(name: str, problem: StencilProblem) -> None:
    """Compile one stencil case, then validate all three backends against
    each other: reference output vs simulation, analytic cycles vs simulated."""
    print(f"=== {name} ===")
    design = compile(problem)
    print(design.describe())

    reference = evaluate(design, backend="reference", iterations=ITERATIONS,
                         input_kind="random")
    sim = evaluate(design, backend="simulate", iterations=ITERATIONS, input_kind="random")
    predicted = evaluate(design, backend="analytic", iterations=ITERATIONS)
    ok = np.allclose(sim.output, reference.output)
    err = (predicted.cycles - sim.cycles) / sim.cycles
    print(f"  simulation      : {sim.cycles} cycles, matches reference: {ok}")
    print(f"  analytic        : {predicted.cycles} cycles predicted ({err:+.2%})")
    assert ok, f"case '{name}' diverged from the reference"
    print()


def main() -> None:
    # Case 1: asymmetric stencil, circular rows / open columns.
    show_case(
        "asymmetric stencil (centre, north, 2 east, 3 south-west)",
        StencilProblem(
            grid=GridSpec(shape=(20, 24), word_bytes=4),
            stencil=StencilShape.asymmetric_2d(),
            boundary=BoundarySpec.paper_2d(),
            name="asymmetric",
        ),
    )

    # Case 2: radius-2 star stencil with mirrored boundaries everywhere.
    show_case(
        "radius-2 star stencil, mirrored boundaries",
        StencilProblem(
            grid=GridSpec(shape=(24, 24), word_bytes=4),
            stencil=StencilShape.star_2d(radius=2),
            boundary=BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.MIRROR]),
            name="star-mirror",
        ),
    )

    # Case 3: a far tap many rows away — only a static buffer can serve it
    # without a huge window.
    far_tap = StencilShape.from_offsets(
        [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (15, 0)], name="far-tap"
    )
    show_case(
        "far-tap stencil (a dependency 15 rows ahead), constant-padded edges",
        StencilProblem(
            grid=GridSpec(shape=(18, 32), word_bytes=4),
            stencil=far_tap,
            boundary=BoundarySpec(
                edges=(
                    EdgeBehaviour.both(BoundaryKind.CIRCULAR),
                    EdgeBehaviour.both(BoundaryKind.CONSTANT),
                ),
                constant_value=0.5,
            ),
            name="far-tap",
        ),
    )


if __name__ == "__main__":
    main()
