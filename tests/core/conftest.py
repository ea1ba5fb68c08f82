"""Shared hypothesis strategies for the repro.core test-suite."""

from hypothesis import strategies as st

from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape


@st.composite
def stencil_cases(draw):
    """A small 1-D/2-D/3-D grid, a stencil for it and per-side boundaries."""
    ndim = draw(st.integers(1, 3))
    max_extent = {1: 40, 2: 12, 3: 6}[ndim]
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    stencils = [StencilShape.moore(ndim), StencilShape.von_neumann(ndim)]
    if ndim == 2:
        stencils += [
            StencilShape.four_point_2d(),
            StencilShape.asymmetric_2d(),
            StencilShape.star_2d(2),
        ]
    kinds = st.sampled_from(list(BoundaryKind))
    boundary = BoundarySpec(
        edges=tuple(EdgeBehaviour(draw(kinds), draw(kinds)) for _ in range(ndim)),
        constant_value=1.5,
    )
    return GridSpec(shape=shape), draw(st.sampled_from(stencils)), boundary
