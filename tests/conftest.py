"""Shared fixtures for the test-suite."""

import numpy as np
import pytest

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.pipeline import CompiledDesign, StencilProblem, compile
from repro.reference.kernels import AveragingKernel


@pytest.fixture
def paper_problem() -> StencilProblem:
    """The paper's 11x11 validation problem."""
    return StencilProblem.paper_example()


@pytest.fixture
def paper_design(paper_problem) -> CompiledDesign:
    """The paper's 11x11 validation problem, compiled."""
    return compile(paper_problem)


@pytest.fixture
def small_problem() -> StencilProblem:
    """A smaller 7x9 variant of the paper's problem (faster sims)."""
    return StencilProblem.paper_example(rows=7, cols=9)


@pytest.fixture
def small_design(small_problem) -> CompiledDesign:
    """The 7x9 variant, compiled."""
    return compile(small_problem)


@pytest.fixture
def grid_11x11() -> GridSpec:
    """An 11x11 grid of 4-byte words."""
    return GridSpec(shape=(11, 11), word_bytes=4)


@pytest.fixture
def four_point() -> StencilShape:
    """The paper's 4-point stencil."""
    return StencilShape.four_point_2d()


@pytest.fixture
def paper_boundary() -> BoundarySpec:
    """Circular top/bottom, open left/right."""
    return BoundarySpec.paper_2d()


@pytest.fixture
def averaging_kernel() -> AveragingKernel:
    """The 4-point averaging filter."""
    return AveragingKernel()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)
