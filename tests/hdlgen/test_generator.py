"""Tests for repro.hdlgen: automatic generation of the Smache HDL skeleton."""

import re

import pytest

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.hdlgen import (
    generate_parameter_header,
    generate_project,
    generate_smache_module,
    generate_testbench,
)
from repro.pipeline import StencilProblem, compile, evaluate


@pytest.fixture(scope="module")
def paper():
    return compile(StencilProblem.paper_example())


@pytest.fixture(scope="module")
def header(paper):
    return generate_parameter_header(paper)


@pytest.fixture(scope="module")
def module(paper):
    return generate_smache_module(paper)


def get_param(text: str, name: str) -> int:
    match = re.search(rf"localparam(?: integer)? {re.escape(name)}\s*=\s*(-?\d+);", text)
    assert match, f"parameter {name} not found"
    return int(match.group(1))


class TestParameterHeader:
    def test_window_parameters_match_plan(self, paper, header):
        plan = paper.plan
        assert get_param(header, "SMACHE_WINDOW_DEPTH") == plan.stream.depth
        assert get_param(header, "SMACHE_WINDOW_REACH") == 22
        assert get_param(header, "SMACHE_WINDOW_LO") == -11
        assert get_param(header, "SMACHE_WINDOW_HI") == 11
        assert get_param(header, "SMACHE_GRID_POINTS") == 121
        assert get_param(header, "SMACHE_WORD_BITS") == 32

    def test_partition_parameters(self, header):
        assert get_param(header, "SMACHE_REG_SLOTS") == 11
        assert get_param(header, "SMACHE_BRAM_SLOTS") == 14

    def test_register_only_changes_partition_params(self):
        design = compile(StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY))
        text = generate_parameter_header(design)
        assert get_param(text, "SMACHE_REG_SLOTS") == 25
        assert get_param(text, "SMACHE_BRAM_SLOTS") == 0

    def test_static_buffer_parameters(self, header):
        assert get_param(header, "SMACHE_N_STATIC_BUFS") == 2
        assert get_param(header, "SMACHE_SB0_BASE") == 0
        assert get_param(header, "SMACHE_SB0_LENGTH") == 11
        assert get_param(header, "SMACHE_SB1_BASE") == 110
        assert get_param(header, "SMACHE_SB1_DOUBLE") == 1

    def test_tap_positions_listed(self, header):
        assert get_param(header, "SMACHE_N_TAPS") == 4
        # taps are at window positions window_hi - offset
        assert get_param(header, "SMACHE_TAP0_OFFSET") == -11
        assert get_param(header, "SMACHE_TAP0_POSITION") == 22
        assert get_param(header, "SMACHE_TAP3_OFFSET") == 11
        assert get_param(header, "SMACHE_TAP3_POSITION") == 0

    def test_include_guard(self, header):
        assert "`ifndef SMACHE_PARAMS_VH" in header
        assert header.strip().endswith("`endif // SMACHE_PARAMS_VH")

    def test_grid_size_is_parameter_only_change(self):
        """Two grids with the same structure differ only in the header values
        (the two-layer customisation claim)."""
        small = generate_smache_module(compile(StencilProblem.paper_example(11, 11)))
        large = generate_smache_module(compile(StencilProblem.paper_example(201, 301)))
        strip = lambda text: "\n".join(
            line for line in text.splitlines() if not line.startswith("//")
        )
        assert strip(small) == strip(large)

    def test_deterministic_output(self, paper, header):
        assert generate_parameter_header(paper) == header


class TestSmacheModule:
    def test_module_and_endmodule_balanced(self, module):
        assert module.count("module ") - module.count("endmodule") == 0
        assert module.count("endmodule") == 1

    def test_begin_end_balanced(self, module):
        begins = len(re.findall(r"\bbegin\b", module))
        ends = len(re.findall(r"\bend\b(?!module)", module))
        assert begins == ends

    def test_has_axi_style_ports(self, module):
        for port in ("s_axis_tdata", "s_axis_tvalid", "s_axis_tready",
                     "tuple_valid", "tuple_ready", "result_valid"):
            assert port in module

    def test_instantiates_every_static_buffer(self, module):
        assert "sb0_bank0" in module and "sb1_bank0" in module
        assert "sb2_bank0" not in module

    def test_no_static_buffers_case(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(10, 10)),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.all_open(2),
        )
        text = generate_smache_module(compile(problem))
        assert "sb0_bank0" not in text
        assert "no static buffers required" in text

    def test_three_fsms_declared(self, module):
        assert "fsm1_state" in module and "fsm2_state" in module
        assert "FSM-3" in module  # write-through datapath comment

    def test_custom_module_name(self, paper):
        text = generate_smache_module(paper, module_name="my_cache")
        assert "module my_cache (" in text


class TestTestbenchAndProject:
    def test_testbench_expected_totals(self, paper):
        tb = generate_testbench(paper)
        assert "EXPECTED_STREAM_WORDS = 121" in tb
        assert "EXPECTED_DRAM_READS   = 143" in tb  # 121 + 2*11 prefetch
        assert "$finish" in tb

    def test_project_contains_three_files(self, paper):
        project = generate_project(paper)
        assert set(project.files) == {"smache_params.vh", "smache_top.v", "smache_top_tb.v"}

    def test_project_write_to_disk(self, paper, tmp_path):
        project = generate_project(paper)
        written = project.write_to(tmp_path / "hdl")
        assert len(written) == 3
        for path in written:
            assert (tmp_path / "hdl").exists()
            with open(path, encoding="utf-8") as fh:
                assert fh.read().strip()


class TestHdlBackendEmitsTheCompiledDesign:
    """The ``hdl`` backend's header is the compiled plan, word size and bounds included."""

    def header_of(self, problem):
        design = compile(problem)
        project = evaluate(design.problem, backend="hdl").artifacts["project"]
        return design, project.files["smache_params.vh"]

    def test_bounded_narrow_word_problem(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(8, 8)),
            stencil=StencilShape.star_2d(2),
            boundary=BoundarySpec.paper_2d(),
            word_bits=8,
            max_total_bits=879,
        )
        design, header = self.header_of(problem)
        plan = design.plan
        assert (plan.stream.word_bits, plan.stream.window_lo, plan.stream.window_hi) == (8, -16, 16)
        assert plan.n_static_buffers == 2
        assert design.cost.total_bits == plan.total_bits == 792
        assert get_param(header, "SMACHE_WORD_BITS") == plan.stream.word_bits == 8
        assert get_param(header, "SMACHE_WINDOW_LO") == plan.stream.window_lo == -16
        assert get_param(header, "SMACHE_WINDOW_HI") == plan.stream.window_hi == 16
        assert get_param(header, "SMACHE_N_STATIC_BUFS") == plan.n_static_buffers == 2

    def test_word_bits_override_reaches_the_header(self):
        design, header = self.header_of(StencilProblem.paper_example(word_bits=16))
        assert get_param(header, "SMACHE_WORD_BITS") == design.plan.stream.word_bits == 16
        assert design.parameters()["word_bits"] == 16
