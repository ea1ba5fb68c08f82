"""Verilog skeleton generation from a compiled design.

Everything the generator needs is already computed by
:func:`repro.pipeline.compile`: the window geometry, the tap positions, the
static-buffer regions and the register/BRAM partition.  The generator's
job is purely mechanical — turn those numbers into parameter declarations
and structural Verilog — which is exactly why the paper argues the flow can
be automated.

The output is deliberately plain Verilog-2001 (no generate-time scripting in
the emitted code) so that every number remains visible and auditable against
the plan it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from repro.pipeline.compile import CompiledDesign


def _header_comment(design: "CompiledDesign", title: str) -> str:
    problem = design.problem
    return (
        f"// {title}\n"
        f"// Generated by repro.hdlgen from StencilProblem '{problem.name}'\n"
        f"// grid      : {problem.grid.describe()}\n"
        f"// stencil   : {problem.stencil}\n"
        f"// boundaries: {problem.boundary.describe()}\n"
        f"// mapping   : {design.partition.mode.value} stream buffer\n"
    )


def generate_parameter_header(design: "CompiledDesign") -> str:
    """Emit the ``smache_params.vh`` header for one problem instance.

    The header is the *parameter layer* of the paper's two-level
    customisation: regenerating it (and only it) retargets a fixed Smache
    structure to a new grid size or stencil with the same shape class.
    """
    plan, partition, grid = design.plan, design.partition, design.problem.grid
    taps = sorted(o for o in plan.lookup_offsets() if o != 0)

    lines: List[str] = [_header_comment(design, "Smache parameter header")]
    lines.append("`ifndef SMACHE_PARAMS_VH")
    lines.append("`define SMACHE_PARAMS_VH")
    lines.append("")
    lines.append(f"localparam SMACHE_WORD_BITS       = {plan.stream.word_bits};")
    lines.append(f"localparam SMACHE_GRID_POINTS     = {grid.size};")
    lines.append(f"localparam SMACHE_GRID_COLS       = {grid.shape[-1]};")
    lines.append(f"localparam SMACHE_WINDOW_DEPTH    = {plan.stream.depth};")
    lines.append(f"localparam SMACHE_WINDOW_LO       = {plan.stream.window_lo};")
    lines.append(f"localparam SMACHE_WINDOW_HI       = {plan.stream.window_hi};")
    lines.append(f"localparam SMACHE_WINDOW_REACH    = {plan.stream.reach};")
    lines.append(f"localparam SMACHE_N_TAPS          = {len(taps)};")
    lines.append(f"localparam SMACHE_REG_SLOTS       = {partition.register_elements};")
    lines.append(f"localparam SMACHE_BRAM_SLOTS      = {partition.bram_elements};")
    lines.append(f"localparam SMACHE_N_STATIC_BUFS   = {plan.n_static_buffers};")
    lines.append("")
    for i, offset in enumerate(taps):
        # tap position measured from the newest window element
        position = plan.stream.window_hi - offset
        lines.append(f"localparam SMACHE_TAP{i}_OFFSET   = {offset};")
        lines.append(f"localparam SMACHE_TAP{i}_POSITION = {position};")
    lines.append("")
    for i, static in enumerate(plan.statics):
        lines.append(f"// static buffer {i}: '{static.name}', serves offsets "
                     f"{list(static.serves_offsets)}")
        lines.append(f"localparam SMACHE_SB{i}_BASE      = {static.start};")
        lines.append(f"localparam SMACHE_SB{i}_LENGTH    = {static.length};")
        lines.append(f"localparam SMACHE_SB{i}_DOUBLE    = {1 if static.double_buffered else 0};")
    lines.append("")
    lines.append("`endif // SMACHE_PARAMS_VH")
    return "\n".join(lines) + "\n"


def _static_buffer_block(index: int) -> str:
    """One static buffer instance: two banks, write-through port, bank select."""
    return f"""
  // ------------------------------------------------------------------- //
  // static buffer {index} (double buffered, write-through from the kernel)
  // ------------------------------------------------------------------- //
  reg  [SMACHE_WORD_BITS-1:0] sb{index}_bank0 [0:SMACHE_SB{index}_LENGTH-1];
  reg  [SMACHE_WORD_BITS-1:0] sb{index}_bank1 [0:SMACHE_SB{index}_LENGTH-1];
  reg                         sb{index}_read_bank;
  wire [SMACHE_WORD_BITS-1:0] sb{index}_rdata;
  wire                        sb{index}_covers_result =
      (result_index >= SMACHE_SB{index}_BASE) &&
      (result_index <  SMACHE_SB{index}_BASE + SMACHE_SB{index}_LENGTH);

  assign sb{index}_rdata = sb{index}_read_bank
      ? sb{index}_bank1[sb{index}_addr]
      : sb{index}_bank0[sb{index}_addr];

  always @(posedge clk) begin : sb{index}_write_through  // FSM-3 datapath
    if (result_valid && sb{index}_covers_result) begin
      if (sb{index}_read_bank)
        sb{index}_bank0[result_index - SMACHE_SB{index}_BASE] <= result_data;
      else
        sb{index}_bank1[result_index - SMACHE_SB{index}_BASE] <= result_data;
    end
    if (work_instance_done)
      sb{index}_read_bank <= ~sb{index}_read_bank;
  end
"""


def generate_smache_module(design: "CompiledDesign", module_name: str = "smache_top") -> str:
    """Emit the structural Verilog skeleton of the Smache front-end."""
    n_statics = design.plan.n_static_buffers

    static_blocks = "".join(_static_buffer_block(i) for i in range(n_statics))
    static_addr_decls = "\n".join(
        f"  wire [31:0] sb{i}_addr;" for i in range(n_statics)
    ) or "  // (no static buffers required by the plan)"

    return f"""{_header_comment(design, f"Smache top-level skeleton '{module_name}'")}
`include "smache_params.vh"

module {module_name} (
  input  wire                         clk,
  input  wire                         rst_n,
  // AXI4-Stream style input from the DRAM read master
  input  wire [SMACHE_WORD_BITS-1:0]  s_axis_tdata,
  input  wire                         s_axis_tvalid,
  output wire                         s_axis_tready,
  // warm-up prefetch stream for the static buffers (FSM-1)
  input  wire [SMACHE_WORD_BITS-1:0]  prefetch_tdata,
  input  wire                         prefetch_tvalid,
  output wire                         prefetch_tready,
  // stencil tuple towards the computation kernel (FSM-2)
  output wire [SMACHE_N_TAPS*SMACHE_WORD_BITS-1:0] tuple_data,
  output wire [31:0]                  tuple_index,
  output wire                         tuple_valid,
  input  wire                         tuple_ready,
  // kernel results, fed back for write-through (FSM-3) and to the writer
  input  wire [SMACHE_WORD_BITS-1:0]  result_data,
  input  wire [31:0]                  result_index,
  input  wire                         result_valid,
  // work-instance sequencing
  input  wire                         work_instance_start,
  input  wire                         work_instance_done
);

  // ------------------------------------------------------------------- //
  // stream (window) buffer: SMACHE_REG_SLOTS register slots holding the
  // stencil taps, SMACHE_BRAM_SLOTS slots in shift-through BRAM FIFOs
  // ------------------------------------------------------------------- //
  reg [SMACHE_WORD_BITS-1:0] window_regs [0:SMACHE_REG_SLOTS-1];
  (* ramstyle = "M20K" *)
  reg [SMACHE_WORD_BITS-1:0] window_bram [0:(SMACHE_BRAM_SLOTS>0 ? SMACHE_BRAM_SLOTS-1 : 0)];
  reg [31:0]                 window_head;

  // ------------------------------------------------------------------- //
  // controller state (three concurrent FSMs, as in the paper)
  // ------------------------------------------------------------------- //
  localparam FSM1_IDLE = 2'd0, FSM1_FILL = 2'd1, FSM1_DONE = 2'd2;
  localparam FSM2_IDLE = 2'd0, FSM2_WAIT = 2'd1, FSM2_RUN = 2'd2, FSM2_DONE = 2'd3;
  reg [1:0] fsm1_state;   // prefetch
  reg [1:0] fsm2_state;   // gather / emit
  reg [31:0] received_count;
  reg [31:0] emitted_count;

{static_addr_decls}
{static_blocks}
  // ------------------------------------------------------------------- //
  // FSM-2: accept one stream word per cycle, emit one stencil tuple per
  // cycle once the look-ahead (SMACHE_WINDOW_HI elements) is satisfied.
  // The stall path propagates back through s_axis_tready.
  // ------------------------------------------------------------------- //
  assign s_axis_tready   = (fsm2_state == FSM2_RUN) &&
                           (window_head < emitted_count + SMACHE_WINDOW_HI);
  assign prefetch_tready = (fsm1_state == FSM1_FILL);
  assign tuple_valid     = (fsm2_state == FSM2_RUN) &&
                           (window_head >= emitted_count + SMACHE_WINDOW_HI) &&
                           (emitted_count < SMACHE_GRID_POINTS);
  assign tuple_index     = emitted_count;

  // (tap selection, boundary-case decode and tuple_data assembly are
  //  generated per-instance; see the access table emitted alongside.)

  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      fsm1_state     <= FSM1_IDLE;
      fsm2_state     <= FSM2_IDLE;
      received_count <= 32'd0;
      emitted_count  <= 32'd0;
      window_head    <= 32'hFFFFFFFF;
    end else begin
      if (work_instance_start) begin
        fsm1_state     <= (SMACHE_N_STATIC_BUFS != 0) ? FSM1_FILL : FSM1_DONE;
        fsm2_state     <= (SMACHE_N_STATIC_BUFS != 0) ? FSM2_WAIT : FSM2_RUN;
        received_count <= 32'd0;
        emitted_count  <= 32'd0;
        window_head    <= 32'hFFFFFFFF;
      end
      if (fsm2_state == FSM2_WAIT && fsm1_state == FSM1_DONE)
        fsm2_state <= FSM2_RUN;
      if (s_axis_tvalid && s_axis_tready) begin
        window_head    <= window_head + 32'd1;
        received_count <= received_count + 32'd1;
      end
      if (tuple_valid && tuple_ready)
        emitted_count <= emitted_count + 32'd1;
      if (emitted_count == SMACHE_GRID_POINTS)
        fsm2_state <= FSM2_DONE;
    end
  end

endmodule
"""


def generate_testbench(design: "CompiledDesign", module_name: str = "smache_top") -> str:
    """Emit a self-checking testbench stub driving one work-instance."""
    n = design.problem.grid.size
    expected_reads = n + sum(s.length for s in design.plan.statics)
    return f"""{_header_comment(design, f"Testbench stub for '{module_name}'")}
`timescale 1ns/1ps
`include "smache_params.vh"

module {module_name}_tb;

  reg clk = 1'b0;
  reg rst_n = 1'b0;
  always #5 clk = ~clk;   // 100 MHz

  integer words_streamed = 0;
  integer tuples_seen    = 0;

  // expected per-work-instance totals, derived from the buffer plan
  localparam integer EXPECTED_STREAM_WORDS = {n};
  localparam integer EXPECTED_DRAM_READS   = {expected_reads};
  localparam integer EXPECTED_TUPLES       = {n};

  initial begin
    repeat (4) @(posedge clk);
    rst_n = 1'b1;
    // drive work_instance_start, stream EXPECTED_STREAM_WORDS words in linear
    // order, collect EXPECTED_TUPLES tuples and compare against the golden
    // vectors produced by `python -m repro.eval figure2` / repro.reference.
    $display("smache_tb: expecting %0d stream words, %0d tuples",
             EXPECTED_STREAM_WORDS, EXPECTED_TUPLES);
    #100000;
    $finish;
  end

endmodule
"""


@dataclass(frozen=True)
class GeneratedProject:
    """The set of generated files for one Smache instance."""

    files: Dict[str, str]

    def write_to(self, directory) -> List[str]:
        """Write every file into ``directory``; returns the written paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, content in self.files.items():
            path = directory / name
            path.write_text(content, encoding="utf-8")
            written.append(str(path))
        return written


def generate_project(
    design: "CompiledDesign",
    module_name: str = "smache_top",
) -> GeneratedProject:
    """Generate the complete file set (header, module, testbench) for a design."""
    return GeneratedProject(
        files={
            "smache_params.vh": generate_parameter_header(design),
            f"{module_name}.v": generate_smache_module(design, module_name),
            f"{module_name}_tb.v": generate_testbench(design, module_name),
        }
    )
