"""The compilation pipeline: one spec, one compile step, pluggable backends.

Historically every consumer of this reproduction (the eval harness, the DSE
explorer, the examples, the benchmarks) hand-wired its own
``grid -> plan -> partition -> system -> run`` sequence and paid full
cycle-accurate simulation even for broad sweeps.  This package replaces that
with a single shared pipeline:

* :class:`StencilProblem` — the complete, hashable description of one stencil
  workload (grid, stencil, boundary, iteration pattern, kernel, architecture
  knobs);
* :func:`compile` — runs range partitioning, the buffer planner, the hybrid
  register/BRAM partition and the cost/synthesis models exactly once and
  memoizes the resulting :class:`CompiledDesign` in a keyed plan cache;
* a registry of :class:`Backend` implementations that evaluate a compiled
  design at different fidelities:

  ========== =====================================================
  backend    what it does
  ========== =====================================================
  simulate   cycle-accurate simulation (``repro.arch.system``)
  reference  NumPy golden execution (``repro.reference``)
  analytic   closed-form cycles/traffic/ops prediction, no clock
  cost       memory cost estimate + synthesis report only
  hdl        Verilog skeleton generation (``repro.hdlgen``)
  ========== =====================================================

* :func:`evaluate` / :func:`batch_evaluate` — the facade used by the eval
  harness, the DSE sweeps and the examples.  Broad sweeps run ``analytic``
  over the full space and re-``simulate`` only the Pareto front, which is how
  the fast path stays honest against the slow one (see
  :func:`repro.pipeline.analytic.validate_prediction`).
"""

from repro.pipeline.problem import StencilProblem
from repro.pipeline.cache import CacheInfo, PlanCache, plan_cache, clear_plan_cache
from repro.pipeline.compile import (
    CompiledDesign,
    UnsupportedPatternError,
    compile,
    compile_batch,
)
from repro.pipeline.analytic import (
    ANALYTIC_TOLERANCE,
    PerformancePrediction,
    ReferenceBand,
    ValidationReport,
    predict_performance,
    validate_prediction,
)
from repro.pipeline.analytic_batch import AnalyticBatchEngine
from repro.pipeline.backends import (
    Backend,
    EvaluationRequest,
    EvaluationResult,
    available_backends,
    batch_evaluate,
    evaluate,
    get_backend,
    register_backend,
)

__all__ = [
    "StencilProblem",
    "CacheInfo",
    "PlanCache",
    "plan_cache",
    "clear_plan_cache",
    "CompiledDesign",
    "compile",
    "compile_batch",
    "UnsupportedPatternError",
    "AnalyticBatchEngine",
    "ANALYTIC_TOLERANCE",
    "PerformancePrediction",
    "ReferenceBand",
    "ValidationReport",
    "predict_performance",
    "validate_prediction",
    "Backend",
    "EvaluationRequest",
    "EvaluationResult",
    "available_backends",
    "batch_evaluate",
    "evaluate",
    "get_backend",
    "register_backend",
]
