"""Pluggable evaluation backends over compiled designs.

A :class:`Backend` turns a :class:`~repro.pipeline.compile.CompiledDesign`
plus an :class:`EvaluationRequest` into an :class:`EvaluationResult`.  All
backends share one result shape so consumers (eval harness, DSE sweeps,
benchmarks) can switch fidelity with a string:

* ``simulate``  — the cycle-accurate systems of :mod:`repro.arch.system`;
* ``reference`` — NumPy golden execution (output values, no timing);
* ``analytic``  — the closed-form model of :mod:`repro.pipeline.analytic`;
* ``cost``      — memory cost estimate and synthesis report only;
* ``hdl``       — the generated Verilog project of :mod:`repro.hdlgen`.

New backends register with :func:`register_backend`; workloads plug in at the
:class:`~repro.pipeline.problem.StencilProblem` seam.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.memory.dram import DRAMTiming
from repro.reference.kernels import StencilKernel
from repro.reference.stencil_exec import make_test_grid, reference_run
from repro.pipeline.cache import PlanCache, plan_cache
from repro.pipeline.compile import CompiledDesign
from repro.pipeline.compile import compile as compile_problem
from repro.pipeline.problem import StencilProblem

#: The two systems an evaluation can target.
SYSTEMS = ("smache", "baseline")


@dataclass(frozen=True)
class EvaluationRequest:
    """What to run a compiled design on (workload, fidelity knobs)."""

    system: str = "smache"
    iterations: int = 1
    kernel: Optional[StencilKernel] = None
    input_grid: Optional[np.ndarray] = field(default=None, compare=False)
    input_kind: str = "ramp"
    dram_timing: Optional[DRAMTiming] = None
    write_through: bool = True
    max_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")

    def resolve_kernel(self, design: CompiledDesign) -> StencilKernel:
        """The kernel to run: the request's override or the problem's own."""
        return self.kernel if self.kernel is not None else design.problem.effective_kernel

    def resolve_input(self, design: CompiledDesign) -> np.ndarray:
        """The input grid: the request's array or a deterministic test grid."""
        if self.input_grid is not None:
            return np.asarray(self.input_grid, dtype=np.float64)
        return make_test_grid(design.problem.grid, kind=self.input_kind)


@dataclass
class EvaluationResult:
    """One backend's verdict on one compiled design.

    Timing fields are ``None`` for backends that do not produce them (the
    ``reference`` backend has no clock; ``cost``/``hdl`` have no workload).
    """

    backend: str
    system: str
    design: CompiledDesign
    iterations: int = 0
    cycles: Optional[int] = None
    dram_words_read: Optional[int] = None
    dram_words_written: Optional[int] = None
    dram_bytes: Optional[int] = None
    operations: Optional[int] = None
    output: Optional[np.ndarray] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Backend-side performance telemetry (e.g. the simulate backend's
    #: scheduler counters: engine mode, ticks executed, cycles skipped).
    #: Deliberately *not* part of ``extra``: campaign records fold ``extra``
    #: into their canonical (byte-identical across engines and runners)
    #: output, while ``perf`` lands in the non-deterministic ``meta`` side.
    perf: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)

    @property
    def dram_traffic_kib(self) -> Optional[float]:
        """Total DRAM traffic in KiB (``None`` for workload-free backends)."""
        return self.dram_bytes / 1024.0 if self.dram_bytes is not None else None

    def execution_time_us(self, frequency_mhz: Optional[float] = None) -> float:
        """Execution time in microseconds (defaults to the design's Fmax)."""
        if self.cycles is None:
            raise ValueError(f"backend {self.backend!r} produced no cycle count")
        if frequency_mhz is not None:
            fmax, source = frequency_mhz, "frequency_mhz"
        else:
            fmax, source = self.design.fmax_mhz, "the design's estimated Fmax"
        if not fmax > 0:  # also rejects NaN, instead of a ZeroDivisionError below
            raise ValueError(f"{source} must be positive, got {fmax!r}")
        return self.cycles / fmax

    def mops(self, frequency_mhz: Optional[float] = None) -> float:
        """Millions of kernel operations per second."""
        time_us = self.execution_time_us(frequency_mhz)
        if not time_us or self.operations is None:
            return 0.0
        return self.operations / time_us


#: The calls every backend consumer makes: method, how it is called, and
#: placeholder positional / keyword arguments to bind against its signature.
_CONTRACT_CALLS: Tuple[Tuple[str, str, Tuple[None, ...], Dict[str, bool]], ...] = (
    ("evaluate", "evaluate(design, request)", (None, None), {}),
    (
        "evaluate_many",
        "evaluate_many(items, with_artifacts=...)",
        (None,),
        {"with_artifacts": True},
    ),
)


class Backend:
    """Base class: evaluate a compiled design under a request.

    Every consumer — the runners, the batch evaluator, the fault injector,
    the serving layer — calls ``evaluate(design, request)`` and
    ``evaluate_many(items, with_artifacts=...)``, so each subclass is held
    to that contract when its class statement runs: ``evaluate`` must be
    implemented below this root and both methods must accept those calls.
    A violation raises :class:`TypeError` naming the class and the rule.
    """

    #: Registry name; subclasses must override (checked by :func:`get_backend`).
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.evaluate is Backend.evaluate:
            raise TypeError(
                f"Backend subclass {cls.__name__} never implements evaluate(); "
                "the inherited base raises NotImplementedError"
            )
        for method, call, args, keywords in _CONTRACT_CALLS:
            try:
                inspect.signature(getattr(cls, method)).bind(None, *args, **keywords)
            except TypeError as exc:
                raise TypeError(
                    f"Backend subclass {cls.__name__}: {method} must be callable "
                    f"as {call} ({exc})"
                ) from None

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        """Produce an :class:`EvaluationResult` (must be overridden)."""
        raise NotImplementedError

    def evaluate_many(
        self,
        items: Sequence[Tuple[CompiledDesign, EvaluationRequest]],
        with_artifacts: bool = True,
    ) -> List[EvaluationResult]:
        """Evaluate many (design, request) pairs, in input order.

        The default is the obvious loop over :meth:`evaluate`; backends with
        a real batch substrate override it (:class:`AnalyticBackend` routes
        through the vectorized engine of
        :mod:`repro.pipeline.analytic_batch`).  ``with_artifacts=False``
        permits skipping heavyweight per-point artifacts that the caller
        would strip anyway.
        """
        results = []
        for design, request in items:
            result = self.evaluate(design, request)
            if not with_artifacts and result.artifacts:
                result = replace(result, artifacts={})
            results.append(result)
        return results


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register (or replace) a backend under ``name``."""
    _BACKENDS[name] = factory
    _INSTANCES.pop(name, None)


def get_backend(name: str) -> Backend:
    """Look up a backend instance by name.

    The first lookup builds the instance and checks that its ``name`` is the
    key it was registered under (a :class:`TypeError` otherwise).
    """
    if name not in _BACKENDS:
        raise KeyError(f"unknown backend {name!r}; choose from {available_backends()}")
    if name not in _INSTANCES:
        instance = _BACKENDS[name]()
        if instance.name != name:
            raise TypeError(
                f"backend registered as {name!r} reports name {instance.name!r}; "
                "results and records would be attributed to the wrong backend"
            )
        _INSTANCES[name] = instance
    return _INSTANCES[name]


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_BACKENDS)


# --------------------------------------------------------------------------- #
# built-in backends
# --------------------------------------------------------------------------- #
class SimulateBackend(Backend):
    """Cycle-accurate simulation of the Smache or baseline system."""

    name = "simulate"

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        from repro.arch.system import BaselineSystem, SmacheSystem

        grid_in = request.resolve_input(design)
        system: Union[SmacheSystem, BaselineSystem]
        if request.system == "smache":
            system = SmacheSystem(
                design,
                kernel=request.kernel,
                iterations=request.iterations,
                dram_timing=request.dram_timing,
                write_through=request.write_through,
            )
        else:
            system = BaselineSystem(
                design,
                kernel=request.kernel,
                iterations=request.iterations,
                dram_timing=request.dram_timing,
            )
        system.load_input(grid_in)
        sim = system.run(max_cycles=request.max_cycles)
        perf = {f"sim_{key}": value for key, value in sim.engine_stats.items()}
        return EvaluationResult(
            backend=self.name,
            system=request.system,
            design=design,
            iterations=request.iterations,
            cycles=sim.cycles,
            dram_words_read=sim.dram_words_read,
            dram_words_written=sim.dram_words_written,
            dram_bytes=sim.dram_bytes,
            operations=sim.operations,
            output=sim.output,
            extra=dict(sim.extra),
            perf=perf,
            artifacts={"simulation": sim},
        )


class ReferenceBackend(Backend):
    """NumPy golden execution: exact output values, no timing."""

    name = "reference"

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        problem = design.problem
        kernel = request.resolve_kernel(design)
        output = reference_run(
            request.resolve_input(design),
            problem.grid,
            problem.stencil,
            problem.boundary,
            kernel,
            iterations=request.iterations,
        )
        return EvaluationResult(
            backend=self.name,
            system=request.system,
            design=design,
            iterations=request.iterations,
            operations=kernel.ops_per_point * problem.grid.size * request.iterations,
            output=output,
        )


class AnalyticBackend(Backend):
    """Closed-form performance prediction (no clock, no output grid).

    Single evaluations price the model of :mod:`repro.pipeline.analytic`
    with Python ints; batches go through :attr:`engine`, the process-shared
    vectorized pricing engine
    (:class:`repro.pipeline.analytic_batch.AnalyticBatchEngine`), which folds
    the same terms over columns.  Both read the design's knobs from the
    engine's bounded knob cache, which persists across calls.
    """

    name = "analytic"

    def __init__(self) -> None:
        from repro.pipeline.analytic_batch import AnalyticBatchEngine

        #: The shared vectorized pricing engine (bounded signature cache).
        self.engine = AnalyticBatchEngine()

    def evaluate_many(
        self,
        items: Sequence[Tuple[CompiledDesign, EvaluationRequest]],
        with_artifacts: bool = True,
    ) -> List[EvaluationResult]:
        return self.engine.price(items, with_artifacts=with_artifacts)

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        from repro.pipeline.analytic import predict

        prediction = predict(
            request.system,
            self.engine.knobs_for(design, request.system),
            request.iterations,
            request.resolve_kernel(design),
            request.dram_timing,
            request.write_through,
        )
        return EvaluationResult(
            backend=self.name,
            system=request.system,
            design=design,
            iterations=request.iterations,
            cycles=prediction.cycles,
            dram_words_read=prediction.dram_words_read,
            dram_words_written=prediction.dram_words_written,
            dram_bytes=prediction.dram_bytes,
            operations=prediction.operations,
            extra=dict(prediction.detail),
            artifacts={"prediction": prediction},
        )


class CostBackend(Backend):
    """Memory cost estimate and synthesis report, no workload execution.

    Besides the Table-I cost split and the synthesis estimate, the extras
    carry the planner comparison used by the A3 ablation: the elements of the
    chosen plan, of the paper's Algorithm 1 and of a stream-only window wide
    enough for the full offset span.
    """

    name = "cost"

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        from repro.core.planner import paper_algorithm1

        bands = [band for run in design.ranges.runs for band in run.bands]
        offsets = [o for band in bands for o in band.template.stream_offsets]
        stream_only = (max(offsets) - min(offsets)) if offsets else 0
        return EvaluationResult(
            backend=self.name,
            system=request.system,
            design=design,
            extra={
                "r_total_bits": design.cost.r_total_bits,
                "b_total_bits": design.cost.b_total_bits,
                "total_bits": design.cost.total_bits,
                "fmax_mhz": design.synthesis.fmax_mhz,
                "alms": design.synthesis.alms,
                "registers": design.synthesis.registers,
                "bram_bits": design.synthesis.bram_bits,
                "plan_elements": design.plan.total_cost_elements,
                "algorithm1_elements": paper_algorithm1(design.ranges).total_elements,
                "stream_only_elements": stream_only,
            },
            artifacts={"cost": design.cost, "synthesis": design.synthesis},
        )


class HdlBackend(Backend):
    """Verilog skeleton generation for the compiled design."""

    name = "hdl"

    def evaluate(self, design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
        from repro.hdlgen import generate_project

        project = generate_project(design)
        return EvaluationResult(
            backend=self.name,
            system=request.system,
            design=design,
            extra={"n_files": len(project.files)},
            artifacts={"project": project},
        )


for _backend_cls in (SimulateBackend, ReferenceBackend, AnalyticBackend, CostBackend, HdlBackend):
    register_backend(_backend_cls.name, _backend_cls)


# --------------------------------------------------------------------------- #
# facade
# --------------------------------------------------------------------------- #
ProblemLike = Union[StencilProblem, CompiledDesign]


def _as_design(problem: ProblemLike, cache: Optional[PlanCache]) -> CompiledDesign:
    if isinstance(problem, CompiledDesign):
        return problem
    return compile_problem(problem, cache=cache)


def evaluate(
    problem: ProblemLike,
    backend: str = "simulate",
    request: Optional[EvaluationRequest] = None,
    cache: Optional[PlanCache] = plan_cache,
    **request_overrides,
) -> EvaluationResult:
    """Compile (memoized) and evaluate one problem with the named backend.

    ``problem`` may be a :class:`StencilProblem` or an already-compiled
    design.  Request fields are given either as a full
    :class:`EvaluationRequest` or as keyword overrides (``iterations=100``,
    ``system="baseline"``, ...).
    """
    design = _as_design(problem, cache)
    req = request or EvaluationRequest()
    if request_overrides:
        req = replace(req, **request_overrides)
    return get_backend(backend).evaluate(design, req)


def batch_evaluate(
    problems: Sequence[ProblemLike],
    backend: str = "analytic",
    request: Optional[EvaluationRequest] = None,
    cache: Optional[PlanCache] = plan_cache,
    jobs: int = 1,
    engine=None,
    with_artifacts: bool = True,
    **request_overrides,
) -> List[EvaluationResult]:
    """Evaluate many problems with one backend (the sweep batch layer).

    This is the engine behind :meth:`repro.api.Workbench.evaluate_batch`.

    Defaults to the ``analytic`` backend: sweeps price the full space with the
    closed-form model and re-simulate only the designs that matter (see
    :meth:`repro.api.Workbench.explore`).

    Serial analytic batches take the vectorized fast lane: the whole batch is
    compiled through :func:`~repro.pipeline.compile.compile_batch` and priced
    in one :class:`~repro.pipeline.analytic_batch.AnalyticBatchEngine` call —
    bitwise-equal per point to the scalar loop, results in input order (an
    asserted engine invariant).  Because the whole batch shares one request,
    pricing goes through the engine's packed-session cache
    (:meth:`~repro.pipeline.analytic_batch.AnalyticBatchEngine.price_batch`):
    re-pricing the same problem list under new request knobs reuses the
    packed design columns and skips compilation entirely.  ``engine`` selects
    a specific pricing engine (a :class:`~repro.api.Workbench` session passes
    its own so packed columns persist across calls); by default the
    registered backend's shared engine is used.  ``with_artifacts=False``
    skips the per-point :class:`~repro.pipeline.analytic.PerformancePrediction`
    artifact — metrics and ``extra`` are unchanged.

    With ``jobs > 1`` the batch is sharded over a process pool (see
    :mod:`repro.sweep.runners`): each worker compiles with its own warm plan
    cache and evaluation happens fully in the worker, so compilation — the
    expensive part of broad analytic sweeps — parallelises too.  Results come
    back in input order; heavyweight ``artifacts`` (e.g. live simulation
    objects) are dropped in the parallel path, but metrics, outputs and the
    compiled design survive the process boundary.  Worker processes can only
    share the process-global plan cache, so a non-default ``cache`` (a custom
    instance, or ``None`` to bypass caching) keeps the batch on the serial
    path regardless of ``jobs``.
    """
    req = request or EvaluationRequest()
    if request_overrides:
        req = replace(req, **request_overrides)
    if jobs <= 1 or cache is not plan_cache:
        backend_obj = get_backend(backend)
        # A stand-in or subclass registered as ``analytic`` may override
        # ``evaluate``; the lane would silently bypass it, so require the
        # exact class.
        if len(problems) > 1 and type(backend_obj) is AnalyticBackend:
            pricing = engine if engine is not None else backend_obj.engine
            results = pricing.price_batch(
                list(problems), req, cache=cache, with_artifacts=with_artifacts
            )
            # The engine's input-order invariant, re-checked at the facade:
            # result i must answer problem i even after signature regrouping.
            assert len(results) == len(problems), (
                "batch pricing results misaligned with input order"
            )
            return results
        results = [evaluate(p, backend=backend, request=req, cache=cache) for p in problems]
        if not with_artifacts:
            results = [
                replace(r, artifacts={}) if r.artifacts else r for r in results
            ]
        return results
    from repro.sweep.runners import ProcessPoolRunner
    from repro.sweep.spec import SweepPoint

    points = []
    for p in problems:
        if isinstance(p, CompiledDesign):
            p = p.problem
        points.append(SweepPoint(problem=p, backend=backend, request=req))
    runner = ProcessPoolRunner(jobs=jobs)
    records = runner.run(points, keep_results=True)
    return [r.result for r in records]

