"""The :class:`Workbench`: one session object for the whole experiment API.

Historically "run an experiment" was spread over five surfaces —
``compile()``, ``evaluate()``, ``batch_evaluate(jobs=)``, ``execute_campaign()``
and the ``dse`` explorer — each carrying its own cache, backend and
parallelism arguments.  The Workbench unifies them: construct one per
session, and it owns

* the **plan cache** every compilation goes through,
* the **runner policy** (default ``jobs``/chunking for batch and campaign
  work),
* the **default backend** for single evaluations and sweeps, and
* the session's **observers**, attached to every campaign's event stream
  (see :mod:`repro.sweep.events`).

The fluent builders lower onto the exact same primitives as the legacy entry
points (:class:`~repro.pipeline.problem.StencilProblem`,
:class:`~repro.sweep.spec.SweepSpec`, the event-streaming campaign engine),
so a Workbench campaign is byte-identical to an ``execute_campaign`` call
on the same space::

    from repro.api import Workbench

    wb = Workbench(jobs=4)
    result = (
        wb.problem(rows=11, cols=11)
        .sweep(grid_sizes=[(11, 11), (24, 24)], max_stream_reaches=[0, 4, None])
        .checkpoint("reach-study.jsonl")
        .with_progress()
        .run()
    )
    print(result.format())
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

from repro.core.boundary import BoundarySpec
from repro.faults.policy import RetryPolicy
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import (
    EvaluationRequest,
    EvaluationResult,
    available_backends,
    batch_evaluate,
    evaluate as _evaluate,
)
from repro.pipeline.cache import CacheInfo, PlanCache, plan_cache
from repro.pipeline.compile import CompiledDesign, compile_batch, compile as compile_problem
from repro.pipeline.problem import StencilProblem
from repro.reference.kernels import StencilKernel
from repro.sweep.campaign import CampaignResult, execute_campaign
from repro.sweep.checkpoint import CampaignCheckpoint
from repro.sweep.eventlog import EventLogObserver
from repro.sweep.events import ProgressReporter
from repro.sweep.runners import Runner, make_runner
from repro.sweep.spec import SweepSpec
from repro.sweep.strategies import SearchStrategy, get_strategy

if TYPE_CHECKING:
    from repro.dse.explorer import PerformanceObjective, PerformanceSweep


class ProblemBuilder:
    """Immutable fluent builder over a :class:`StencilProblem`.

    Every ``with_*`` step returns a new builder, so partially configured
    builders can be forked.  Terminal steps: :meth:`build` (the problem),
    :meth:`compile` / :meth:`evaluate` (one-shot work through the session),
    and :meth:`sweep` (a campaign over axes anchored at this problem).
    """

    def __init__(self, workbench: "Workbench", problem: StencilProblem) -> None:
        self._workbench = workbench
        self._problem = problem

    def _with(self, **changes) -> "ProblemBuilder":
        return ProblemBuilder(self._workbench, replace(self._problem, **changes))

    # ------------------------------------------------------------------ #
    # fluent configuration
    # ------------------------------------------------------------------ #
    def with_stencil(self, stencil: StencilShape) -> "ProblemBuilder":
        """Use this stencil shape."""
        return self._with(stencil=stencil)

    def with_kernel(self, kernel: StencilKernel) -> "ProblemBuilder":
        """Use this computation kernel."""
        return self._with(kernel=kernel)

    def with_boundary(self, boundary: BoundarySpec) -> "ProblemBuilder":
        """Use this boundary specification."""
        return self._with(boundary=boundary)

    def with_mode(self, mode: StreamBufferMode) -> "ProblemBuilder":
        """Use this stream-buffer partitioning mode."""
        return self._with(mode=mode)

    def with_grid(self, shape: Sequence[int], word_bytes: Optional[int] = None) -> "ProblemBuilder":
        """Resize the grid (same word size unless overridden)."""
        grid = self._problem.grid
        return self._with(
            grid=type(grid)(
                shape=tuple(int(s) for s in shape),
                word_bytes=word_bytes if word_bytes is not None else grid.word_bytes,
            )
        )

    def with_reach(self, max_stream_reach: Optional[int]) -> "ProblemBuilder":
        """Constrain the stream buffer's maximum reach (None = unconstrained)."""
        return self._with(max_stream_reach=max_stream_reach)

    def with_budget(self, max_total_bits: Optional[int]) -> "ProblemBuilder":
        """Constrain the total on-chip memory budget."""
        return self._with(max_total_bits=max_total_bits)

    def named(self, name: str) -> "ProblemBuilder":
        """Set the problem's report name."""
        return self._with(name=name)

    # ------------------------------------------------------------------ #
    # terminals
    # ------------------------------------------------------------------ #
    def build(self) -> StencilProblem:
        """The configured problem."""
        return self._problem

    def compile(self) -> CompiledDesign:
        """Compile through the session's plan cache."""
        return self._workbench.compile(self._problem)

    def evaluate(self, backend: Optional[str] = None, **request_overrides) -> EvaluationResult:
        """Compile and evaluate with the session's default backend."""
        return self._workbench.evaluate(self._problem, backend=backend, **request_overrides)

    def sweep(
        self,
        name: Optional[str] = None,
        *,
        grid_sizes: Optional[Sequence[Sequence[int]]] = None,
        stencils: Optional[Sequence[StencilShape]] = None,
        modes: Optional[Sequence[StreamBufferMode]] = None,
        max_stream_reaches: Optional[Sequence[Optional[int]]] = None,
        backends: Optional[Sequence[str]] = None,
        systems: Optional[Sequence[str]] = None,
        iterations: int = 1,
        dram_timing=None,
        write_through: bool = True,
    ) -> "SweepBuilder":
        """Open a campaign over axes anchored at this problem.

        Axes default to "keep the problem's value"; every supplied axis
        multiplies the space — the exact semantics of
        :class:`~repro.sweep.spec.SweepSpec`, which this lowers to.
        """
        spec = SweepSpec(
            name=name if name is not None else self._problem.name,
            base=self._problem,
            grid_sizes=tuple(tuple(g) for g in grid_sizes) if grid_sizes else None,
            stencils=tuple(stencils) if stencils else None,
            modes=tuple(modes) if modes else None,
            max_stream_reaches=(
                tuple(max_stream_reaches) if max_stream_reaches is not None else None
            ),
            backends=tuple(backends) if backends else (self._workbench.default_backend,),
            systems=tuple(systems) if systems else ("smache",),
            iterations=iterations,
            dram_timing=dram_timing,
            write_through=write_through,
        )
        return SweepBuilder(self._workbench, spec)


class SweepBuilder:
    """Fluent campaign configuration over a lowered :class:`SweepSpec`.

    Execution knobs (jobs, checkpoint, strategy, observers) accumulate on
    the builder; :meth:`run` hands everything to the session's campaign
    engine.  :meth:`spec` exposes the lowered spec, so the same builder can
    feed the legacy entry points or tests asserting on the expansion.
    """

    def __init__(self, workbench: "Workbench", spec: SweepSpec) -> None:
        self._workbench = workbench
        self._spec = spec
        self._jobs: Optional[int] = None
        self._checkpoint: Optional[Union[str, CampaignCheckpoint]] = None
        self._strategy: Optional[SearchStrategy] = None
        self._runner: Optional[Runner] = None
        self._observers: List[Any] = []
        self._event_log: Optional[Union[str, EventLogObserver]] = None

    # ------------------------------------------------------------------ #
    def spec(self) -> SweepSpec:
        """The lowered declarative spec."""
        return self._spec

    def jobs(self, jobs: int) -> "SweepBuilder":
        """Override the session's parallelism for this campaign."""
        self._jobs = jobs
        return self

    def checkpoint(self, path: Union[str, CampaignCheckpoint]) -> "SweepBuilder":
        """Persist completed points to a resumable JSONL checkpoint."""
        self._checkpoint = path
        return self

    def with_event_log(self, path: Union[str, EventLogObserver]) -> "SweepBuilder":
        """Persist the full typed event stream to a JSONL event log.

        Every event of the campaign — starts with worker attribution,
        completions, checkpoint flushes — lands in ``path``,
        fingerprint-guarded like the checkpoint, ready for
        ``python -m repro.sweep replay`` and rich ``--follow``.  Attaching a
        log never changes the canonical campaign result.
        """
        self._event_log = path
        return self

    def strategy(self, strategy: Union[str, SearchStrategy], **kwargs) -> "SweepBuilder":
        """Choose the search strategy (a name like ``"halving"`` or an instance)."""
        self._strategy = (
            get_strategy(strategy, **kwargs) if isinstance(strategy, str) else strategy
        )
        return self

    def runner(self, runner: Runner) -> "SweepBuilder":
        """Use an explicit executor (overrides jobs)."""
        self._runner = runner
        return self

    def observe(self, *observers: Any) -> "SweepBuilder":
        """Attach event observers for this campaign only."""
        self._observers.extend(observers)
        return self

    def with_progress(self, stream=None, min_interval: float = 0.5) -> "SweepBuilder":
        """Attach a live progress reporter (points/sec, ETA)."""
        return self.observe(ProgressReporter(stream=stream, min_interval=min_interval))

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line summary of the campaign about to run."""
        return self._spec.describe()

    def run(self) -> CampaignResult:
        """Execute the campaign through the session's event-streaming engine."""
        return self._workbench.run(
            self._spec,
            jobs=self._jobs,
            checkpoint=self._checkpoint,
            strategy=self._strategy,
            runner=self._runner,
            observers=self._observers,
            event_log=self._event_log,
        )


class Workbench:
    """Session facade unifying compile, evaluate, sweep and explore.

    Parameters
    ----------
    jobs:
        Default parallelism for batches and campaigns (overridable per call).
    backend:
        Default evaluation backend (``analytic``: price sweeps with the
        closed-form model, re-simulate what matters).
    cache:
        The plan cache compilations go through.  Defaults to the
        process-global cache, which is also the only cache worker processes
        can share — a private :class:`PlanCache` keeps batches on the serial
        path (exactly like ``batch_evaluate(cache=...)``).
    observers:
        Session-wide event observers, attached to every campaign this
        workbench runs (per-campaign observers add on top).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "analytic",
        cache: Optional[PlanCache] = plan_cache,
        observers: Sequence[Any] = (),
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        self.jobs = jobs
        self.default_backend = backend
        self.cache = cache
        self.observers: List[Any] = list(observers)
        self._analytic_engine: Optional[Any] = None
        self._async_batcher: Optional[Any] = None
        self._async_batcher_loop: Optional[Any] = None

    @property
    def analytic_engine(self):
        """The session's vectorized pricing engine (lazy, shared across calls).

        Serial ``evaluate_batch(backend="analytic")`` calls price through
        this :class:`~repro.pipeline.analytic_batch.AnalyticBatchEngine`, so
        the packed per-design knobs survive from one batch to the next —
        re-pricing a space under new timings or instance counts is pure
        array arithmetic.
        """
        if self._analytic_engine is None:
            from repro.pipeline.analytic_batch import AnalyticBatchEngine

            self._analytic_engine = AnalyticBatchEngine()
        return self._analytic_engine

    @classmethod
    def ensure(cls, workbench: Optional["Workbench"], jobs: int = 1) -> "Workbench":
        """The caller's session, or a throwaway one at ``jobs``.

        The shared idiom of every ``workbench=None`` seam (the eval
        experiments): legacy callers keep their ``jobs`` argument working,
        session callers keep their cache and runner policy.
        """
        return workbench if workbench is not None else cls(jobs=jobs)

    # ------------------------------------------------------------------ #
    # problems
    # ------------------------------------------------------------------ #
    def problem(
        self,
        base: Optional[StencilProblem] = None,
        *,
        rows: int = 11,
        cols: int = 11,
        **overrides,
    ) -> ProblemBuilder:
        """Open a fluent problem builder.

        ``base`` is an existing :class:`StencilProblem`; without one, the
        paper's validation case at ``rows × cols`` seeds the builder.
        ``overrides`` are applied as dataclass replacements (``mode=...``,
        ``max_stream_reach=...``).
        """
        problem = StencilProblem.paper_example(rows, cols) if base is None else base
        if overrides:
            problem = replace(problem, **overrides)
        return ProblemBuilder(self, problem)

    def sweep(self, spec: SweepSpec) -> SweepBuilder:
        """Wrap an existing declarative spec in the fluent campaign builder."""
        return SweepBuilder(self, spec)

    # ------------------------------------------------------------------ #
    # one-shot work
    # ------------------------------------------------------------------ #
    def compile(self, problem: StencilProblem) -> CompiledDesign:
        """Compile (memoized in the session's plan cache)."""
        return compile_problem(problem, cache=self.cache)

    def evaluate(
        self,
        problem,
        backend: Optional[str] = None,
        request: Optional[EvaluationRequest] = None,
        **request_overrides,
    ) -> EvaluationResult:
        """Compile and evaluate one problem with the session's defaults."""
        return _evaluate(
            problem,
            backend=backend or self.default_backend,
            request=request,
            cache=self.cache,
            **request_overrides,
        )

    async def evaluate_async(
        self,
        problem,
        backend: Optional[str] = None,
        request: Optional[EvaluationRequest] = None,
        **request_overrides,
    ) -> EvaluationResult:
        """Asynchronously evaluate one problem through the session.

        Analytic evaluations are routed through a per-session adaptive
        micro-batcher (:class:`repro.serve.batcher.AdaptiveBatcher`) sharing
        the session's :attr:`analytic_engine`: concurrent ``evaluate_async``
        callers on the same event loop are priced together in one vectorized
        engine call, each under its own request (systems, iterations, write
        policies, DRAM timings and kernels may differ within one flush).  So
        ``asyncio.gather`` over a thousand points costs a handful of batched
        folds, not a thousand scalar walks — the same substrate the TCP
        evaluation service (:mod:`repro.serve`) builds on.
        Non-analytic backends (a simulation can run for seconds) are handed
        to the default executor so the event loop stays responsive.
        """
        import asyncio

        backend = backend or self.default_backend
        req = request or EvaluationRequest()
        if request_overrides:
            req = replace(req, **request_overrides)
        loop = asyncio.get_running_loop()
        if backend != "analytic":
            return await loop.run_in_executor(
                None, lambda: self.evaluate(problem, backend=backend, request=req)
            )
        if self._async_batcher is None or self._async_batcher_loop is not loop:
            from repro.serve.batcher import AdaptiveBatcher

            self._async_batcher = AdaptiveBatcher(self._price_async_bucket)
            self._async_batcher_loop = loop
        return await self._async_batcher.submit(problem, req)

    def _price_async_bucket(self, items):
        """Price one micro-batch of ``(problem, request)`` items in one engine fold."""
        designs = compile_batch([problem for problem, _ in items], cache=self.cache)
        return self.analytic_engine.price(
            [(design, request) for design, (_, request) in zip(designs, items)]
        )

    def evaluate_batch(
        self,
        problems: Sequence[Any],
        backend: Optional[str] = None,
        request: Optional[EvaluationRequest] = None,
        jobs: Optional[int] = None,
        with_artifacts: bool = True,
        **request_overrides,
    ) -> List[EvaluationResult]:
        """Evaluate many problems, sharded over the session's runner policy.

        Serial analytic batches price through the session's
        :attr:`analytic_engine`, whose packed-session cache keys on the
        problem list itself: re-pricing the same problems under new request
        knobs (iterations, DRAM timing, write policy) reuses the packed
        design columns and skips compilation outright (see
        :mod:`repro.pipeline.analytic_batch`).  Results always come back in
        input order.  ``with_artifacts=False`` skips per-point prediction
        artifacts when only the metrics matter (bulk scoring loops).
        """
        return batch_evaluate(
            problems,
            backend=backend or self.default_backend,
            request=request,
            cache=self.cache,
            jobs=jobs if jobs is not None else self.jobs,
            engine=self.analytic_engine,
            with_artifacts=with_artifacts,
            **request_overrides,
        )

    # ------------------------------------------------------------------ #
    # campaigns
    # ------------------------------------------------------------------ #
    def runner(self, jobs: Optional[int] = None) -> Runner:
        """A runner at the session's (or an overridden) parallelism degree."""
        return make_runner(jobs if jobs is not None else self.jobs)

    def run(
        self,
        spec: Union[SweepSpec, SweepBuilder],
        jobs: Optional[int] = None,
        checkpoint: Optional[Union[str, CampaignCheckpoint]] = None,
        strategy: Optional[SearchStrategy] = None,
        runner: Optional[Runner] = None,
        observers: Sequence[Any] = (),
        progress: bool = False,
        event_log: Optional[Union[str, EventLogObserver]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_failed: bool = False,
    ) -> CampaignResult:
        """Run (or resume) a campaign through the event-streaming engine.

        A :class:`SweepBuilder` may be passed directly: everything it
        accumulated (jobs, checkpoint, strategy, runner, observers, event
        log) carries over, with explicit arguments to this call taking
        precedence.  Session observers, per-call ``observers``
        and — with ``progress=True`` — a live :class:`ProgressReporter` all
        consume the same event stream; their failures are isolated on
        ``result.observer_errors``.  ``event_log`` persists that stream to a
        JSONL sidecar for ``--follow`` and ``replay``.
        """
        extra_observers: List[Any] = []
        if isinstance(spec, SweepBuilder):
            builder = spec
            jobs = jobs if jobs is not None else builder._jobs
            checkpoint = checkpoint if checkpoint is not None else builder._checkpoint
            strategy = strategy if strategy is not None else builder._strategy
            runner = runner if runner is not None else builder._runner
            event_log = event_log if event_log is not None else builder._event_log
            extra_observers = list(builder._observers)
            spec = builder.spec()
        attached = list(self.observers) + extra_observers + list(observers)
        if progress:
            attached.append(ProgressReporter())
        return execute_campaign(
            spec,
            jobs=jobs if jobs is not None else self.jobs,
            checkpoint=checkpoint,
            strategy=strategy,
            runner=runner,
            observers=attached,
            event_log=event_log,
            retry_policy=retry_policy,
            retry_failed=retry_failed,
        )

    # ------------------------------------------------------------------ #
    # exploration and introspection
    # ------------------------------------------------------------------ #
    def explore(
        self,
        problems: Sequence[StencilProblem],
        iterations: int = 1,
        objective: Optional[PerformanceObjective] = None,
        timing: Optional[DRAMTiming] = None,
        backend: str = "analytic",
        simulate_front: bool = True,
        jobs: Optional[int] = None,
    ) -> PerformanceSweep:
        """Sweep whole problems: fast pricing, Pareto front, selective verification.

        Every problem is compiled (memoized) and priced with ``backend`` — the
        closed-form ``analytic`` model by default, so the full space costs
        microseconds per point.  The cycles/memory Pareto front is then re-run
        through the cycle-accurate ``simulate`` backend (unless
        ``simulate_front`` is off or the sweep already simulated everything),
        and the ``objective`` picks the winner from the front using the
        verified numbers (objective ties broken by label, so the choice is
        deterministic; the default is fewest cycles, then least on-chip
        memory).

        Both stages run through :meth:`evaluate_batch`, so they share this
        session's cache and runner policy; ``jobs`` overrides the session's
        parallelism for this sweep.  With ``jobs > 1`` pricing *and* front
        re-simulation shard over a process pool (:mod:`repro.sweep.runners`).
        """
        from repro.dse.explorer import (
            PerformancePoint,
            PerformanceSweep,
            performance_pareto_front,
        )

        if not problems:
            raise ValueError("explore needs at least one problem")
        jobs = jobs if jobs is not None else self.jobs
        objective = objective or (lambda p: (p.cycles, p.total_bits))
        request = EvaluationRequest(iterations=iterations, dram_timing=timing)
        predictions = self.evaluate_batch(
            problems, backend=backend, request=request, jobs=jobs
        )
        points = []
        for predicted in predictions:
            if predicted.cycles is None:
                raise ValueError(
                    f"backend {backend!r} produces no cycle count; a performance "
                    "sweep needs a timing backend such as 'analytic' or 'simulate'"
                )
            points.append(PerformancePoint(design=predicted.design, predicted=predicted))
        front = performance_pareto_front(points)
        simulated_count = 0
        if backend == "simulate":
            for p in points:
                p.simulated = p.predicted
            simulated_count = len(points)
        elif simulate_front and front:
            verified = self.evaluate_batch(
                [p.design for p in front], backend="simulate", request=request,
                jobs=min(jobs, len(front)),
            )
            for p, sim in zip(front, verified):
                p.simulated = sim
                simulated_count += 1
        selected = (
            min(front, key=lambda p: (objective(p), p.label)) if front else None
        )
        return PerformanceSweep(
            points=points,
            front=front,
            selected=selected,
            backend=backend,
            simulated_count=simulated_count,
        )

    def add_observer(self, observer: Any) -> None:
        """Attach a session-wide observer to every future campaign."""
        self.observers.append(observer)

    def backends(self) -> List[str]:
        """Names of every registered evaluation backend."""
        return available_backends()

    def cache_info(self) -> CacheInfo:
        """Counters of the session's plan cache."""
        cache = self.cache if self.cache is not None else plan_cache
        return cache.cache_info()

    def analytic_cache_info(self):
        """Counters of the session's vectorized pricing engine.

        An :class:`repro.pipeline.analytic_batch.EngineCacheInfo` built from
        the engine's three :class:`PlanCache` instances: the knob cache
        (first four fields, :class:`CacheInfo`-shaped) plus the
        packed-session and fold-memo counters the evaluation service's
        ``/stats`` verb reports.
        """
        return self.analytic_engine.cache_info()
