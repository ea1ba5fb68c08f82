"""The unified experiment API: a session-scoped :class:`Workbench`.

One object for the whole experiment surface:

================================  ===========================================
entry point                       Workbench equivalent
================================  ===========================================
``pipeline.compile(p)``           ``wb.compile(p)`` / ``wb.problem(...).compile()``
``pipeline.evaluate(p, ...)``     ``wb.evaluate(p, ...)``
``pipeline.batch_evaluate(...)``  ``wb.evaluate_batch(problems, ...)``
``sweep.execute_campaign(spec)``  ``wb.run(spec)`` or the fluent
                                  ``wb.problem(...).sweep(...).run()``
================================  ===========================================

Whole-problem performance sweeps (analytic pricing, Pareto front,
re-simulation of the front) exist only on the session:
``wb.explore(problems, ...)``.

Campaigns run through the event-streaming engine of
:mod:`repro.sweep.events`; attach observers session-wide
(``Workbench(observers=[...])``) or per campaign
(``.observe(...)`` / ``.with_progress()``).
"""

from repro.api.workbench import ProblemBuilder, SweepBuilder, Workbench

__all__ = ["ProblemBuilder", "SweepBuilder", "Workbench"]
