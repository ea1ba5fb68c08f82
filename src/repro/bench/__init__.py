"""repro.bench: the performance-regression gating subsystem.

* :mod:`repro.bench.model` — :class:`~repro.bench.model.BenchResult`, read
  from perfbench output or built in process by the same-process ratio
  claims (:mod:`repro.bench.claims`);
* :mod:`repro.bench.host` — the host fingerprint and contention probe,
  which perfbench stamps its results through;
* :mod:`repro.bench.references` — one flat table of reference bands;
* :mod:`repro.bench.gate` — results against bands, folded into an exit
  code;
* ``python -m repro.bench`` — the CLI that runs the claims and gates
  results; see :mod:`repro.bench.__main__`.
"""
