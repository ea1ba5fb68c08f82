"""Adaptive search strategies over an expanded sweep space.

A strategy decides *which* points to evaluate and *in what stages*; the
campaign supplies ``run``, a checkpoint-aware executor that takes a list of
:class:`~repro.sweep.spec.SweepPoint`\\ s and returns their
:class:`~repro.sweep.record.PointRecord`\\ s (skipping anything a resumed
checkpoint already holds).  Because strategies derive every stage
deterministically from prior records, an interrupted adaptive campaign
resumes exactly: stage one is replayed from the checkpoint, the same
survivors are selected, and only missing stage-two points are evaluated.

Built-ins:

* :class:`GridSearch` — evaluate the whole space (the default);
* :class:`RandomSearch` — a seeded random subsample of the space;
* :class:`SuccessiveHalving` — price *everything* with the cheap analytic
  backend, rank, and re-run only the top ``1/eta`` survivors with the
  cycle-accurate simulator: the same fast-then-honest idiom as
  :meth:`repro.api.Workbench.explore`, expressed as a campaign.

Strategies hand whole generations to ``run`` in one call, which is what lets
the runners' analytic fast lane (:mod:`repro.sweep.runners`) price an entire
analytic stage — :class:`RandomSearch`'s sample, :class:`SuccessiveHalving`'s
rung-0 screen — in a handful of vectorized calls instead of one model
evaluation per point.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import ceil
from typing import Callable, Dict, List, Sequence, Tuple

from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepPoint

#: The campaign-supplied executor handed to a strategy.
RunPoints = Callable[[Sequence[SweepPoint]], List[PointRecord]]


def ranking_metric(record: PointRecord) -> Tuple:
    """Default ranking: fewest cycles, then least memory, then the key.

    The trailing key makes ranking — and therefore survivor selection —
    deterministic when two points tie on every metric.
    """
    cycles = record.cycles if record.cycles is not None else float("inf")
    bits = record.total_bits if record.total_bits is not None else float("inf")
    return (cycles, bits, record.key)


class SearchStrategy:
    """Base class: drive the campaign's executor over the expanded space."""

    name = "grid"

    def execute(self, points: Sequence[SweepPoint], run: RunPoints) -> List[PointRecord]:
        """Evaluate and return records (must be overridden)."""
        raise NotImplementedError


class GridSearch(SearchStrategy):
    """Exhaustive evaluation of every expanded point."""

    name = "grid"

    def execute(self, points: Sequence[SweepPoint], run: RunPoints) -> List[PointRecord]:
        return run(points)


class RandomSearch(SearchStrategy):
    """A seeded random subsample of the space, in expansion order.

    The sample depends only on ``seed`` and the point list, so resumed runs
    draw the same subset and skip completed work.
    """

    name = "random"

    def __init__(self, samples: int, seed: int = 0) -> None:
        if samples < 1:
            raise ValueError("samples must be positive")
        self.samples = samples
        self.seed = seed

    def execute(self, points: Sequence[SweepPoint], run: RunPoints) -> List[PointRecord]:
        points = list(points)
        if self.samples >= len(points):
            return run(points)
        rng = random.Random(self.seed)
        indices = sorted(rng.sample(range(len(points)), self.samples))
        return run([points[i] for i in indices])


class SuccessiveHalving(SearchStrategy):
    """Analytic pricing of everything, cycle-accurate re-run of survivors.

    Rung 0 forces every point onto ``price_backend`` (cheap, closed-form);
    the best ``ceil(n / eta)`` points by ``metric`` then graduate to rung 1
    on ``verify_backend``.  Records of both rungs are returned — rung-1
    records carry the trusted numbers, rung-0 records document the pricing.
    With the default analytic pricing backend the whole rung-0 screen rides
    the runners' vectorized fast lane, so the screen's cost is a few NumPy
    folds rather than one closed-form evaluation per candidate.
    """

    name = "halving"

    def __init__(
        self,
        eta: int = 2,
        min_survivors: int = 1,
        price_backend: str = "analytic",
        verify_backend: str = "simulate",
        metric: Callable[[PointRecord], Tuple] = ranking_metric,
    ) -> None:
        if eta < 2:
            raise ValueError("eta must be at least 2")
        if min_survivors < 1:
            raise ValueError("min_survivors must be positive")
        self.eta = eta
        self.min_survivors = min_survivors
        self.price_backend = price_backend
        self.verify_backend = verify_backend
        self.metric = metric

    def execute(self, points: Sequence[SweepPoint], run: RunPoints) -> List[PointRecord]:
        # Forcing every point onto the pricing backend collapses a
        # multi-backend spec's expansions onto identical keys; dedup so each
        # candidate is priced once and cannot fill several survivor slots.
        by_key: Dict[str, SweepPoint] = {}
        for p in points:
            priced_point = replace(p, backend=self.price_backend, rung=0)
            by_key.setdefault(priced_point.key(), priced_point)
        priced_points = list(by_key.values())
        priced = run(priced_points)
        n_survivors = max(self.min_survivors, ceil(len(priced_points) / self.eta))
        if n_survivors >= len(priced_points):
            survivors_keys = [r.key for r in priced]
        else:
            survivors_keys = [r.key for r in sorted(priced, key=self.metric)[:n_survivors]]
        survivors = [
            replace(by_key[key], backend=self.verify_backend, rung=1)
            for key in survivors_keys
        ]
        verified = run(survivors)
        return priced + verified


def get_strategy(name: str, **kwargs) -> SearchStrategy:
    """Build a strategy by CLI name (``grid``, ``random``, ``halving``)."""
    if name == "grid":
        return GridSearch()
    if name == "random":
        return RandomSearch(
            samples=int(kwargs.get("samples", 16)), seed=int(kwargs.get("seed", 0))
        )
    if name == "halving":
        return SuccessiveHalving(eta=int(kwargs.get("eta", 2)))
    raise KeyError(f"unknown strategy {name!r}; choose from ['grid', 'random', 'halving']")
