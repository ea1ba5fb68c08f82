"""The parallel sweep engine: declarative, resumable evaluation campaigns.

Where :mod:`repro.pipeline` makes *one* evaluation cheap, this package makes
*many* evaluations scale: describe the problem space once, let a runner
execute it on 1..N cores, checkpoint every completed point, and aggregate
the records into a report.

* :class:`SweepSpec` — the declarative space (grid sizes × stencils ×
  partitions × reaches × backends × systems) expanding to
  :class:`SweepPoint`\\ s with stable content keys;
* :mod:`repro.sweep.runners` — the executor layer: :class:`SerialRunner`
  and the chunk-sharded :class:`ProcessPoolRunner` (warm per-worker plan
  caches, cost-balanced chunks);
* :mod:`repro.sweep.events` — the typed :class:`RunEvent` stream every
  campaign publishes (``PointStarted`` … ``CampaignFinished``), consumed by
  pluggable observers: the live :class:`ProgressReporter`, the JSONL
  :class:`CampaignCheckpoint` and the result aggregator;
* :mod:`repro.sweep.checkpoint` — append-only JSONL checkpoints with
  compaction; a killed campaign resumes without re-evaluating completed
  points, and ``--follow`` tails the file live (:mod:`repro.sweep.follow`);
* :mod:`repro.sweep.eventlog` — durable event-stream persistence: an
  :class:`EventLogObserver` serialises every event (schema-versioned,
  fingerprint-guarded, with worker attribution) to a JSONL sidecar, and
  :class:`CampaignReplay` re-drives any observer from it deterministically
  (``python -m repro.sweep replay``);
* :mod:`repro.sweep.strategies` — grid, seeded-random and
  successive-halving (price analytically, re-simulate survivors) search;
* :func:`execute_campaign` / :class:`CampaignResult` — orchestration and the
  aggregation/report API, with a byte-stable canonical serialisation so a
  parallel campaign is provably identical to a serial one, and
  :meth:`CampaignResult.diff` for regression tracking across PRs.

Prefer driving campaigns through :class:`repro.api.Workbench`.

Command line: ``python -m repro.sweep --help`` (subcommands: ``compact``,
``diff``, ``follow``, ``replay``).
"""

from repro.sweep.spec import SweepPoint, SweepSpec, smoke_spec
from repro.sweep.record import PointRecord, canonical_json
from repro.sweep.runners import (
    ProcessPoolRunner,
    Runner,
    SerialRunner,
    cost_balanced_chunks,
    make_runner,
    point_cost_weight,
)
from repro.sweep.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatch,
    CompactionStats,
)
from repro.sweep.events import (
    CampaignFinished,
    CampaignStarted,
    EventBus,
    EventLog,
    ObserverError,
    PointCompleted,
    PointResumed,
    PointStarted,
    ProgressReporter,
    RunEvent,
    RunObserver,
)
from repro.sweep.eventlog import (
    EVENT_LOG_FORMAT,
    CampaignReplay,
    EventLogMismatch,
    EventLogObserver,
    ReplayStats,
    default_event_log_path,
)
from repro.sweep.follow import (
    WorkerThroughput,
    follow_campaign,
    follow_checkpoint,
    follow_event_log,
)
from repro.sweep.strategies import (
    GridSearch,
    RandomSearch,
    SearchStrategy,
    SuccessiveHalving,
    get_strategy,
)
from repro.sweep.campaign import (
    CampaignDiff,
    CampaignResult,
    diff_canonical_rows,
    execute_campaign,
    pareto_front_records,
)

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "smoke_spec",
    "PointRecord",
    "canonical_json",
    "Runner",
    "SerialRunner",
    "ProcessPoolRunner",
    "make_runner",
    "cost_balanced_chunks",
    "point_cost_weight",
    "CampaignCheckpoint",
    "CheckpointMismatch",
    "CompactionStats",
    "RunEvent",
    "CampaignStarted",
    "PointStarted",
    "PointCompleted",
    "PointResumed",
    "CampaignFinished",
    "EventBus",
    "EventLog",
    "ObserverError",
    "RunObserver",
    "ProgressReporter",
    "EVENT_LOG_FORMAT",
    "EventLogObserver",
    "EventLogMismatch",
    "CampaignReplay",
    "ReplayStats",
    "default_event_log_path",
    "follow_campaign",
    "follow_checkpoint",
    "follow_event_log",
    "WorkerThroughput",
    "SearchStrategy",
    "GridSearch",
    "RandomSearch",
    "SuccessiveHalving",
    "get_strategy",
    "CampaignDiff",
    "CampaignResult",
    "diff_canonical_rows",
    "execute_campaign",
    "pareto_front_records",
]
