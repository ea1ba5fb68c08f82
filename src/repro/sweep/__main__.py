"""Command-line campaign driver: ``python -m repro.sweep``.

Without arguments a small built-in smoke campaign runs serially; axes,
parallelism, search strategy and the checkpoint file are all flags.  Re-run
the same command to resume: completed points load from the checkpoint and
are not re-evaluated (the report counts them as *resumed*).

Examples
--------
Run the smoke campaign on two workers with a resumable checkpoint and live
progress (points/sec, ETA on stderr)::

    python -m repro.sweep --jobs 2 --checkpoint campaign-smoke.jsonl --progress

Tail that campaign from another terminal (works across processes/hosts that
share the file)::

    python -m repro.sweep --follow campaign-smoke.jsonl

A bigger declarative space with successive halving::

    python -m repro.sweep --grids 24x24,48x48,96x96 --reaches 0,8,none \\
        --modes hybrid,register_only --strategy halving --jobs 4

Maintenance subcommands::

    python -m repro.sweep compact campaign.jsonl     # drop superseded records
    python -m repro.sweep diff new.jsonl old.jsonl   # regression tracking
    python -m repro.sweep follow campaign.jsonl      # same as --follow
    python -m repro.sweep replay campaign.events.jsonl  # re-drive observers
    python -m repro.sweep chaos --crash 'smoke-24x24-h-*@1' --jobs 2  # fault drill

Fault tolerance: ``--max-attempts``/``--retry-delay``/``--point-deadline``
enable the retry policy (exponential backoff, straggler re-issue, worker
crash recovery); ``--retry-failed`` re-attempts points a previous session
recorded as permanently failed.  The ``chaos`` subcommand runs a campaign
under the deterministic fault-injection harness (:mod:`repro.faults`) to
drill exactly that machinery.

Exit codes of ``follow``/``replay`` (and of a campaign run itself): 0 for a
clean completion, 1 when the campaign finished but points permanently
failed, 2 when the stream ends on an incomplete campaign.

Event logs: add ``--event-log`` to persist the full typed event stream
(starts with worker attribution, completions, checkpoint flushes) to a JSONL
sidecar next to the checkpoint.  ``--follow`` prefers the event log when one
exists (per-point starts, in-flight counts, per-worker rates) and falls back
to checkpoint tailing for legacy files; ``replay`` reconstructs the stream
from disk and re-drives the progress reporter deterministically.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Workbench
from repro.core.partition import StreamBufferMode
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, inject_faults
from repro.pipeline.problem import StencilProblem
from repro.sweep.campaign import diff_canonical_rows
from repro.sweep.checkpoint import CampaignCheckpoint
from repro.sweep.eventlog import CampaignReplay, default_event_log_path
from repro.sweep.events import ProgressReporter
from repro.sweep.follow import follow_campaign
from repro.sweep.spec import SweepSpec, _parse_grid_list, _parse_reach_list, smoke_spec
from repro.sweep.strategies import get_strategy

#: Maintenance subcommands dispatched before flag parsing.
SUBCOMMANDS = ("compact", "diff", "follow", "replay", "chaos")


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """The campaign spec described by the CLI flags."""
    if not (args.grids or args.reaches or args.modes or args.backends != "analytic"):
        return smoke_spec(name=args.name, iterations=args.iterations)
    return SweepSpec(
        name=args.name,
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=_parse_grid_list(args.grids) if args.grids else None,
        max_stream_reaches=_parse_reach_list(args.reaches) if args.reaches else None,
        modes=args.modes,
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
        iterations=args.iterations,
    )


# --------------------------------------------------------------------------- #
# maintenance subcommands
# --------------------------------------------------------------------------- #
def _compact_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep compact",
        description="Rewrite a JSONL checkpoint keeping only the latest record "
        "per point key (header and fingerprint preserved).",
    )
    parser.add_argument("checkpoint", help="JSONL checkpoint path")
    args = parser.parse_args(argv)
    stats = CampaignCheckpoint(args.checkpoint).compact()
    print(f"compacted {args.checkpoint}: {stats.format()}")
    return 0


def _checkpoint_rows(path: str):
    """Canonical rows of a checkpoint, sorted by (rung, key).

    Failure records carry no metrics, so they are excluded — ``diff``
    compares only what both campaigns actually evaluated (the same contract
    as :meth:`CampaignResult.canonical_rows`).
    """
    records = CampaignCheckpoint(path).load()
    ordered = sorted(
        (r for r in records.values() if not r.failed), key=lambda r: (r.rung, r.key)
    )
    return [r.canonical() for r in ordered]


def _diff_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep diff",
        description="Diff two campaign checkpoints on their canonical rows "
        "(regression tracking across PRs).  Exit code 0 when identical, "
        "1 when they differ.",
    )
    parser.add_argument("new", help="the newer checkpoint (e.g. this PR's run)")
    parser.add_argument("old", help="the older checkpoint to compare against")
    args = parser.parse_args(argv)
    diff = diff_canonical_rows(_checkpoint_rows(args.new), _checkpoint_rows(args.old))
    print(diff.format())
    return 0 if diff.identical else 1


def _follow_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep follow",
        description="Tail a live campaign (event log when available, legacy "
        "checkpoint otherwise), printing per-point starts, points/sec and ETA "
        "until the campaign completes.",
    )
    parser.add_argument(
        "path", help="JSONL checkpoint or event-log path (may not exist yet)"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="give up after this many seconds without new data (default: 60)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.25, help="seconds between file polls"
    )
    args = parser.parse_args(argv)
    return follow_campaign(args.path, poll_seconds=args.poll, idle_timeout=args.timeout)


def _replay_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep replay",
        description="Reconstruct a campaign's typed event stream from a JSONL "
        "event log and re-drive the progress reporter deterministically "
        "(rates and ETAs reflect the original run's logged timestamps).  "
        "Exit code 0 when the log ends in a cleanly finished campaign, 1 when "
        "it finished with permanently failed points, 2 when it ends "
        "mid-campaign.",
    )
    parser.add_argument("log", help="JSONL event-log path")
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the replayed progress lines, print only the summary",
    )
    args = parser.parse_args(argv)
    replay = CampaignReplay(args.log)
    observers = []
    if not args.quiet:
        observers.append(
            ProgressReporter(stream=sys.stdout, min_interval=0.0, clock=replay.clock)
        )
    stats = replay.replay(*observers)
    print(f"replay of {args.log}: {stats.format()}")
    if not stats.finished:
        return 2
    return 1 if stats.failed else 0


# --------------------------------------------------------------------------- #
# chaos: run a campaign under deterministic fault injection
# --------------------------------------------------------------------------- #
def _add_campaign_arguments(parser, name_default: str = "smoke") -> None:
    """Flags shared by the main driver and the ``chaos`` subcommand."""
    parser.add_argument(
        "--name", default=name_default, help=f"campaign name (default: {name_default})"
    )
    parser.add_argument("--grids", help='grid sizes, e.g. "11x11,24x24" (default: smoke set)')
    parser.add_argument("--reaches", help='max stream reaches, e.g. "0,4,none"')
    parser.add_argument("--modes", type=_mode_list, help="buffer modes: hybrid,register_only")
    parser.add_argument("--backends", default="analytic", help="backends (default: analytic)")
    parser.add_argument("--iterations", type=int, default=2, help="work-instances per point")
    parser.add_argument("--jobs", "-j", type=int, default=1, help="parallel workers")
    parser.add_argument("--checkpoint", help="JSONL checkpoint path (enables resume)")
    parser.add_argument(
        "--event-log",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="persist the full event stream to a JSONL sidecar (default path: "
        "the checkpoint's with an .events.jsonl suffix when PATH is omitted); "
        "enables rich --follow and the replay subcommand",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream live progress (points/sec, ETA) to stderr while running",
    )


def _mode_list(text: str) -> tuple:
    """``--modes`` as buffer modes (``custom`` needs register_elements: refused)."""
    modes = []
    for name in filter(None, (chunk.strip() for chunk in text.split(","))):
        mode = StreamBufferMode.__members__.get(name.upper())
        if mode in (None, StreamBufferMode.CUSTOM):
            why = "needs register_elements, which a sweep does not set" if mode else "is unknown"
            raise argparse.ArgumentTypeError(f"mode {name!r} {why}; use hybrid or register_only")
        modes.append(mode)
    return tuple(modes)


def _resolve_event_log(args, parser) -> "str | None":
    """The event-log path implied by ``--event-log`` (sidecar when bare)."""
    event_log = args.event_log
    if event_log == "":  # bare --event-log: sidecar next to the checkpoint
        if not args.checkpoint:
            parser.error("--event-log without a PATH requires --checkpoint")
        event_log = default_event_log_path(args.checkpoint)
    return event_log


def _parse_fault(text: str, action: str) -> FaultSpec:
    """Parse a CLI fault spec: ``GLOB[@N][:SECONDS]``.

    ``GLOB`` matches point labels (fnmatch).  ``@N`` limits the fault to the
    first N attempts (so retries succeed); without it the fault is a poison
    that fires on every attempt.  ``:SECONDS`` sets the hang duration.
    """
    seconds = 1.0
    if action == "hang" and ":" in text:
        text, _, tail = text.rpartition(":")
        seconds = float(tail)
    attempts_below = None
    if "@" in text:
        text, _, tail = text.rpartition("@")
        attempts_below = int(tail) + 1
    return FaultSpec(
        action=action,
        label=text,
        attempts_below=attempts_below,
        seconds=seconds,
        message=f"injected {action}",
    )


def _chaos_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep chaos",
        description="Run a campaign under the deterministic fault-injection "
        "harness: registered backends are wrapped so points matching the "
        "fault specs fail, hang or crash their worker on schedule, drilling "
        "the retry/recovery machinery end to end.  Completed points stay "
        "byte-identical to a fault-free run.  Exit code 0 when the outcome "
        "matches --expect-failed (or no point failed), 1 otherwise.",
    )
    _add_campaign_arguments(parser, name_default="smoke")
    faults = parser.add_argument_group("fault injection")
    faults.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="GLOB[@N]",
        help="raise an injected error on points whose label matches GLOB "
        "(first N attempts only with @N; every attempt — a poison — without)",
    )
    faults.add_argument(
        "--hang",
        action="append",
        default=[],
        metavar="GLOB[@N][:SECONDS]",
        help="stall matching points for SECONDS (default 1.0) before evaluating",
    )
    faults.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="GLOB[@N]",
        help="kill the evaluating worker process on matching points",
    )
    faults.add_argument(
        "--flaky",
        type=float,
        default=None,
        metavar="PROB",
        help="additionally fail every attempt of every point with this "
        "probability (deterministic per --fault-seed)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0, help="seed for fault coin flips"
    )
    policy = parser.add_argument_group("retry policy")
    policy.add_argument(
        "--max-attempts", type=int, default=3, help="attempts per point (default: 3)"
    )
    policy.add_argument(
        "--retry-delay",
        type=float,
        default=0.05,
        help="base backoff delay in seconds (default: 0.05)",
    )
    policy.add_argument(
        "--point-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point deadline; pooled stragglers past it are re-issued",
    )
    policy.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-attempt points recorded as permanently failed in the checkpoint",
    )
    parser.add_argument(
        "--expect-failed",
        type=int,
        default=None,
        metavar="N",
        help="exit 0 only when exactly N points permanently failed",
    )
    args = parser.parse_args(argv)

    specs = [_parse_fault(text, "fail") for text in args.fail]
    specs += [_parse_fault(text, "hang") for text in args.hang]
    specs += [_parse_fault(text, "crash") for text in args.crash]
    if args.flaky is not None:
        specs.append(
            FaultSpec(action="fail", probability=args.flaky, message="injected flake")
        )
    plan = FaultPlan(faults=tuple(specs), seed=args.fault_seed)
    retry_policy = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay_s=args.retry_delay,
        deadline_s=args.point_deadline,
    )

    event_log = _resolve_event_log(args, parser)
    spec = build_spec(args)
    workbench = Workbench(jobs=args.jobs)
    # The plan is installed before the campaign starts, so pool workers
    # (forked at run time) inherit the wrapped backend registry.
    with inject_faults(plan):
        result = workbench.run(
            spec,
            checkpoint=args.checkpoint,
            progress=args.progress,
            event_log=event_log,
            retry_policy=retry_policy,
            retry_failed=args.retry_failed,
        )
    print(result.format())
    if args.expect_failed is not None:
        if result.failed != args.expect_failed:
            print(
                f"chaos: expected {args.expect_failed} permanently failed "
                f"point(s), got {result.failed}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 1 if result.failed else 0


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    """CLI driver; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return {
            "compact": _compact_main,
            "diff": _diff_main,
            "follow": _follow_main,
            "replay": _replay_main,
            "chaos": _chaos_main,
        }[argv[0]](argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a declarative, resumable evaluation campaign "
        "(subcommands: compact, diff, follow, replay, chaos).",
    )
    _add_campaign_arguments(parser)
    parser.add_argument(
        "--follow",
        metavar="PATH",
        help="do not run anything; tail the given checkpoint until the "
        "campaign completes (points/sec, ETA)",
    )
    parser.add_argument(
        "--follow-timeout",
        type=float,
        default=60.0,
        help="with --follow: give up after this many idle seconds (default: 60)",
    )
    parser.add_argument(
        "--strategy",
        default="grid",
        choices=("grid", "random", "halving"),
        help="search strategy (default: grid)",
    )
    parser.add_argument("--samples", type=int, default=16, help="random-strategy sample count")
    parser.add_argument("--seed", type=int, default=0, help="random-strategy seed")
    parser.add_argument("--eta", type=int, default=2, help="successive-halving reduction factor")
    tolerance = parser.add_argument_group("fault tolerance")
    tolerance.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="enable the retry policy: attempt each point up to N times with "
        "exponential backoff before recording it as permanently failed",
    )
    tolerance.add_argument(
        "--retry-delay",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff delay between attempts (default: 0.05)",
    )
    tolerance.add_argument(
        "--point-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point deadline (enables the retry policy); pooled "
        "stragglers past it are re-issued to another worker",
    )
    tolerance.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-attempt points recorded as permanently failed in the checkpoint",
    )
    args = parser.parse_args(argv)

    if args.follow:
        return follow_campaign(args.follow, idle_timeout=args.follow_timeout)

    event_log = _resolve_event_log(args, parser)
    retry_policy = None
    if args.max_attempts is not None or args.point_deadline is not None:
        retry_policy = RetryPolicy(
            max_attempts=args.max_attempts if args.max_attempts is not None else 3,
            base_delay_s=args.retry_delay,
            deadline_s=args.point_deadline,
        )

    spec = build_spec(args)
    strategy = get_strategy(args.strategy, samples=args.samples, seed=args.seed, eta=args.eta)
    workbench = Workbench(jobs=args.jobs)
    result = workbench.run(
        spec,
        checkpoint=args.checkpoint,
        strategy=strategy,
        progress=args.progress,
        event_log=event_log,
        retry_policy=retry_policy,
        retry_failed=args.retry_failed,
    )
    print(result.format())
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
