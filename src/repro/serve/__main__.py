"""CLI for the evaluation service: ``serve`` and ``bench-client``.

::

    python -m repro.serve serve --port 7571 --max-batch 64
    python -m repro.serve bench-client --port 7571 --points 1000 \\
        --unique 200 --connections 4 --verify

``serve`` runs an :class:`~repro.serve.server.EvaluationServer` until
interrupted.  ``bench-client`` fires a mixed duplicate/unique workload from
several pipelined connections, prints client-side throughput and the
server's ``/stats``, and with ``--verify`` recomputes every unique point
through the scalar reference path and asserts the served payloads are
byte-identical (exit 1 otherwise) — the same check CI runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, Dict, List


def _point_mix(points: int, unique: int, iterations: int) -> List[Dict[str, Any]]:
    """A deterministic mixed workload: ``unique`` specs cycled to ``points``.

    Grids walk a rectangle of paper-style shapes; duplicates are interleaved
    (not back-to-back) so memo hits and batch packing both get exercised.
    """
    unique = max(1, min(unique, points))
    specs = []
    for index in range(unique):
        rows = 9 + index % 40
        cols = 9 + (index // 40) % 25
        specs.append(
            {"grid": [rows, cols], "system": "smache", "iterations": iterations,
             "write_through": True}
        )
    return [specs[i % unique] for i in range(points)]


def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import EvaluationServer

    server = EvaluationServer(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        memo_entries=args.memo_entries,
        scalar=args.scalar,
    )

    async def main() -> None:
        host, port = await server.start()
        mode = "scalar (reference)" if args.scalar else "micro-batched"
        print(f"serving on {host}:{port} [{mode}]", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; shutting down", flush=True)
    return 0


def cmd_bench_client(args: argparse.Namespace) -> int:
    from repro.serve.client import AsyncServeClient

    specs = _point_mix(args.points, args.unique, args.iterations)

    async def wait_ready() -> None:
        deadline = time.monotonic() + args.connect_timeout
        while True:
            try:
                async with AsyncServeClient(args.host, args.port) as probe:
                    if await probe.ping():
                        return
            except (ConnectionError, OSError):
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.1)

    async def main() -> int:
        await wait_ready()
        clients = [AsyncServeClient(args.host, args.port) for _ in range(args.connections)]
        for client in clients:
            await client.connect()
        results: List[Dict[str, Any]] = [{} for _ in specs]
        semaphore = asyncio.Semaphore(args.concurrency)

        async def one(index: int) -> None:
            async with semaphore:
                client = clients[index % len(clients)]
                results[index] = await client.evaluate_retry(specs[index])

        started = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(len(specs))))
        elapsed = time.perf_counter() - started
        stats = await clients[0].stats()
        for client in clients:
            await client.close()

        print(
            f"{len(specs)} requests ({args.unique} unique) over "
            f"{args.connections} connection(s): {elapsed * 1e3:.1f} ms, "
            f"{len(specs) / elapsed:,.0f} req/s"
        )
        latency = stats.get("latency", {})
        batches = stats.get("batches", {})
        print(
            f"server: p50 {latency.get('p50_ms')} ms, p99 {latency.get('p99_ms')} ms, "
            f"mean batch {batches.get('mean_size')}, memo {stats.get('memo')}"
        )
        if args.stats_json:
            print(json.dumps(stats, sort_keys=True))

        if args.verify:
            from repro.pipeline.backends import evaluate
            from repro.serve.protocol import parse_point, result_payload

            mismatches = 0
            seen: Dict[bytes, bytes] = {}
            for spec, payload in zip(specs, results):
                spec_key = _canonical(spec)
                reference = seen.get(spec_key)
                if reference is None:
                    problem, request = parse_point(spec)
                    scalar = evaluate(
                        problem, backend="analytic", request=request
                    )
                    reference = _canonical(result_payload(scalar))
                    seen[spec_key] = reference
                if _canonical(payload) != reference:
                    mismatches += 1
            if mismatches:
                print(f"VERIFY FAILED: {mismatches} served payload(s) differ "
                      f"from the scalar reference", file=sys.stderr)
                return 1
            print(f"verify: {len(specs)} responses bitwise-equal to the scalar reference")
        return 0

    return asyncio.run(main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the evaluation server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7571, help="0 picks a free port")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--queue-limit", type=int, default=1024)
    serve.add_argument("--memo-entries", type=int, default=4096)
    serve.add_argument(
        "--scalar", action="store_true",
        help="serve through the per-request scalar reference path (benchmark baseline)",
    )
    serve.set_defaults(fn=cmd_serve)

    bench = sub.add_parser("bench-client", help="fire a mixed workload at a server")
    bench.add_argument("--host", default="127.0.0.1")
    bench.add_argument("--port", type=int, default=7571)
    bench.add_argument("--points", type=int, default=1000, help="total requests")
    bench.add_argument("--unique", type=int, default=200, help="distinct points in the mix")
    bench.add_argument("--iterations", type=int, default=5)
    bench.add_argument("--connections", type=int, default=4, help="concurrent connections")
    bench.add_argument("--concurrency", type=int, default=64, help="max requests in flight")
    bench.add_argument("--connect-timeout", type=float, default=30.0)
    bench.add_argument("--verify", action="store_true",
                       help="assert responses bitwise-match the scalar reference")
    bench.add_argument("--stats-json", action="store_true",
                       help="also dump the raw /stats JSON")
    bench.set_defaults(fn=cmd_bench_client)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
