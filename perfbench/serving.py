"""The ``serve`` workload: the evaluation service under seeded request traffic.

Requests are drawn uniformly, from a seeded stream, out of 12,288 distinct
points (128 grids x 48 iteration counts x 2 systems), three times the
service's 4,096-entry response memo, so about two thirds of them reach the
batcher and the pricing engine.  (At twice the memo, half the answers would
be memo hits and the median answer would sit on the boundary between the
fast memo path and the batched engine path.)  Set-up compiles all 128 designs (they fit the 256-entry plan
cache) and fills the memo, so measurement starts in the steady state.

The timed run (``--trace 0``) drives an in-process ``EvaluationService``
with a closed loop of clients: each answer is the server's request path
without the socket (decode, parse, key, memo, batcher, engine, encode).
One process on one core can be host-normalised like the campaigns, which
a server in a second process cannot: on a shared host its wall-clock
figures swung by 50% between runs minutes apart.

The traced run (``--trace 1``) adds what the timed run leaves out:
``python -m repro.serve serve`` (default settings) in its own process,
driven by an **open-loop** asyncio generator over at most ``nproc`` (and at
most two) connections.  Request *i* is due at its scheduled time whatever
happened to earlier ones, each answer is timed from its due time, and the
generator reports how late it ran.  At a fixed 1,000 requests/s it reports
the median latency and the tail, the lower quartile over 1,000-answer
windows of each window's p99 (ten answers beyond it), so that host pauses,
which inflate whole windows, do not set the figure.  Capacity is the
highest offered rate meeting p99 <= 20 ms with no refusal and no growing
backlog, found on one exponential ramp of offered load: the rate where the
windowed p99, smoothed over three windows, crosses 20 ms and stays over.
A refusal (``overloaded``, ``unavailable``, ``timeout``) or a missing answer
is a failure and misses the latency limit.  The server's ``stats`` verb and
a traced in-process replay of the same stream give the per-layer split.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import importlib
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    NOMINAL_CALIBRATION_S,
    ROOT,
    SRC,
    HostClock,
    Outcome,
    fresh_import_seconds,
    median,
    peak_rss_mib_self,
    percentile,
)
from tracer import Tracer

from repro.bench.host import cpu_count
from repro.pipeline.backends import evaluate
from repro.serve.protocol import make_point, parse_point, result_payload

GRIDS = 128
SIDE_MIN, SIDE_MAX = 8, 40
ITERATION_COUNTS = 48
SYSTEMS = ("smache", "baseline")
#: Points the set-up puts in the memo: the server's default memo size.
MEMO_FILL = 4096
FIXED_RATE = 1000.0
SLO_P99_S = 0.020
#: Requests per latency window: its p99 then has ten answers beyond it.
WINDOW = 1000
#: Smoothed ramp windows in a row over the limit that mark saturation.
SUSTAIN = 3
#: Answers whose payload is checked against the scalar reference.
VERIFY_SAMPLE = 64
#: Set-ups timed per run (the last one is kept and measured).
SET_UPS = 3
#: Concurrent clients of the closed loop, and answers per timed unit.
CLIENTS = 32
UNIT = 2000
#: Open-loop phases of a traced run against the TCP server (seconds).
OPEN_S = 3.0
RAMP_S = 4.0
IMPORTS = ("repro.serve.server",)
#: Requests in one traced in-process replay.
REPLAY = 2000
START_TIMEOUT_S = 60.0
REFUSALS = ("overloaded", "unavailable", "timeout")


def connections() -> int:
    return max(1, min(2, cpu_count() or 1))


def point_space(seed: int) -> Tuple[List[Tuple[int, int]], List[dict]]:
    rng = random.Random(seed)
    sides = [(r, c) for r in range(SIDE_MIN, SIDE_MAX + 1) for c in range(SIDE_MIN, SIDE_MAX + 1)]
    grids = rng.sample(sides, GRIDS)
    iterations = sorted(rng.sample(range(2, 202), ITERATION_COUNTS))
    points = [
        make_point(grid, system=system, iterations=count)
        for grid in grids for count in iterations for system in SYSTEMS
    ]
    return grids, points


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro.serve serve --port 0`` with default settings."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            address = line.split()[2]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_for_ping()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _wait_for_ping(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                with socket.create_connection((self.host, self.port), timeout=5) as sock:
                    sock.sendall(b'{"id":0,"verb":"ping"}\n')
                    reply = json.loads(sock.makefile("rb").readline())
                    if reply.get("ok"):
                        return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered ping")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# the open-loop generator
# --------------------------------------------------------------------------- #
class Phase:
    """The requests of one offered schedule and what became of them."""

    def __init__(self, start: float, offsets: Sequence[float]) -> None:
        self.start = start
        #: Due time of each request, in sending order.
        self.dues = [start + offset for offset in offsets]
        #: Latency of each request from its due time; None if not answered OK.
        self.latency: List[Optional[float]] = [None] * len(self.dues)
        self.sent = 0
        self.refused = 0
        self.errors = 0
        self.late_max = 0.0
        self.last_answer = start
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.idle.set()
        #: request id -> payload, for the ids sampled for verification.
        self.kept: Dict[int, dict] = {}

    @property
    def failed(self) -> int:
        return self.sent - self.answered

    @property
    def answered(self) -> int:
        return sum(1 for latency in self.latency[:self.sent] if latency is not None)

    def latencies(self) -> List[float]:
        return [latency for latency in self.latency[:self.sent] if latency is not None]

    def windows(self, size: int) -> List[Tuple[float, float]]:
        """``(offered rate, p99)`` per window of ``size`` consecutive requests.

        A refused, failed or missing answer counts as an infinite latency:
        it misses any limit.
        """
        out = []
        for first in range(0, self.sent - size + 1, size):
            span = self.dues[first + size - 1] - self.dues[first]
            latencies = [math.inf if latency is None else latency
                         for latency in self.latency[first:first + size]]
            out.append(((size - 1) / span if span > 0 else math.inf,
                        percentile(latencies, 0.99)))
        return out


class LoadGenerator:
    """Sends requests on schedule over a few pipelined connections."""

    def __init__(self, points: Sequence[dict], stream: random.Random) -> None:
        self.points = points
        self.stream = stream
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.readers: List[asyncio.Task] = []
        #: request id -> (phase, position in the phase)
        self.pending: Dict[int, Tuple[Phase, int]] = {}
        self.keep: set = set()
        self.next_id = 1
        self.sent_points: Dict[int, int] = {}

    async def connect(self, host: str, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port, limit=2 ** 22)
            self.conns.append((reader, writer))
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def close(self) -> None:
        for _reader, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for _reader, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            message = json.loads(line)
            entry = self.pending.pop(message.get("id"), None)
            if entry is None:
                continue
            phase, position = entry
            if message.get("ok"):
                phase.latency[position] = now - phase.dues[position]
                phase.last_answer = max(phase.last_answer, now)
                if message["id"] in self.keep:
                    phase.kept[message["id"]] = message["result"]
            elif message.get("error") in REFUSALS:
                phase.refused += 1
            else:
                phase.errors += 1
            phase.outstanding -= 1
            if phase.outstanding == 0:
                phase.idle.set()

    def _send(self, phase: Phase, index: int, now: float) -> None:
        request_id = self.next_id
        self.next_id += 1
        position = phase.sent
        phase.sent += 1
        phase.late_max = max(phase.late_max, now - phase.dues[position])
        phase.outstanding += 1
        phase.idle.clear()
        self.pending[request_id] = (phase, position)
        self.sent_points[request_id] = index
        _reader, writer = self.conns[request_id % len(self.conns)]
        writer.write(canonical({"id": request_id, "verb": "evaluate",
                                "point": self.points[index]}) + b"\n")

    async def drive(self, offsets: Sequence[float], stop=None) -> Phase:
        """Send request *i* at ``offsets[i]`` seconds from now, then await answers.

        ``stop(phase)``, asked every 250 requests, ends the schedule early.
        """
        loop = asyncio.get_running_loop()
        phase = Phase(loop.time() + 0.002, offsets)
        total = len(phase.dues)
        while phase.sent < total:
            delay = phase.dues[phase.sent] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            # Everything due by now goes out in one burst, each request
            # keeping its own due time.
            while phase.sent < total and phase.dues[phase.sent] <= now:
                self._send(phase, self.stream.randrange(len(self.points)), now)
                if phase.sent % 250 == 0:
                    await asyncio.gather(*(writer.drain() for _r, writer in self.conns))
                    if stop is not None and stop(phase):
                        total = phase.sent
                        break
        await self.settle(phase, timeout=5.0)
        return phase

    async def burst(self, indices: Sequence[int], in_flight: int = 64) -> Phase:
        """Closed-loop pipelined requests (set-up only): ``in_flight`` at a time."""
        loop = asyncio.get_running_loop()
        phase = Phase(loop.time(), [0.0] * len(indices))
        for first in range(0, len(indices), in_flight):
            for index in indices[first:first + in_flight]:
                self._send(phase, index, phase.start)
            await self.settle(phase, timeout=30.0)
        return phase

    async def settle(self, phase: Phase, timeout: float) -> None:
        """Wait for every outstanding answer; forget the ones that never come."""
        try:
            await asyncio.wait_for(phase.idle.wait(), timeout)
        except asyncio.TimeoutError:
            for request_id in [k for k, v in self.pending.items() if v[0] is phase]:
                del self.pending[request_id]


async def _request(host: str, port: int, verb: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port, limit=2 ** 22)
    try:
        writer.write(canonical({"id": 1, "verb": verb}) + b"\n")
        return json.loads(await reader.readline())["result"]
    finally:
        writer.close()
        await writer.wait_closed()


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #
def constant(rate: float, seconds: float) -> List[float]:
    return [i / rate for i in range(int(round(rate * seconds)))]


def ramp(start_rate: float, end_rate: float, seconds: float) -> List[float]:
    """Due offsets of an exponential ramp from ``start_rate`` to ``end_rate``.

    The offered rate grows by the same factor every second, so every window
    of :data:`WINDOW` requests raises it by a similar share at any rate.
    """
    k = math.log(end_rate / start_rate) / seconds
    total = int((end_rate - start_rate) / k)
    return [math.log1p(i * k / start_rate) / k for i in range(total)]


def smoothed(windows: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``(rate, p99)`` with each p99 the median of it and its two neighbours.

    One slow window (a pause of the host) cannot cross the limit alone; a
    growing backlog raises every window after it, so it still does.
    """
    return [(windows[i][0], sorted(p99 for _rate, p99 in windows[i - 1:i + 2])[1])
            for i in range(1, len(windows) - 1)]


def crossing_rate(windows: Sequence[Tuple[float, float]], sustain: int) -> Optional[float]:
    """Offered rate where the smoothed p99 crosses the limit for good, or None.

    The crossing opens the run of smoothed windows over the limit that lasts
    to the end of the curve, provided that run is at least ``sustain`` long:
    a pause of the host lifts a few windows and then lets go, a growing
    backlog never does.  Interpolated in log latency between the last window
    under the limit and the first over it; an infinite p99 (a refusal) puts
    the crossing at the last window under it.
    """
    curve = smoothed(windows)
    first = len(curve)
    while first > 0 and curve[first - 1][1] > SLO_P99_S:
        first -= 1
    if len(curve) - first < max(1, sustain):
        return None
    if first == 0:
        return 0.0
    (rate_ok, p99_ok), (rate, p99) = curve[first - 1], curve[first]
    if math.isinf(p99):
        return rate_ok
    share = (math.log(SLO_P99_S) - math.log(p99_ok)) / (math.log(p99) - math.log(p99_ok))
    return rate_ok + (rate - rate_ok) * share


async def _capacity(gen: LoadGenerator, seconds: float) -> Tuple[float, List[str]]:
    """The highest offered rate meeting the limit, from one exponential ramp.

    The ramp starts at the fixed rate and would reach 9x it in ``seconds``;
    it stops once :data:`SUSTAIN` smoothed windows in a row are over the
    limit, and capacity is the offered rate where that run began.
    """
    def saturated(phase: Phase) -> bool:
        now = asyncio.get_running_loop().time()
        settled = sum(1 for due in phase.dues[:phase.sent] if due + 2 * SLO_P99_S < now)
        return crossing_rate(phase.windows(WINDOW)[:settled // WINDOW], SUSTAIN) is not None

    phase = await gen.drive(ramp(FIXED_RATE, 9 * FIXED_RATE, seconds), stop=saturated)
    windows = phase.windows(WINDOW)
    log = [f"{rate:.0f}/s p99 {p99 * 1e3:.1f} ms" for rate, p99 in windows]
    capacity = crossing_rate(windows, 1)
    if capacity is None:
        log.append("ramp ended under the limit")
        capacity = windows[-1][0]
    elif capacity == 0.0:
        # Over the limit from the first windows on: the service met it at no
        # offered rate of the ramp, so capacity is at most the lowest one.
        log.append("over the limit from the start of the ramp")
        capacity = windows[0][0]
    return capacity, log


def quiet_p99(p99s: Sequence[float]) -> float:
    """The lower quartile of the windows' p99s.

    On a shared host a pause of the machine inflates whole windows, and such
    pauses can cover half a run; the lower quartile is the tail the service
    shows while the host leaves it alone.  A change that slows every answer
    still moves it.
    """
    return percentile(p99s, 0.25)


def window_p99s(phase: Phase) -> List[float]:
    return [p99 for _rate, p99 in phase.windows(WINDOW)]


async def _prewarm(gen: LoadGenerator, seed: int, grids, points) -> Tuple[Phase, Phase]:
    """Compile every design, then fill the memo with distinct measured points."""
    compile_points = [make_point(grid, system="smache", iterations=1) for grid in grids]
    gen.points = list(points) + compile_points
    compiled = await gen.burst(range(len(points), len(points) + len(compile_points)))
    fill = await gen.burst(random.Random(seed + 2).sample(range(len(points)), MEMO_FILL))
    gen.points = points
    return compiled, fill


def _verify(outcome: Outcome, specs: Sequence[dict], payloads: Sequence[dict]) -> None:
    """Served payloads must be bitwise-equal to the scalar reference."""
    for spec, payload in zip(specs, payloads):
        problem, request = parse_point(spec)
        expected = result_payload(evaluate(problem, backend="analytic", request=request))
        outcome.check(canonical(payload) == canonical(expected),
                      f"served payload for {spec} differs from the scalar reference")
    outcome.check(len(payloads) > 0, "no served payload was verified")
    outcome.attempted += len(payloads)
    outcome.counters["verified_payloads_sha256"] = hashlib.sha256(
        b"".join(canonical(payload) for payload in payloads)).hexdigest()


async def _open_loop(seed: int, outcome: Outcome) -> Dict[str, float]:
    """The TCP server under open-loop load: fixed rate, then a ramp (traced runs)."""
    grids, points = point_space(seed)
    server = ServerProcess()
    metrics: Dict[str, float] = {}
    try:
        gen = LoadGenerator(points, random.Random(seed + 1))
        await gen.connect(server.host, server.port, connections())
        try:
            for phase in await _prewarm(gen, seed, grids, points):
                outcome.attempted += phase.sent
                outcome.failed += phase.failed
                outcome.check(phase.failed == 0, f"{phase.failed} set-up requests failed")
            # Keep the generator's own garbage collections short: set-up state
            # is never collected again, so it cannot stall a send.
            gc.collect()
            gc.freeze()
            stats_before = await _request(server.host, server.port, "stats")
            first = gen.next_id
            gen.keep = set(random.Random(seed + 3).sample(
                range(first, first + int(FIXED_RATE * OPEN_S)), VERIFY_SAMPLE))
            fixed = await gen.drive(constant(FIXED_RATE, OPEN_S))
            gen.keep = set()
            outcome.attempted += fixed.sent
            outcome.failed += fixed.failed
            outcome.check(fixed.failed == 0,
                          f"{fixed.failed} of {fixed.sent} requests at {FIXED_RATE:.0f}/s "
                          f"failed ({fixed.refused} refused)")
            _verify(outcome, [gen.points[gen.sent_points[i]] for i in sorted(fixed.kept)],
                    [fixed.kept[i] for i in sorted(fixed.kept)])
            stats_after = await _request(server.host, server.port, "stats")
            misses = stats_after["plan_cache"]["misses"] - stats_before["plan_cache"]["misses"]
            outcome.check(misses == 0, f"{misses} plan-cache misses after set-up")
            capacity, log = await _capacity(gen, RAMP_S)
        finally:
            await gen.close()
    finally:
        server.stop()
    latencies = fixed.latencies()
    p99s = window_p99s(fixed)
    achieved = fixed.answered / (fixed.last_answer - fixed.start)
    outcome.notes.append(
        f"TCP server, {FIXED_RATE:.0f}/s open loop for {OPEN_S:g} s: {len(latencies)} answers "
        f"({achieved:.0f}/s achieved), p50 {median(latencies) * 1e3:.2f} ms, p99 per "
        f"{WINDOW}-answer window " + " ".join(f"{p * 1e3:.2f}" for p in p99s)
        + f" ms, generator late by at most {fixed.late_max * 1e3:.2f} ms")
    outcome.notes.append("ramp windows: " + ", ".join(log))
    metrics.update(_stats_metrics(stats_before, stats_after))
    metrics.update({
        "serve.open_p50_ms": median(latencies) * 1e3,
        "serve.open_p99_ms": quiet_p99(p99s) * 1e3,
        "serve.open_capacity_rps": capacity,
        "serve.p99_samples": WINDOW,
        "loadgen.max_late_ms": fixed.late_max * 1e3,
        "loadgen.achieved_rps": achieved,
    })
    return metrics


async def _warm_service(seed: int, grids, points):
    """A fresh in-process service, its designs compiled and its memo filled."""
    import repro.serve.server as server_module
    from repro.pipeline.cache import plan_cache

    plan_cache.clear()
    service = server_module.EvaluationService()
    for grid in grids:
        await service.submit(make_point(grid, system="smache", iterations=1))
    for index in random.Random(seed + 2).sample(range(len(points)), MEMO_FILL):
        await service.submit(points[index])
    return service


async def _closed_loop(seed: int, seconds: float, outcome: Outcome) -> Dict[str, float]:
    """The service's request path, in process, under a closed loop of clients.

    Each answer runs the server's per-request path without the socket:
    decode the request line, ``EvaluationService.submit`` (parse, key, memo,
    batcher, engine), encode the response.  One process on one core, so
    every timed unit of :data:`UNIT` answers is host-normalised.
    """
    import repro.serve.server as server_module
    from repro.pipeline.cache import plan_cache
    from repro.serve.protocol import decode_line

    grids, points = point_space(seed)
    clock = HostClock()
    setups = []
    for _ in range(SET_UPS):
        before = HostClock.calibrate()
        started = time.perf_counter()
        service = await _warm_service(seed, grids, points)
        elapsed = time.perf_counter() - started
        setups.append(elapsed * NOMINAL_CALIBRATION_S / ((before + HostClock.calibrate()) / 2))
    setup_s = median(setups) + median(
        clock.around(lambda: fresh_import_seconds(IMPORTS))[0] for _ in range(SET_UPS))
    misses = plan_cache.cache_info().misses
    stream = random.Random(seed + 1)
    gc.collect()
    gc.freeze()

    async def unit(index: int):
        lines = [encode_request(number, points[stream.randrange(len(points))])
                 for number in range(UNIT)]
        pending = iter(lines)
        latencies: List[float] = []
        answers: Dict[int, Tuple[dict, dict]] = {}

        async def client() -> None:
            for line in pending:
                start = time.perf_counter()
                message = decode_line(line)
                payload, served_by = await service.submit(message["point"])
                server_module.encode({"id": message["id"], "ok": True,
                                      "served_by": served_by, "result": payload})
                latencies.append(time.perf_counter() - start)
                if index == 0 and message["id"] % (UNIT // VERIFY_SAMPLE) == 0:
                    answers[message["id"]] = (message["point"], payload)

        before = HostClock.calibrate()
        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        wall = time.perf_counter() - start
        factor = NOMINAL_CALIBRATION_S / ((before + HostClock.calibrate()) / 2)
        clock.factors.append(factor)
        return wall, [latency * factor for latency in latencies], factor, answers

    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < 3 or time.perf_counter() < deadline:
        units.append(await unit(len(units)))
    outcome.attempted += UNIT * len(units)
    misses = plan_cache.cache_info().misses - misses
    outcome.check(misses == 0, f"{misses} plan-cache misses after set-up")
    specs, payloads = zip(*(units[0][3][number] for number in sorted(units[0][3])))
    _verify(outcome, specs, payloads)
    latencies = [latency for _w, unit_latencies, _f, _a in units for latency in unit_latencies]
    raw = [UNIT / wall for wall, _l, _f, _a in units]
    outcome.notes.append(
        f"in-process closed loop, {CLIENTS} clients: {len(units)} units of {UNIT} answers; "
        f"raw answers/s median {median(raw):.0f} (range {min(raw):.0f}-{max(raw):.0f}); "
        f"{clock.describe()}")
    return {
        "throughput_per_s": median(UNIT / (wall * factor) for wall, _l, factor, _a in units),
        "latency_ms": median(latencies) * 1e3,
        "tail_latency_ms": median(
            percentile(unit_latencies, 0.99) for _w, unit_latencies, _f, _a in units) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib_self(),
    }


def encode_request(number: int, point: dict) -> bytes:
    return canonical({"id": number, "verb": "evaluate", "point": point})


def _stats_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer figures from two ``stats`` snapshots around the fixed-rate phase."""
    def delta(*path: str) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    flush_hist_before = {int(k): v for k, v in before["batches"]["histogram"].items()}
    flush_hist_after = {int(k): v for k, v in after["batches"]["histogram"].items()}
    flushes = sum(flush_hist_after.values()) - sum(flush_hist_before.values())
    batched = (sum(k * v for k, v in flush_hist_after.items())
               - sum(k * v for k, v in flush_hist_before.items()))
    mean_size = batched / flushes if flushes else 0.0
    memo_lookups = delta("memo", "hits") + delta("memo", "misses")
    knob_lookups = delta("engine", "hits") + delta("engine", "misses")
    sessions = delta("engine", "session_hits") + delta("engine", "session_misses")
    folds = delta("engine", "fold_hits") + delta("engine", "fold_misses")
    plan_lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    return {
        "serve.memo_hit_ratio": delta("memo", "hits") / memo_lookups if memo_lookups else 0.0,
        "serve.batch_mean_size": mean_size,
        # The server's default max_batch is 64.
        "serve.batch_fill_ratio": mean_size / 64.0,
        "serve.flushes": flushes,
        "serve.rejected": delta("requests", "rejected"),
        "serve.timeouts": delta("breaker", "timeouts"),
        "serve.shed": delta("breaker", "shed"),
        "plan_cache.hits": delta("plan_cache", "hits"),
        "plan_cache.misses": delta("plan_cache", "misses"),
        "plan_cache.hit_ratio": delta("plan_cache", "hits") / plan_lookups if plan_lookups else 0.0,
        "pricing.knob_hit_ratio": delta("engine", "hits") / knob_lookups if knob_lookups else 0.0,
        "pricing.session_hit_ratio": (
            delta("engine", "session_hits") / sessions if sessions else 0.0),
        "pricing.fold_hit_ratio": delta("engine", "fold_hits") / folds if folds else 0.0,
    }


# --------------------------------------------------------------------------- #
# traced in-process replay
# --------------------------------------------------------------------------- #
async def _replay(seed: int, tracer: Optional[Tracer]) -> Tuple[Dict[str, float], float]:
    """Replay the request stream through an in-process ``EvaluationService``.

    Same seeded stream, same pre-warm, paced at the fixed rate.  Returns the
    traced figures (empty untraced) and the process CPU time of the paced
    replay, whose difference between traced and untraced is the overhead.
    """
    import repro.serve.server as server_module
    from repro.pipeline.analytic_batch import AnalyticBatchEngine
    from repro.pipeline.cache import plan_cache

    grids, points = point_space(seed)
    service = await _warm_service(seed, grids, points)
    stream = random.Random(seed + 1)
    order = [stream.randrange(len(points)) for _ in range(REPLAY)]

    submitted: Dict[int, float] = {}
    waits: List[float] = []
    if tracer is not None:
        tracer.wrap(server_module, "parse_point", "serve.parse")
        tracer.wrap(server_module, "point_key", "serve.key")
        tracer.wrap(server_module, "encode", "serve.encode")
        tracer.wrap(service.memo, "get", "serve.memo")
        tracer.wrap(service.memo, "put", "serve.memo")
        tracer.wrap(AnalyticBatchEngine, "price_batch", "pricing",
                    weigh=lambda engine, problems, *a, **k: len(problems))
        # Set-up compiled every design: a compile here would be a plan-cache miss.
        tracer.wrap(importlib.import_module("repro.pipeline.compile"), "_build", "compile")
        batcher = service.batcher
        submit, flush = batcher.submit, batcher._flush

        def traced_submit(problem, request):
            future = submit(problem, request)
            submitted[id(future)] = time.perf_counter()
            return future

        def traced_flush(signature, why):
            bucket = batcher._buckets.get(signature)
            begun = time.perf_counter()
            if bucket is not None:
                for _problem, future in bucket.items:
                    waits.append(begun - submitted.pop(id(future), begun))
            with tracer.span("serve.flush"):
                flush(signature, why)

        tracer.patch(batcher, "submit", traced_submit)
        tracer.patch(batcher, "_flush", traced_flush)

    loop = asyncio.get_running_loop()
    tasks = []

    async def one(number: int, index: int) -> None:
        async def body() -> None:
            payload, served_by = await service.submit(points[index])
            server_module.encode({"id": number, "ok": True, "served_by": served_by,
                                  "result": payload})
        if tracer is None:
            await body()
        else:
            with tracer.span("serve.request", request=number):
                await body()

    cpu = time.process_time()
    start = loop.time() + 0.002
    try:
        for number, index in enumerate(order):
            delay = start + number / FIXED_RATE - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(number, index)))
        await asyncio.gather(*tasks)
    finally:
        if tracer is not None:
            tracer.restore()
    cpu = time.process_time() - cpu
    if tracer is None:
        return {}, cpu
    own = tracer.self_times()
    figures = {
        "serve.parse_s": own.get("serve.parse", 0.0),
        "serve.key_s": own.get("serve.key", 0.0),
        "serve.memo_s": own.get("serve.memo", 0.0),
        "serve.batch_wait_s": sum(waits),
        "serve.encode_s": own.get("serve.encode", 0.0),
        "serve.flush_self_s": own.get("serve.flush", 0.0),
        "pricing.calls": tracer.count("pricing"),
        "pricing.points": tracer.weights["pricing"],
        "pricing.points_per_call": (
            tracer.weights["pricing"] / tracer.count("pricing") if tracer.count("pricing") else 0.0),
        "pricing.self_s": own.get("pricing", 0.0),
        "compile.calls": tracer.count("compile"),
    }
    return figures, cpu


def serve(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    outcome = Outcome()
    if not trace:
        outcome.metrics.update(asyncio.run(_closed_loop(seed, seconds, outcome)))
        return outcome
    metrics = asyncio.run(_open_loop(seed, outcome))
    _untraced, cpu_plain = asyncio.run(_replay(seed, None))
    tracer = Tracer()
    figures, cpu_traced = asyncio.run(_replay(seed, tracer))
    metrics.update(figures)
    metrics["trace.overhead_s"] = cpu_traced - cpu_plain
    metrics["trace.spans"] = len(tracer.spans)
    tracer.dump(str(trace_path))
    outcome.notes.append(
        f"in-process replay of {REPLAY} requests: CPU {cpu_plain:.3f} s untraced, "
        f"{cpu_traced:.3f} s traced; {tracer.layer_table(exclude=('serve.request',))}")
    outcome.metrics.update(metrics)
    return outcome
