"""Open-loop WebSocket load against ``repro gateway`` in its own process.

One generator process, one asyncio loop, at most ``nproc`` WebSocket
connections, many sensor ids multiplexed on each.  Every request is
sent at its due time from a pre-encoded tape (JSON and masking happen
before timing), and its latency runs from that *due* time to the
arrival of its reply, so a generator stall is charged to the requests
it delayed.  How late each send actually went out is reported as
generator lag; a run whose lag exceeds :data:`LAG_LIMIT_MS` is invalid.

A run of a ``ws-*`` workload is

1. ``SETUP_SPAWNS`` fresh gateway processes, each timed from spawn to
   its first answered estimate (``setup_s`` is their median); the last
   one is the process under test,
2. a steady phase at the workload's fixed offered rate (latency,
   accuracy, failures, touch events, and the gateway's CPU time, from
   which ``capacity_rps`` is the requests served per CPU-second),
3. correctness checks against an in-process ``invert_batch`` over the
   same phases, and, for the lifecycle workload, against the post-hoc
   ``GET /v1/touch_events``.

A :class:`speed.SpeedProbe` on the gateway's CPU runs throughout, and
every timing is normalized to the reference host speed (latency and
capacity with :data:`GATEWAY_SENSITIVITY`).
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (BENCH_DIR, ROOT, STATE, child_env, cpu_roles, median,
                    peak_rss_mb, percentile, pin_process)
from speed import SpeedProbe, SpeedTrace
from workloads import (SAMPLE_PERIOD_S, PressSource, Tape, Workload,
                       arrival_offsets, sensor_config, sensor_id)

_perf = time.perf_counter

#: Power of the probe's slowdown that gateway latency and CPU time are
#: divided by.  The gateway's work is less sensitive to the host's
#: speed mode than the probe's reference pass: between a fast and a
#: slow period on a 2-vCPU sandbox the reference pass slowed 2.2x while
#: the gateway's CPU time per request on ``ws-grid-steady`` grew 1.43x,
#: and 1.31x against 1.11x on ``ws-touch-lifecycle`` (exponents 0.45
#: and 0.39).  Set-up (imports) follows the reference pass (exponent
#: 0.9), so it is divided by the plain slowdown.
GATEWAY_SENSITIVITY = 0.5
#: Highest tolerated share of failed requests in the steady phase.
MAX_FAILED_SHARE = 0.001
#: Latency percentiles are taken per window of this many seconds of
#: due time.
WINDOW_S = 1.0
#: Unmeasured warm-up before the steady phase [s], and the lifecycle
#: sensor group it uses (the steady phase is group 0).
WARMUP_S = 1.0
WARMUP_GROUP = 999
#: Share of ``--seconds`` given to the steady phase.
STEADY_SHARE = 0.75
#: Gateway processes spawned per run to time set-up.
SETUP_SPAWNS = 3
#: Generator lag p99 above which a run is invalid [ms].
LAG_LIMIT_MS = 25.0
#: Bound on waiting for the replies of one phase after its last send.
DRAIN_S = 5.0
#: Sequence number of the set-up probe (outside every tape).
SETUP_SEQUENCE = 1 << 40
#: Bound on a gateway process start (cold imports on a busy machine).
START_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# WebSocket client (client frames masked, server frames plain)
# ----------------------------------------------------------------------

def _mask(payload: bytes, key: bytes) -> bytes:
    data = np.frombuffer(payload, dtype=np.uint8)
    keys = np.resize(np.frombuffer(key, dtype=np.uint8), data.size)
    return (data ^ keys).tobytes()


def encode_text_frame(payload: bytes, key: bytes) -> bytes:
    """One masked, final text frame."""
    length = len(payload)
    if length <= 125:
        head = bytes((0x81, 0x80 | length))
    elif length <= 0xFFFF:
        head = bytes((0x81, 0x80 | 126)) + length.to_bytes(2, "big")
    else:
        head = bytes((0x81, 0x80 | 127)) + length.to_bytes(8, "big")
    return head + key + _mask(payload, key)


class WsClient(asyncio.Protocol):
    """One WebSocket connection; hands every text message to ``sink``."""

    def __init__(self, sink, host: str, port: int, key_seed: int):
        self.sink = sink
        self.host = host
        self.port = port
        self.mask_key = int(key_seed & 0xFFFFFFFF).to_bytes(4, "big")
        self.transport = None
        self.buffer = bytearray()
        self.upgraded = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        key = base64.b64encode(self.mask_key * 4).decode()
        transport.write(
            (f"GET /v1/stream HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
             "Upgrade: websocket\r\nConnection: Upgrade\r\n"
             f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n"
             "\r\n").encode())

    def data_received(self, data: bytes) -> None:
        now = _perf()
        self.buffer += data
        if not self.upgraded.done():
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            status = bytes(self.buffer[:end]).split(b"\r\n", 1)[0]
            del self.buffer[:end + 4]
            if b" 101 " not in status + b" ":
                self.upgraded.set_exception(ConnectionError(
                    f"handshake refused: {status!r}"))
                return
            self.upgraded.set_result(True)
        buffer = self.buffer
        offset = 0
        size = len(buffer)
        while size - offset >= 2:
            opcode = buffer[offset] & 0x0F
            length = buffer[offset + 1] & 0x7F
            head = 2
            if length == 126:
                if size - offset < 4:
                    break
                length = int.from_bytes(buffer[offset + 2:offset + 4], "big")
                head = 4
            elif length == 127:
                if size - offset < 10:
                    break
                length = int.from_bytes(buffer[offset + 2:offset + 10],
                                        "big")
                head = 10
            if size - offset < head + length:
                break
            payload = bytes(buffer[offset + head:offset + head + length])
            offset += head + length
            if opcode == 0x1:
                self.sink(json.loads(payload), now)
        del buffer[:offset]

    def connection_lost(self, exc) -> None:
        if not self.upgraded.done():
            self.upgraded.set_exception(
                ConnectionError("connection lost before the upgrade"))

    def send(self, frame: bytes) -> None:
        self.transport.write(frame)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


async def open_ws(sink, host: str, port: int, key_seed: int) -> WsClient:
    loop = asyncio.get_running_loop()
    _, client = await loop.create_connection(
        lambda: WsClient(sink, host, port, key_seed), host, port)
    await asyncio.wait_for(client.upgraded, 30.0)
    return client


async def http_get_json(host: str, port: int, target: str) -> dict:
    """One ``GET`` on a fresh connection; the JSON body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"GET {target} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                      "Connection: close\r\n\r\n").encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 30.0)
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0] + b" ":
        raise RuntimeError(f"GET {target} answered {head[:60]!r}")
    return json.loads(body)


# ----------------------------------------------------------------------
# The process under test
# ----------------------------------------------------------------------

class GatewayProcess:
    """``repro gateway`` in a child process, timed from spawn."""

    def __init__(self, trace_path: Optional[str] = None):
        self.trace_path = trace_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.spawned_at = 0.0
        self._drain_task = None
        STATE.mkdir(parents=True, exist_ok=True)
        self._log = open(STATE / "gateway.log", "ab")

    async def start(self) -> None:
        extra = {"PERFBENCH_TRACE_OUT": self.trace_path} \
            if self.trace_path else None
        self.spawned_at = _perf()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(BENCH_DIR / "server_proc.py"),
            stdout=asyncio.subprocess.PIPE, stderr=self._log,
            env=child_env(extra), cwd=str(ROOT))
        pin_process(self.proc.pid, cpu_roles()[1])
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      START_TIMEOUT_S)
        text = line.decode(errors="replace")
        if "listening on http://" not in text:
            raise RuntimeError(f"gateway did not start: {text!r}")
        address = text.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        self._drain_task = asyncio.ensure_future(self._drain_stdout())

    async def _drain_stdout(self) -> None:
        while await self.proc.stdout.readline():
            pass

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """CPU time of every thread of the gateway so far [s]."""
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/schedstat",
                          "r", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass            # a thread that ended since the listing
        return total * 1e-9

    async def stop(self) -> None:
        """SIGINT (the gateway's clean shutdown), then wait; kill on
        timeout.  Always waits for the process to end."""
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                await asyncio.wait_for(self.proc.wait(), 15.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        self._log.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

@dataclass
class Phase:
    """The requests of one timed phase and what came back."""

    first: int                 # global index of the first request
    due: np.ndarray            # absolute due times [perf_counter s]
    tape: Tape = None
    sent: np.ndarray = None
    arrival: Dict[int, float] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return int(self.due.size)

    def latencies_ms(self, speed: Optional[SpeedTrace] = None,
                     ) -> List[float]:
        """Latency of each answered request [ms], divided by the host
        slowdown at its due time (to the power
        :data:`GATEWAY_SENSITIVITY`) when ``speed`` is given."""
        rows = [i for i in range(self.count)
                if self.first + i in self.arrival]
        slowdown = speed.at(self.due[rows], GATEWAY_SENSITIVITY) \
            if speed is not None \
            else np.ones(len(rows))
        return [1e3 * (self.arrival[self.first + i] - self.due[i]) / factor
                for i, factor in zip(rows, slowdown)]

    def window_percentiles(self, q: float,
                           speed: Optional[SpeedTrace] = None,
                           ) -> List[float]:
        """Latency percentile ``q`` [ms] of each ``WINDOW_S`` window of
        due time."""
        rows = [i for i in range(self.count)
                if self.first + i in self.arrival]
        windows: Dict[int, List[float]] = {}
        for i, latency in zip(rows, self.latencies_ms(speed)):
            windows.setdefault(int((self.due[i] - self.due[0]) / WINDOW_S),
                               []).append(latency)
        return [percentile(windows[key], q) for key in sorted(windows)]

    def window_percentile(self, q: float,
                          speed: Optional[SpeedTrace] = None) -> float:
        """Median over windows of :meth:`window_percentiles`, so one
        stall moves one window, not the figure."""
        return median(self.window_percentiles(q, speed))

    def lag_ms(self) -> List[float]:
        return list(1e3 * (self.sent - self.due))

    def failed(self) -> int:
        return self.count - len(self.arrival)


class LoadGenerator:
    """Drives one gateway over ``connections`` WebSocket connections."""

    def __init__(self, workload: Workload, source: PressSource, seed: int,
                 connections: int):
        self.workload = workload
        self.source = source
        self.seed = seed
        self.connections = connections
        self.clients: List[WsClient] = []
        self.tapes: List[Tape] = []
        self.replies: Dict[int, dict] = {}
        self.events: Dict[str, List[Tuple[int, dict, float]]] = {}
        self.subscribed = 0
        self.unexpected: List[dict] = []
        self.phase: Optional[Phase] = None
        self._outstanding = 0
        self._idle = asyncio.Event()
        self.config = sensor_config(workload)

    # -- messages ------------------------------------------------------

    def on_message(self, message: dict, now: float) -> None:
        kind = message.get("type")
        if kind == "estimate":
            response = message["response"]
            self._answer(int(response["sequence"]), now)
            self.replies[int(response["sequence"])] = response["estimate"]
        elif kind == "error":
            sequence = message.get("sequence")
            if isinstance(sequence, int) and sequence >= 0:
                self._answer(sequence, None)
            else:
                self.unexpected.append(message)
        elif kind == "touch_event":
            self.events.setdefault(message["sensor_id"], []).append(
                (int(message["index"]), message["event"], now))
        elif kind == "subscribed":
            self.subscribed += 1
        else:
            self.unexpected.append(message)

    def _answer(self, sequence: int, now: Optional[float]) -> None:
        phase = self.phase
        if phase is None or not (
                phase.first <= sequence < phase.first + phase.count):
            return
        if now is not None:
            phase.arrival[sequence] = now
        self._outstanding -= 1
        if self._outstanding <= 0:
            self._idle.set()

    # -- connections ---------------------------------------------------

    async def connect(self, port: int) -> None:
        for index in range(self.connections):
            self.clients.append(await open_ws(
                self.on_message, "127.0.0.1", port,
                key_seed=self.seed * 7919 + index + 1))

    def close(self) -> None:
        for client in self.clients:
            client.close()

    async def subscribe_group(self, group: int) -> None:
        """Subscribe every sensor of one lifecycle group to its events."""
        sensors = self.workload.sensors
        target = self.subscribed + sensors
        for sensor in range(group * sensors, (group + 1) * sensors):
            name = sensor_id(self.workload, sensor)
            self.clients[sensor % self.connections].send(encode_text_frame(
                json.dumps({"type": "subscribe",
                            "sensor_id": name}).encode(),
                self.clients[0].mask_key))
        deadline = _perf() + 30.0
        while self.subscribed < target:
            if _perf() > deadline:
                raise RuntimeError("touch-event subscriptions unanswered")
            await asyncio.sleep(0.005)

    # -- phases --------------------------------------------------------

    def _frames(self, tape: Tape, first: int) -> List[bytes]:
        key = self.clients[0].mask_key
        frames = []
        for row in range(len(tape)):
            sensor = int(tape.sensor[row])
            request = {
                "sensor_id": sensor_id(self.workload, sensor),
                "sequence": first + row,
                "time": float(tape.sample[row]) * SAMPLE_PERIOD_S,
                "phi1": float(tape.phi1[row]),
                "phi2": float(tape.phi2[row]),
                "config": self.config,
            }
            frames.append(encode_text_frame(json.dumps(
                {"type": "estimate", "request": request}).encode(), key))
        return frames

    async def run_phase(self, rate: float, seconds: float,
                        arrival: str, tag: int, group: int = 0) -> Phase:
        """Send ``rate * seconds`` requests on schedule; await replies.

        Lifecycle workloads subscribe the phase's sensor group first.
        """
        if self.workload.lifecycle:
            await self.subscribe_group(group)
        count = max(1, int(round(rate * seconds)))
        tape = self.source.take(count, group)
        first = sum(len(t) for t in self.tapes)
        self.tapes.append(tape)
        frames = self._frames(tape, first)
        owners = [self.clients[int(s) % self.connections]
                  for s in tape.sensor]
        offsets = arrival_offsets(count, rate, arrival,
                                  self.seed * 1000 + tag)
        # The generator's own heap (replies, tapes) is collected here,
        # never mid-phase, where a pause would show up as send lag.
        gc.collect()
        gc.disable()
        start = _perf() + 0.02
        phase = Phase(first=first, due=start + offsets, tape=tape)
        phase.sent = np.zeros(count)
        self.phase = phase
        self._outstanding = count
        self._idle.clear()
        due = phase.due
        sent = phase.sent
        index = 0
        while index < count:
            now = _perf()
            if due[index] > now:
                await asyncio.sleep(due[index] - now)
                continue
            burst = 0
            while index < count and due[index] <= now and burst < 256:
                owners[index].send(frames[index])
                sent[index] = now
                index += 1
                burst += 1
            if burst == 256:
                await asyncio.sleep(0)
        try:
            await asyncio.wait_for(self._idle.wait(), DRAIN_S + seconds)
        except asyncio.TimeoutError:
            pass
        finally:
            gc.enable()
        self.phase = None
        return phase


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def expected_estimates(model, workload: Workload, tape: Tape):
    """In-process ``invert_batch`` over the phases the gateway saw."""
    from repro.core.estimator import build_estimator

    options = {} if workload.backend == "grid" else {
        "carrier_frequency": 900e6, "fast": True}
    estimator = build_estimator(model, backend=workload.backend,
                                touch_threshold_deg=5.0, **options)
    return estimator.invert_batch(tape.phi1, tape.phi2)


def check_replies(generator: LoadGenerator, model) -> Tuple[List[str], dict]:
    """Every reply equals the in-process inversion exactly."""
    problems: List[str] = []
    tapes = generator.tapes
    joined = Tape(*(np.concatenate([getattr(t, name) for t in tapes])
                    for name in ("sensor", "sample", "phi1", "phi2",
                                 "force", "location", "touched")))
    answered = sorted(generator.replies)
    rows = np.array(answered, dtype=int)
    if rows.size == 0:
        return ["no estimate was answered"], {}
    subset = Tape(*(getattr(joined, name)[rows] for name in (
        "sensor", "sample", "phi1", "phi2", "force", "location",
        "touched")))
    expected = expected_estimates(model, generator.workload, subset)
    worst = {"force": 0.0, "location": 0.0, "residual": 0.0}
    mismatched = 0
    for position, sequence in enumerate(answered):
        got = generator.replies[sequence]
        deltas = {
            "force": abs(got["force"] - float(expected.force[position])),
            "location": abs(got["location"]
                            - float(expected.location[position])),
            "residual": abs(got["residual"]
                            - float(expected.residual[position])),
        }
        touched = bool(got["touched"]) == bool(expected.touched[position])
        if any(deltas.values()) or not touched:
            mismatched += 1
        for name, value in deltas.items():
            worst[name] = max(worst[name], value)
    if mismatched:
        problems.append(f"{mismatched} replies differ from in-process "
                        f"invert_batch (max deltas {worst})")
    return problems, {"replies_checked": len(answered),
                      "max_delta": worst}


def accuracy(generator: LoadGenerator, phase: Phase) -> Tuple[float, float]:
    """p90 |force error| [N] and |location error| [mm] over the steady
    phase's pressed samples."""
    tape = phase.tape
    force_err: List[float] = []
    location_err: List[float] = []
    for row in range(phase.count):
        if not tape.touched[row]:
            continue
        got = generator.replies.get(phase.first + row)
        if got is None:
            continue
        force_err.append(abs(got["force"] - float(tape.force[row])))
        location_err.append(1e3 * abs(got["location"]
                                      - float(tape.location[row])))
    return percentile(force_err, 90), percentile(location_err, 90)


async def check_touch_events(generator: LoadGenerator, port: int,
                             steady: Phase) -> Tuple[List[str], dict]:
    """Pushed events equal the post-hoc query, one per closed press;
    event latency from the due time of each press's closing sample."""
    workload = generator.workload
    source = generator.source
    sent = steady.count
    problems: List[str] = []
    latencies: List[float] = []
    pushed_total = 0
    steady_due = {steady.first + i: steady.due[i]
                  for i in range(steady.count)}
    for sensor in range(workload.sensors):
        name = sensor_id(workload, sensor)
        samples_sent = len(range(sensor, sent, workload.sensors))
        closing = source.closing_samples(sensor)
        closed = int(np.sum(closing < samples_sent))
        pushed = sorted(generator.events.get(name, []),
                        key=lambda item: item[0])
        pushed_total += len(pushed)
        queried = (await http_get_json(
            "127.0.0.1", port,
            f"/v1/touch_events?sensor_id={name}"))["events"]
        if [index for index, _, _ in pushed] != list(range(len(pushed))):
            problems.append(f"{name}: pushed event indices out of order")
        if len(pushed) != closed:
            problems.append(f"{name}: {len(pushed)} events pushed for "
                            f"{closed} generated presses")
        if [event for _, event, _ in pushed] != queried[:len(pushed)]:
            problems.append(f"{name}: pushed events differ from "
                            "GET /v1/touch_events")
        if len(queried) not in (closed, closed + 1):
            problems.append(f"{name}: query returned {len(queried)} events "
                            f"for {closed} closed presses")
        for index, _, arrived in pushed:
            if index >= closed:
                continue
            sequence = (steady.first + int(closing[index]) * workload.sensors
                        + sensor)
            due = steady_due.get(sequence)
            if due is not None:
                latencies.append(1e3 * (arrived - due))
    return problems, {"events_pushed": pushed_total,
                      "event_latency_ms": latencies}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

async def measure_setup(workload: Workload, spawns: int,
                        trace_path: Optional[str] = None,
                        ) -> Tuple[List[Tuple[float, float]],
                                   GatewayProcess]:
    """Spawn ``spawns`` gateways, each timed to its first answer; the
    last stays up (traced when ``trace_path`` is given) and is
    returned."""
    spans: List[Tuple[float, float]] = []
    keep: Optional[GatewayProcess] = None
    for index in range(spawns):
        last = index + 1 == spawns
        gateway = GatewayProcess(trace_path if last else None)
        try:
            answered = await first_answer(gateway, workload)
            spans.append((gateway.spawned_at, answered))
        except BaseException:
            await gateway.stop()
            raise
        if last:
            keep = gateway
        else:
            await gateway.stop()
    return spans, keep


async def first_answer(gateway: GatewayProcess, workload: Workload,
                       ) -> float:
    """Start ``gateway``; the perf_counter time of its first estimate."""
    answered = asyncio.get_running_loop().create_future()

    def sink(message: dict, now: float) -> None:
        if not answered.done():
            answered.set_result((message, now))

    await gateway.start()
    client = await open_ws(sink, "127.0.0.1", gateway.port, key_seed=1)
    try:
        request = {"sensor_id": "perfbench-setup", "sequence": SETUP_SEQUENCE,
                   "time": 0.0, "phi1": -1.5, "phi2": -1.8,
                   "config": sensor_config(workload)}
        client.send(encode_text_frame(json.dumps(
            {"type": "estimate", "request": request}).encode(),
            client.mask_key))
        message, now = await asyncio.wait_for(answered, START_TIMEOUT_S)
    finally:
        client.close()
    if message.get("type") != "estimate":
        raise RuntimeError(f"set-up probe failed: {message}")
    return now


async def run_steady(workload: Workload, model, seed: int, seconds: float,
                     gateway: GatewayProcess, connections: int):
    """Connect, warm up, and run the steady phase.

    The warm-up (``WARMUP_S`` at the steady rate, on its own sensor
    group for lifecycle streams) opens the sessions and faults in the
    hot paths, so the steady phase measures a served state.  Returns
    the generator, both phases, and the gateway's CPU time over the
    steady phase with the span it was taken over.
    """
    source = PressSource(model, workload, seed)
    generator = LoadGenerator(workload, source, seed, connections)
    await generator.connect(gateway.port)
    warmup = await generator.run_phase(workload.rate_rps, WARMUP_S,
                                       workload.arrival, tag=1,
                                       group=WARMUP_GROUP)
    await asyncio.sleep(0.1)
    began, cpu = _perf(), gateway.cpu_seconds()
    steady = await generator.run_phase(workload.rate_rps, seconds,
                                       workload.arrival, tag=0)
    await asyncio.sleep(0.2)
    busy = {"start": began, "end": _perf(),
            "cpu_s": gateway.cpu_seconds() - cpu}
    return generator, warmup, steady, busy


def connection_count() -> int:
    return max(1, min(2, os.cpu_count() or 1))


async def run_ws(workload: Workload, model, seed: int, seconds: float,
                 ) -> dict:
    """End-to-end metrics of one ``ws-*`` run (tracing off)."""
    probe = SpeedProbe(cpu_roles()[1], str(STATE / "speed-gateway.json"))
    await probe.start()
    try:
        setup, gateway = await measure_setup(workload, SETUP_SPAWNS)
        try:
            generator, _, steady, busy = await run_steady(
                workload, model, seed, STEADY_SHARE * seconds, gateway,
                connection_count())
            try:
                rss = gateway.rss_mb()
                problems: List[str] = []
                events = {"event_latency_ms": []}
                if workload.lifecycle:
                    problems, events = await check_touch_events(
                        generator, gateway.port, steady)
                reply_problems, detail = check_replies(generator, model)
                problems += reply_problems
            finally:
                generator.close()
        finally:
            await gateway.stop()
    finally:
        speed = await probe.stop()
    if speed is None:
        raise RuntimeError("the speed probe failed")
    if generator.unexpected:
        problems.append(f"unexpected messages: {generator.unexpected[:3]}")
    lag = steady.lag_ms()
    force_p90, location_p90 = accuracy(generator, steady)
    failed = steady.failed()
    if failed / steady.count > MAX_FAILED_SHARE:
        problems.append(f"{failed} of {steady.count} steady requests failed")
    if percentile(lag, 99) > LAG_LIMIT_MS:
        problems.append(f"generator lag p99 {percentile(lag, 99):.2f} ms "
                        f"exceeds {LAG_LIMIT_MS} ms: run invalid")
    served = len(steady.arrival)
    cpu_s = busy["cpu_s"] / speed.over(busy["start"], busy["end"],
                                       GATEWAY_SENSITIVITY)
    windows = steady.window_percentiles(50, speed)
    event_latency = events["event_latency_ms"]
    return {
        "attempted": steady.count,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median([speed.normalize(*span) for span in setup]),
            "latency_p50_ms": min(windows),
            "latency_p99_ms": steady.window_percentile(99, speed),
            "capacity_rps": served / cpu_s,
            "force_err_p90_n": force_p90,
            "location_err_p90_mm": location_p90,
            "server_rss_mb": rss,
        },
        "detail": {
            "setup_s_raw": [end - start for start, end in setup],
            "latency_p50_raw_ms": min(steady.window_percentiles(50)),
            "capacity_raw_rps": served / busy["cpu_s"],
            "speed_factor": speed.mean(),
            "steady": dict(requests=steady.count, rate_rps=workload.rate_rps,
                           cpu_busy_share=busy["cpu_s"] / (busy["end"]
                                                            - busy["start"]),
                           p50_ms=median(steady.latencies_ms(speed)),
                           window_p50_ms=windows,
                           window_p99_ms=steady.window_percentiles(99, speed),
                           lag_p50_ms=median(lag),
                           lag_p99_ms=percentile(lag, 99)),
            "failed_share": failed / steady.count,
            "event_latency_p50_ms": (median(event_latency)
                                     if event_latency else 0.0),
            "event_latency_p99_ms": (percentile(event_latency, 99)
                                     if event_latency else 0.0),
            "checks": detail,
        },
    }
