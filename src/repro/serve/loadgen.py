"""Synthetic multi-sensor load: the one driver behind every serving bench.

Drives the serve stack with a reproducible fleet of sensor streams
whose phases come from the calibrated model's own forward prediction
(plus measurement noise), through one of two transports that share a
single contract, ``async (service, requests, offsets) -> (outcomes,
client_latencies, wall)``:

* ``"inprocess"`` (:func:`run_service_load`) awaits ``.estimate`` on
  an :class:`InferenceService`, or on a
  :class:`ShardedInferenceService` when ``LoadProfile.shards > 1``
  (every shard on the one event loop);
* ``"gateway"`` (:func:`run_gateway_load`) boots a loopback
  :class:`repro.gateway.Gateway` around the service and opens one
  authenticated WebSocket per sensor stream.

Outcomes come back in request order, each an :class:`EstimateResponse`
or the exception the request ended in (backpressure and quota replies
are :class:`QueueFullError`, any other failure :class:`GatewayError`)
— the survival taxonomy :mod:`repro.faults.chaos` counts with.

:func:`run_benchmark` reports tail latency, throughput, mean
micro-batch size, and the speedup over a reference run on the same
tape, together with an element-wise parity check against it, since
serving must never change the numbers.  The reference is the serial
scalar ``invert`` loop for a plain in-process run, and the plain
in-process service for a gateway or sharded run.  ``python -m repro
bench`` and ``benchmarks/test_perf_{serve,gateway,fleet}.py`` write
the report to ``benchmarks/results/BENCH_{serve,gateway,fleet}.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ESTIMATOR_BACKENDS
from repro.errors import GatewayError, QueueFullError, ServeError
from repro.gateway.auth import Tenant, TenantTable
from repro.gateway.client import WebSocketClient
from repro.gateway.server import Gateway
from repro.obs.manifest import stamp_report
from repro.obs.profiler import Profiler
from repro.obs.registry import observed
from repro.serve.protocol import EstimateRequest, EstimateResponse, SensorConfig
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import InferenceService
from repro.serve.session import ModelFactory
from repro.serve.shard import ShardedInferenceService

#: One request's fate: the response, or the exception it ended in.
Outcome = Union[EstimateResponse, BaseException]

#: Per-tenant quota on the gateway transport: effectively unlimited,
#: so ``rejection_rate`` measures backpressure, not the limiter.
TENANT_RATE_PER_S = 1e6


@dataclass(frozen=True)
class LoadProfile:
    """One synthetic load shape.

    Attributes:
        sensors: Concurrent sensor streams (one gateway connection
            each on the gateway transport).
        requests_per_sensor: Samples per stream.
        max_batch / max_delay_s: Scheduler policy under test.
        touch_fraction: Fraction of samples that carry a press (the
            rest are untouched, below-threshold phases).
        phase_noise_deg: Measurement noise on the synthetic phases.
        sample_period_s: Stream timestamp spacing [s].
        carrier_frequency / fast / touch_threshold_deg / backend:
            Sensor config shared by the whole fleet (``backend``
            selects the inversion strategy, ``"grid"`` |
            ``"surrogate"``).
        seed: Reproducibility seed for the synthetic presses.
        arrival: Arrival-pattern shape for request submission:
            ``"uniform"`` spaces requests evenly at
            ``arrival_rate_rps``; ``"pareto"`` draws heavy-tailed
            (bursty) inter-arrival gaps with the same mean rate — the
            fleet-scale pattern real sensor swarms produce, where long
            quiet stretches alternate with packed bursts.
        arrival_rate_rps: Mean aggregate arrival rate [req/s]; 0 (the
            default) submits every request at once (closed loop).
        pareto_alpha: Tail exponent for ``"pareto"`` arrivals (must
            be > 1 so the mean gap is finite; smaller = burstier).
        shards: Consistent-hash service shards; > 1 serves the load
            from a :class:`ShardedInferenceService` on one event loop.
        vnodes: Virtual nodes per shard on the hash ring.
    """

    sensors: int = 8
    requests_per_sensor: int = 64
    max_batch: int = 32
    max_delay_s: float = 0.002
    touch_fraction: float = 0.9
    phase_noise_deg: float = 1.0
    sample_period_s: float = 0.01
    carrier_frequency: float = 900e6
    fast: bool = True
    touch_threshold_deg: float = 5.0
    backend: str = "grid"
    seed: int = 7
    arrival: str = "uniform"
    arrival_rate_rps: float = 0.0
    pareto_alpha: float = 1.5
    shards: int = 1
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.sensors < 1 or self.requests_per_sensor < 1:
            raise ServeError("load profile needs >= 1 sensor and "
                             ">= 1 request per sensor")
        if not 0.0 <= self.touch_fraction <= 1.0:
            raise ServeError(
                f"touch_fraction must be in [0, 1], got "
                f"{self.touch_fraction}")
        if self.backend not in ESTIMATOR_BACKENDS:
            raise ServeError(
                f"unknown estimator backend {self.backend!r}; "
                f"expected one of {ESTIMATOR_BACKENDS}")
        if self.arrival not in ("uniform", "pareto"):
            raise ServeError(
                f"arrival must be 'uniform' or 'pareto', got "
                f"{self.arrival!r}")
        if self.arrival_rate_rps < 0.0:
            raise ServeError(
                f"arrival_rate_rps must be >= 0, got "
                f"{self.arrival_rate_rps}")
        if self.pareto_alpha <= 1.0:
            raise ServeError(
                f"pareto_alpha must be > 1 (finite mean gap), got "
                f"{self.pareto_alpha}")
        if self.shards < 1:
            raise ServeError(f"load profile needs >= 1 shard, got "
                             f"{self.shards}")

    @property
    def total_requests(self) -> int:
        """Requests across the whole fleet."""
        return self.sensors * self.requests_per_sensor

    @property
    def config(self) -> SensorConfig:
        """The fleet's shared sensor config."""
        return SensorConfig(
            carrier_frequency=self.carrier_frequency, fast=self.fast,
            touch_threshold_deg=self.touch_threshold_deg,
            backend=self.backend)

    @property
    def policy(self) -> BatchPolicy:
        """The scheduler policy under test; the queue holds the whole
        tape, so only injected faults ever shed."""
        return BatchPolicy(max_batch=self.max_batch,
                           max_delay_s=self.max_delay_s,
                           max_queue=max(1024, self.total_requests))


def generate_requests(model: SensorModel,
                      profile: LoadProfile) -> List[EstimateRequest]:
    """Build the fleet's request list (interleaved across sensors).

    Presses are drawn uniformly over the calibrated (force, location)
    envelope; phases are the model's forward prediction plus Gaussian
    measurement noise.  Untouched samples carry zero phases.  The
    returned list interleaves the streams sample-by-sample — the
    arrival order a multiplexing server would actually see.
    """
    rng = np.random.default_rng(profile.seed)
    total = profile.total_requests
    forces = rng.uniform(0.5, 8.0, total)
    low = float(model.locations[0])
    high = float(model.locations[-1])
    locations = rng.uniform(low, high, total)
    phi1, phi2 = model.predict_batch(forces, locations)
    noise = rng.normal(0.0, np.radians(profile.phase_noise_deg),
                       (2, total))
    phi1 = phi1 + noise[0]
    phi2 = phi2 + noise[1]
    untouched = rng.random(total) >= profile.touch_fraction
    phi1[untouched] = 0.0
    phi2[untouched] = 0.0
    config = profile.config
    requests = []
    index = 0
    for sequence in range(profile.requests_per_sensor):
        for sensor in range(profile.sensors):
            requests.append(EstimateRequest(
                sensor_id=f"sensor-{sensor:03d}",
                sequence=sequence,
                time=sequence * profile.sample_period_s,
                phi1=float(phi1[index]),
                phi2=float(phi2[index]),
                config=config,
            ))
            index += 1
    return requests


def generate_arrival_offsets(
        profile: LoadProfile) -> Optional[np.ndarray]:
    """Per-request submission offsets [s] for the arrival pattern.

    Returns None when ``arrival_rate_rps`` is 0 (submit everything at
    once).  Offsets start at 0 and are seeded independently of the
    press draws, so changing the arrival shape never changes *what*
    is requested, only *when*.

    ``"uniform"`` arrivals are evenly spaced at the mean gap;
    ``"pareto"`` gaps follow a Pareto distribution with minimum gap
    ``mean_gap * (alpha - 1) / alpha`` and tail exponent ``alpha``,
    scaled so the mean gap (and therefore the aggregate offered rate)
    matches the uniform pattern — only the burstiness differs.
    """
    if profile.arrival_rate_rps <= 0.0:
        return None
    total = profile.total_requests
    mean_gap = 1.0 / profile.arrival_rate_rps
    if profile.arrival == "uniform":
        gaps = np.full(total, mean_gap)
    else:
        rng = np.random.default_rng(profile.seed + 0x9E3779B9)
        alpha = profile.pareto_alpha
        # rng.pareto draws the Lomax form; +1 shifts to a classic
        # Pareto with minimum 1 and mean alpha / (alpha - 1).
        draws = rng.pareto(alpha, total) + 1.0
        gaps = draws * (mean_gap * (alpha - 1.0) / alpha)
    offsets = np.cumsum(gaps)
    return offsets - offsets[0]


async def _pace(start: float, offsets: Optional[np.ndarray],
                index: int) -> None:
    """Hold request ``index`` back until ``start + offsets[index]``."""
    if offsets is not None:
        delay = start + float(offsets[index]) - time.perf_counter()
        if delay > 0.0:
            await asyncio.sleep(delay)


async def run_service_load(
    service: Union[InferenceService, ShardedInferenceService],
    requests: Sequence[EstimateRequest],
    offsets: Optional[np.ndarray] = None,
) -> Tuple[List[Outcome], List[float], float]:
    """In-process transport; returns (outcomes, latencies s, wall s).

    Without ``offsets`` every request is submitted concurrently (the
    closed-loop saturation pattern); with them, request *i* is held
    back ``offsets[i]`` seconds first (open-loop arrival shaping —
    see :func:`generate_arrival_offsets`).  A failed request yields
    its exception instead of cancelling the rest of the load.
    """
    latencies = [0.0] * len(requests)
    start = time.perf_counter()

    async def one(index: int, request: EstimateRequest) -> Outcome:
        await _pace(start, offsets, index)
        sent = time.perf_counter()
        try:
            return await service.estimate(request)
        except Exception as exc:  # noqa: BLE001 - per-request outcome
            return exc
        finally:
            latencies[index] = time.perf_counter() - sent

    outcomes = await asyncio.gather(
        *(one(index, request) for index, request in enumerate(requests)))
    return list(outcomes), latencies, time.perf_counter() - start


def _gateway_outcome(message: dict) -> Outcome:
    """Map one WebSocket reply onto the outcome taxonomy."""
    if message.get("type") == "estimate":
        return EstimateResponse.from_dict(message["response"])
    code = message.get("code", "")
    text = message.get("error", "gateway error")
    if code in ("backpressure", "quota"):
        return QueueFullError(text)
    return GatewayError(f"{code}: {text}")


async def run_gateway_load(
    service: InferenceService,
    requests: Sequence[EstimateRequest],
    offsets: Optional[np.ndarray] = None,
) -> Tuple[List[Outcome], List[float], float]:
    """Gateway transport; returns (outcomes, latencies s, wall s).

    Boots a :class:`Gateway` around ``service`` on an ephemeral
    loopback port, registers one tenant per sensor stream, and opens
    one WebSocket per stream; the wall clock starts before the
    handshakes.  Each connection pipelines its stream (paced by
    ``offsets``) while a reader matches replies back by sequence
    number; latencies are client-observed, send to reply.  A failed
    or dropped connection fails every request it still owed with
    :class:`GatewayError`.
    """
    streams: Dict[str, List[int]] = {}
    for index, request in enumerate(requests):
        streams.setdefault(request.sensor_id, []).append(index)
    tenants = [Tenant(name=f"tenant-{number:03d}",
                      token=f"bench-token-{number:03d}",
                      rate_per_s=TENANT_RATE_PER_S, burst=1 << 16)
               for number in range(len(streams))]
    # Raw reply dicts until the clock stops; parsed afterwards.
    replies: List[Union[None, dict, Outcome]] = [None] * len(requests)
    latencies = [0.0] * len(requests)
    sent_at = [0.0] * len(requests)

    async def drive(tenant: Tenant, indices: List[int]) -> None:
        by_sequence = {requests[index].sequence: index
                       for index in indices}

        async def send() -> None:
            for index in indices:
                await _pace(start, offsets, index)
                sent_at[index] = time.perf_counter()
                await client.send_json({"type": "estimate",
                                        "request": requests[index].to_dict()})

        client: Optional[WebSocketClient] = None
        sender = None
        try:
            client = await WebSocketClient.connect(host, port,
                                                   token=tenant.token)
            sender = asyncio.ensure_future(send())
            received = 0
            while received < len(indices):
                message = await client.recv_json()
                if message.get("type") == "touch_event":
                    continue
                received += 1
                sequence = (message["response"]["sequence"]
                            if message.get("type") == "estimate"
                            else message.get("sequence"))
                index = by_sequence.get(sequence)
                if index is not None:
                    latencies[index] = time.perf_counter() - sent_at[index]
                    replies[index] = message
            await sender
        except Exception as exc:  # noqa: BLE001 - dropped connection
            if sender is not None:
                sender.cancel()
                await asyncio.gather(sender, return_exceptions=True)
            for index in indices:
                if replies[index] is None:
                    replies[index] = GatewayError(
                        f"connection lost: {exc!r}")
        finally:
            if client is not None:
                await client.close()

    async with Gateway(service, tenants=TenantTable(tenants)) as gateway:
        host, port = gateway.address
        # The wall clock includes every connection's handshake.
        start = time.perf_counter()
        await asyncio.gather(*(drive(tenant, indices) for tenant, indices
                               in zip(tenants, streams.values())))
        wall = time.perf_counter() - start
    return ([_gateway_outcome(reply) if isinstance(reply, dict)
             else reply if reply is not None else GatewayError("no reply")
             for reply in replies], latencies, wall)


#: Transport name -> driver, all sharing one contract.
TRANSPORTS = {"inprocess": run_service_load, "gateway": run_gateway_load}

#: Bench mode -> (run block, reference block, ratio key) in the report.
_MODES = {
    "serve": ("service", "serial_baseline", "speedup_vs_serial"),
    "gateway": ("gateway", "inprocess_baseline", "gateway_vs_inprocess"),
    "fleet": ("fleet", "inprocess_baseline", "sharded_vs_single"),
}


def bench_mode(transport: str, shards: int = 1) -> str:
    """``"serve"`` | ``"gateway"`` | ``"fleet"``: names the report
    (``BENCH_<mode>.json``) and picks its reference run."""
    if transport == "gateway":
        return "gateway"
    return "fleet" if shards > 1 else "serve"


def profile_block(profile: LoadProfile, transport: str) -> dict:
    """The report's ``profile`` block (also its manifest config)."""
    return {**dataclasses.asdict(profile), "transport": transport,
            "total_requests": profile.total_requests}


def load_block(outcomes: Sequence[Outcome], latencies: Sequence[float],
               wall_seconds: float) -> dict:
    """Throughput, answered-request latency and batching of one run."""
    answered = [(outcome, latency)
                for outcome, latency in zip(outcomes, latencies)
                if isinstance(outcome, EstimateResponse)]
    latency_ms = np.array([latency for _, latency in answered] or [0.0]) * 1e3
    batch_sizes = [outcome.batch_size for outcome, _ in answered] or [0]
    total = len(outcomes)
    rejected = total - len(answered)
    return {
        "wall_seconds": wall_seconds,
        "throughput_rps": total / wall_seconds if wall_seconds > 0 else 0.0,
        "p50_latency_ms": float(np.percentile(latency_ms, 50)),
        "p99_latency_ms": float(np.percentile(latency_ms, 99)),
        "mean_latency_ms": float(latency_ms.mean()),
        "mean_batch_size": float(np.mean(batch_sizes)),
        "max_batch_size": int(np.max(batch_sizes)),
        "answered": len(answered),
        "rejected": rejected,
        "rejection_rate": rejected / total if total else 0.0,
    }


def parity_block(outcomes: Sequence[Outcome], expected: Sequence) -> dict:
    """Element-wise deltas of every answered estimate vs the reference."""
    pairs = [(outcome.estimate, reference)
             for outcome, reference in zip(outcomes, expected)
             if isinstance(outcome, EstimateResponse)]
    return {
        "compared": len(pairs),
        "max_force_delta_n": max(
            (abs(ours.force - theirs.force) for ours, theirs in pairs),
            default=0.0),
        "max_location_delta_m": max(
            (abs(ours.location - theirs.location)
             for ours, theirs in pairs), default=0.0),
        "touched_match": all(ours.touched == theirs.touched
                             for ours, theirs in pairs),
    }


def parity_ok(report: dict) -> bool:
    """True when every answered request matched the reference exactly
    and at least one was answered (no vacuous pass)."""
    parity = report["parity"]
    return (parity["max_force_delta_n"] == 0.0
            and parity["max_location_delta_m"] == 0.0
            and parity["touched_match"]
            and parity["compared"] > 0)


def run_benchmark(profile: Optional[LoadProfile] = None,
                  transport: str = "inprocess",
                  model_factory: Optional[ModelFactory] = None,
                  profiler: Optional[Profiler] = None) -> dict:
    """Drive the load through ``transport`` and against its reference.

    Returns the JSON-ready report: the run block (latency percentiles,
    throughput, batch sizes, rejections), the reference block, their
    throughput ratio, parity deltas, the service telemetry snapshot,
    and a run manifest.  A sharded run also reports per-shard p99 and
    the ring's shard balance for this fleet.

    Args:
        profile: Load shape; paper-default when omitted.
        transport: ``"inprocess"`` or ``"gateway"`` (one shard only).
        model_factory: Config -> model override for the session cache.
        profiler: Optional hotspot profiler; the bench stages
            (calibrate / generate / reference / load) are recorded
            into it when given.
    """
    if profile is None:
        profile = LoadProfile()
    if transport not in TRANSPORTS:
        raise ServeError(f"transport must be one of {sorted(TRANSPORTS)}, "
                         f"got {transport!r}")
    if transport == "gateway" and profile.shards > 1:
        raise ServeError("the gateway transport serves one shard")
    if profiler is None:
        profiler = Profiler(enabled=False)
    mode = bench_mode(transport, profile.shards)
    run_name, reference_name, ratio_name = _MODES[mode]

    # Serve and gateway runs record session history like the real
    # service; sharded runs drop it (and so does their reference) so
    # 10^5-sensor fleets stay memory-bounded.
    history = mode != "fleet"

    def plain_service(registry=None) -> InferenceService:
        return InferenceService(policy=profile.policy,
                                model_factory=model_factory,
                                registry=registry, history=history)

    with observed() as registry:
        if mode == "fleet":
            service = ShardedInferenceService(
                shards=profile.shards, vnodes=profile.vnodes,
                policy=profile.policy, model_factory=model_factory,
                history=history)
            shards = service.services
        else:
            service = plain_service(registry)
            shards = [service]
        with profiler.section("calibrate"):
            for shard in shards:
                estimator = shard.sessions.estimator(profile.config)
        with profiler.section("generate_requests"):
            requests = generate_requests(estimator.model, profile)
            offsets = generate_arrival_offsets(profile)

        with profiler.section("reference"):
            if mode == "serve":
                # The pre-serve consumption pattern: one scalar
                # inversion at a time.
                start = time.perf_counter()
                expected = [estimator.invert(request.phi1, request.phi2)
                            for request in requests]
                reference_seconds = time.perf_counter() - start
            else:
                reference = plain_service()
                reference.sessions.estimator(profile.config)
                direct, _, reference_seconds = asyncio.run(
                    run_service_load(reference, requests, offsets))
                for outcome in direct:
                    if isinstance(outcome, BaseException):
                        raise outcome
                expected = [response.estimate for response in direct]

        with profiler.section("load"):
            outcomes, latencies, seconds = asyncio.run(
                TRANSPORTS[transport](service, requests, offsets))

    block = profile_block(profile, transport)
    run = load_block(outcomes, latencies, seconds)
    report = {
        "profile": block,
        run_name: run,
        reference_name: {
            "wall_seconds": reference_seconds,
            "throughput_rps": len(requests) / reference_seconds,
        },
        ratio_name: reference_seconds / seconds,
        "parity": parity_block(outcomes, expected),
        "telemetry": service.telemetry_snapshot(),
    }
    if mode == "fleet":
        shard_of = [service.shard_for(request.sensor_id)
                    for request in requests]
        run["per_shard"] = []
        for shard in range(profile.shards):
            mine = [index for index, owner in enumerate(shard_of)
                    if owner == shard]
            run["per_shard"].append({
                "shard": shard, "requests": len(mine),
                "p99_latency_ms": load_block(
                    [outcomes[index] for index in mine],
                    [latencies[index] for index in mine],
                    seconds)["p99_latency_ms"],
            })
        report["shard_balance"] = service.ring.balance(
            sorted({request.sensor_id for request in requests}))
    return stamp_report(report, config=block, registry=registry)


def write_report(report: dict, path) -> Path:
    """Persist a benchmark report as pretty JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def summarize(report: dict) -> str:
    """Human-readable one-screen summary of a bench report."""
    profile = report["profile"]
    run_name, reference_name, ratio_name = _MODES[
        bench_mode(profile["transport"], profile["shards"])]
    run = report[run_name]
    parity = report["parity"]
    lines = [
        f"requests          : {profile['total_requests']} "
        f"({profile['sensors']} sensors x "
        f"{profile['requests_per_sensor']} samples, "
        f"{profile['arrival']} arrivals, {profile['transport']} "
        f"transport, {profile['shards']} shard(s))",
        f"throughput        : {run['throughput_rps']:10.0f} req/s",
        f"reference         : "
        f"{report[reference_name]['throughput_rps']:10.0f} req/s "
        f"({reference_name})",
        f"{ratio_name:<18}: {report[ratio_name]:10.2f}x",
        f"latency p50 / p99 : {run['p50_latency_ms']:7.2f} / "
        f"{run['p99_latency_ms']:.2f} ms",
        f"mean batch size   : {run['mean_batch_size']:10.1f}",
        f"rejected          : {run['rejected']:10d} "
        f"({run['rejection_rate']:.3f})",
    ]
    if "per_shard" in run:
        lines.append("per-shard p99 [ms]: " + " ".join(
            f"{entry['p99_latency_ms']:.1f}" for entry in run["per_shard"]))
        lines.append(f"shard balance     : {report['shard_balance']:10.2f}")
    lines.append(
        f"parity            : {parity['compared']} compared, force <= "
        f"{parity['max_force_delta_n']:.2e} N, location <= "
        f"{parity['max_location_delta_m']:.2e} m, touched "
        f"{'match' if parity['touched_match'] else 'MISMATCH'}")
    return "\n".join(lines)
