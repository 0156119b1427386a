"""Per-layer tracing by wrapping the program's public entry points.

Only the traced run installs these wrappers, from the benchmark's own
files, in the process that does the work (the gateway process or the
reader worker); nothing under ``src/`` changes.  Each wrapper times
one call into a layer with ``perf_counter`` and adds it to a
:class:`Ledger` of per-key totals, call counts and, where a
distribution is needed, raw samples.  At exit the ledger is written as
JSON and the parent turns it into the per-layer table
(:func:`layer_metrics`).

Layer keys are module names (``gateway``, ``serve.protocol``, ...), so
the table reads against the source tree.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from common import mean, median, percentile

_perf = time.perf_counter

#: The gateway's micro-batch flush size (``repro gateway`` default); a
#: batch this large was flushed by size, a smaller one by deadline.
MAX_BATCH = 32


class Ledger:
    """Per-key call totals [s], call counts and sample lists."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, float] = {}
        self._obs_depth = 0

    def add(self, key: str, seconds: float) -> None:
        self.seconds[key] += seconds
        self.calls[key] += 1

    # ------------------------------------------------------------------
    # Wrapping helpers
    # ------------------------------------------------------------------

    def timed(self, owner, name: str, key: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` with a timed wrapper.

        ``after(args, result, seconds)`` runs outside the timed region.
        Static and class methods keep their descriptor kind.
        """
        raw = owner.__dict__[name] if isinstance(owner, type) else \
            getattr(owner, name)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        func = raw.__func__ if kind is not None else raw
        ledger = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = _perf()
            result = func(*args, **kwargs)
            elapsed = _perf() - start
            ledger.add(key, elapsed)
            if after is not None:
                after(args, result, elapsed)
            return result

        setattr(owner, name, kind(wrapper) if kind is not None else wrapper)

    def timed_async(self, owner, name: str, key: str,
                    after: Optional[Callable] = None,
                    on_error: Optional[Callable] = None) -> None:
        """Timed wrapper for a coroutine method (wall time incl. awaits)."""
        func = owner.__dict__[name]
        ledger = self

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            start = _perf()
            try:
                result = await func(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            elapsed = _perf() - start
            ledger.add(key, elapsed)
            if after is not None:
                after(args, result, elapsed)
            return result

        setattr(owner, name, wrapper)

    def timed_obs(self, owner, name: str) -> None:
        """Wrap one observability call; only the outermost is timed,
        so spans recording histograms are not counted twice."""
        func = owner.__dict__[name]
        ledger = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            ledger.calls["obs"] += 1
            if ledger._obs_depth:
                return func(*args, **kwargs)
            ledger._obs_depth += 1
            start = _perf()
            try:
                return func(*args, **kwargs)
            finally:
                ledger.seconds["obs"] += _perf() - start
                ledger._obs_depth -= 1

        setattr(owner, name, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"seconds": dict(self.seconds),
                       "calls": dict(self.calls),
                       "samples": dict(self.samples),
                       "values": self.values}, handle)


def install_obs(ledger: Ledger) -> None:
    """The ``obs`` layer: spans, counters, histograms."""
    from repro.obs.instruments import Counter, Histogram, Span
    from repro.obs.registry import Registry

    for owner, name in ((Registry, "span"), (Registry, "counter"),
                        (Registry, "histogram"), (Counter, "increment"),
                        (Histogram, "observe"), (Span, "__enter__"),
                        (Span, "__exit__")):
        ledger.timed_obs(owner, name)


def install_estimators(ledger: Ledger) -> None:
    """``core.estimator`` (grid) and ``surrogate`` inversion layers."""
    from repro.core.estimator import ForceLocationEstimator
    from repro.surrogate import model as surrogate_model

    def after_batch(args, result, seconds):
        backend = getattr(args[0], "backend", "grid")
        rows = len(result)
        ledger.samples[f"invert_batch.{backend}.rows"].append(rows)
        ledger.samples[f"invert_batch.{backend}.seconds"].append(seconds)

    ledger.timed(ForceLocationEstimator, "invert_batch", "invert_batch",
                 after=after_batch)

    state = {}

    def after_predict(args, result, seconds):
        state["surrogate"] = args[0]

    ledger.timed(surrogate_model.SurrogateInverse, "predict_batch",
                 "surrogate.predict", after=after_predict)

    def after_gate(args, result, seconds):
        surrogate = state.get("surrogate")
        if surrogate is None:
            return
        phi1, phi2 = args[3], args[4]
        confident = (surrogate.in_domain(phi1, phi2)
                     & (result <= surrogate.residual_bound))
        accepted = int(confident.sum())
        ledger.calls["surrogate.accepted"] += accepted
        ledger.calls["surrogate.fallback"] += int(confident.size) - accepted

    ledger.timed(surrogate_model, "forward_residual", "surrogate.gate",
                 after=after_gate)


def install_server(ledger: Ledger) -> None:
    """Wrap every serving layer's public entry points."""
    from repro.core.tracking import StreamingTracker
    from repro.errors import QueueFullError
    from repro.gateway import websocket
    from repro.gateway.auth import TenantTable
    from repro.serve.protocol import EstimateRequest, EstimateResponse
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.serve.service import InferenceService
    from repro.serve.session import SensorSession, SessionManager

    ledger.timed(websocket, "parse_frame", "gateway.parse_frame")
    ledger.timed(websocket, "encode_frame", "gateway.encode_frame")
    ledger.timed(TenantTable, "admit", "gateway.admit")
    ledger.timed(EstimateRequest, "from_dict", "serve.protocol.decode")
    ledger.timed(EstimateResponse, "to_dict", "serve.protocol.encode")
    ledger.timed(SessionManager, "session", "serve.session.route")
    ledger.timed(SensorSession, "correct", "serve.session.correct")

    def after_record(args, result, seconds):
        ledger.values["history_len_max"] = max(
            ledger.values.get("history_len_max", 0), len(args[0].samples))

    ledger.timed(SensorSession, "record", "serve.session.record",
                 after=after_record)

    def after_build(args, result, seconds):
        ledger.values.setdefault("warm_load_s", seconds)

    ledger.timed(SessionManager, "estimator", "cache.estimator",
                 after=after_build)

    def after_submit(args, result, seconds):
        ledger.samples["queue_seconds"].append(result.queue_seconds)

    def rejected(exc):
        if isinstance(exc, QueueFullError):
            ledger.calls["serve.scheduler.rejected"] += 1

    ledger.timed_async(MicroBatchScheduler, "submit", "serve.scheduler.submit",
                       after=after_submit, on_error=rejected)

    def after_estimate(args, result, seconds):
        ledger.samples["service.sequence"].append(result.sequence)
        ledger.samples["service.seconds"].append(seconds)

    ledger.timed_async(InferenceService, "estimate", "serve.service",
                       after=after_estimate)

    def after_touch(args, result, seconds):
        ledger.samples["tracking.scanned"].append(len(args[0]))

    ledger.timed(StreamingTracker, "touch_events", "core.tracking",
                 after=after_touch)
    install_estimators(ledger)
    install_obs(ledger)


def install_reader(ledger: Ledger) -> None:
    """Wrap the reader layer (sounder, extraction, inversion)."""
    from repro.core.estimator import ForceLocationEstimator
    from repro.core.harmonics import HarmonicExtractor
    from repro.core.pipeline import WiForceReader
    from repro.reader.batch import FastSounder

    # Baseline captures go through ``capture_matrices`` too; book them
    # under their own key so the per-read figure is a read's capture.
    in_baseline = []

    def after_matrices(args, result, seconds):
        if in_baseline:
            ledger.seconds["reader.capture_matrices"] -= seconds
            ledger.calls["reader.capture_matrices"] -= 1
            ledger.add("reader.capture_matrices.baseline", seconds)

    ledger.timed(FastSounder, "capture_matrices", "reader.capture_matrices",
                 after=after_matrices)

    def after_batch(args, result, seconds):
        ledger.calls["reader.capture_batch.presses"] += len(args[1])

    ledger.timed(FastSounder, "capture_batch", "reader.capture_batch",
                 after=after_batch)
    ledger.timed(HarmonicExtractor, "extract", "reader.extract")
    ledger.timed(ForceLocationEstimator, "invert", "reader.invert")
    ledger.timed(WiForceReader, "capture_baseline", "reader.baseline")
    timed_baseline = WiForceReader.capture_baseline

    @functools.wraps(timed_baseline)
    def capture_baseline(self):
        in_baseline.append(True)
        try:
            return timed_baseline(self)
        finally:
            in_baseline.pop()

    WiForceReader.capture_baseline = capture_baseline
    install_estimators(ledger)
    install_obs(ledger)


# ----------------------------------------------------------------------
# Ledger -> per-layer table (runs in the benchmark's parent process)
# ----------------------------------------------------------------------

def _per_call_us(ledger: dict, key: str) -> float:
    calls = ledger["calls"].get(key, 0)
    return 1e6 * ledger["seconds"].get(key, 0.0) / calls if calls else 0.0


def layer_metrics(ledger: dict, requests: int,
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced process's ledger.

    ``requests`` is the number of estimate requests the traced phase
    served and ``wall_s`` its wall time (busy shares divide by it).
    """
    seconds = ledger["seconds"]
    calls = ledger["calls"]
    samples = ledger["samples"]
    values = ledger["values"]
    per_request = max(requests, 1)
    metrics: Dict[str, float] = {
        "gateway.parse_frame_us": _per_call_us(ledger, "gateway.parse_frame"),
        "gateway.encode_frame_us": _per_call_us(ledger,
                                                "gateway.encode_frame"),
        "gateway.admit_us": _per_call_us(ledger, "gateway.admit"),
        "serve.protocol.decode_us": _per_call_us(ledger,
                                                 "serve.protocol.decode"),
        "serve.protocol.encode_us": _per_call_us(ledger,
                                                 "serve.protocol.encode"),
        "serve.session.route_us": _per_call_us(ledger, "serve.session.route"),
        "serve.session.correct_us": _per_call_us(ledger,
                                                 "serve.session.correct"),
        "serve.session.record_us": _per_call_us(ledger,
                                                "serve.session.record"),
        "serve.session.history_len_max": float(
            values.get("history_len_max", 0)),
        "serve.scheduler.rejected": float(
            calls.get("serve.scheduler.rejected", 0)),
        "obs.calls_per_request": calls.get("obs", 0) / per_request,
        "obs.us_per_request": 1e6 * seconds.get("obs", 0.0) / per_request,
    }
    queue = [1e3 * value for value in samples.get("queue_seconds", [])]
    metrics["serve.scheduler.queue_wait_ms_p50"] = (
        median(queue) if queue else 0.0)
    metrics["serve.scheduler.queue_wait_ms_p99"] = (
        percentile(queue, 99) if queue else 0.0)
    service = [1e3 * value for value in samples.get("service.seconds", [])]
    metrics["serve.service.estimate_ms_p50"] = (
        median(service) if service else 0.0)
    metrics["serve.service.estimate_ms_p99"] = (
        percentile(service, 99) if service else 0.0)

    # Micro-batches exist only where the scheduler ran (not in the
    # reader's sweep, which calls ``invert_batch`` directly).
    sizes: List[float] = []
    if seconds.get("serve.scheduler.submit"):
        for backend in ("grid", "surrogate"):
            sizes += samples.get(f"invert_batch.{backend}.rows", [])
    metrics["serve.scheduler.batch_size_mean"] = mean(sizes)
    metrics["serve.scheduler.batch_size_p50"] = median(sizes) if sizes else 0.0
    metrics["serve.scheduler.size_flush_share"] = (
        sum(1 for size in sizes if size >= MAX_BATCH) / len(sizes)
        if sizes else 0.0)

    grid_rows = samples.get("invert_batch.grid.rows", [])
    grid_seconds = samples.get("invert_batch.grid.seconds", [])
    metrics["core.estimator.invert_batch_calls"] = float(len(grid_rows))
    metrics["core.estimator.rows_per_call"] = mean(grid_rows)
    metrics["core.estimator.us_per_row"] = (
        1e6 * sum(grid_seconds) / sum(grid_rows) if grid_rows else 0.0)
    metrics["core.estimator.busy_share"] = (
        sum(grid_seconds) / wall_s if wall_s > 0 else 0.0)

    surrogate_seconds = sum(samples.get("invert_batch.surrogate.seconds", []))
    metrics["surrogate.predict_us"] = _per_call_us(ledger,
                                                   "surrogate.predict")
    metrics["surrogate.gate_us"] = _per_call_us(ledger, "surrogate.gate")
    metrics["surrogate.gate_share"] = (
        seconds.get("surrogate.gate", 0.0) / surrogate_seconds
        if surrogate_seconds > 0 else 0.0)
    gated = calls.get("surrogate.accepted", 0) + calls.get(
        "surrogate.fallback", 0)
    metrics["surrogate.accept_share"] = (
        calls.get("surrogate.accepted", 0) / gated if gated else 0.0)
    metrics["surrogate.fallback_rows"] = float(
        calls.get("surrogate.fallback", 0))

    scanned = samples.get("tracking.scanned", [])
    metrics["core.tracking.touch_events_calls"] = float(len(scanned))
    metrics["core.tracking.samples_scanned_per_call"] = mean(scanned)
    metrics["core.tracking.samples_scanned_max"] = float(
        max(scanned) if scanned else 0)
    metrics["core.tracking.us_per_call"] = _per_call_us(ledger,
                                                        "core.tracking")
    metrics["core.tracking.busy_share"] = (
        seconds.get("core.tracking", 0.0) / wall_s if wall_s > 0 else 0.0)

    presses = calls.get("reader.capture_batch.presses", 0)
    metrics["reader.capture_matrices_us"] = _per_call_us(
        ledger, "reader.capture_matrices")
    metrics["reader.capture_batch_us_per_press"] = (
        1e6 * seconds.get("reader.capture_batch", 0.0) / presses
        if presses else 0.0)
    metrics["reader.extract_us"] = _per_call_us(ledger, "reader.extract")
    metrics["reader.invert_us"] = _per_call_us(ledger, "reader.invert")
    metrics["reader.baseline_ms"] = 1e-3 * _per_call_us(ledger,
                                                        "reader.baseline")
    metrics["cache.warm_load_s"] = float(values.get("warm_load_s", 0.0))
    return metrics


def request_ledger(ledger: dict, requests: int) -> Dict[str, float]:
    """Mean per-request self time [ms] of each layer on the reply path.

    Shared work counts once per request that waited for it: a batch
    inversion of ``rows`` rows adds its duration to each of its rows.
    ``queue_seconds`` spans enqueue to the end of the batch's
    inversion, so the scheduler's own wait is it minus the inversion.
    """
    seconds = ledger["seconds"]
    samples = ledger["samples"]
    per_request = max(requests, 1)
    inversion = {}
    for backend in ("grid", "surrogate"):
        rows = samples.get(f"invert_batch.{backend}.rows", [])
        durations = samples.get(f"invert_batch.{backend}.seconds", [])
        inversion[backend] = 1e3 * sum(
            r * d for r, d in zip(rows, durations)) / per_request
    queue = samples.get("queue_seconds", [])
    wait = 1e3 * sum(queue) / per_request - inversion["grid"] \
        - inversion["surrogate"]
    return {
        "gateway": 1e3 * (seconds.get("gateway.parse_frame", 0.0)
                          + seconds.get("gateway.encode_frame", 0.0)
                          + seconds.get("gateway.admit", 0.0)) / per_request,
        "serve.protocol": 1e3 * (seconds.get("serve.protocol.decode", 0.0)
                                 + seconds.get("serve.protocol.encode", 0.0)
                                 ) / per_request,
        "serve.session": 1e3 * (seconds.get("serve.session.route", 0.0)
                                + seconds.get("serve.session.correct", 0.0)
                                + seconds.get("serve.session.record", 0.0)
                                ) / per_request,
        "serve.scheduler": max(wait, 0.0),
        "core.estimator": inversion["grid"],
        "surrogate": inversion["surrogate"],
    }
