"""Performance benchmarks for the async inference service.

The serving claims tracked here:

* Adaptive micro-batching actually fills batches (mean batch size
  > 1) and beats the serial one-request-at-a-time scalar baseline on
  throughput — the whole point of multiplexing streams over
  ``invert_batch``.
* Batch parity holds under load: service responses are element-wise
  equal to the scalar ``invert`` path.

The machine-readable report lands in
``benchmarks/results/BENCH_serve.json`` (same shape as the
``repro bench`` CLI output), emitted with plain
``time.perf_counter`` timing so the CI smoke run under
``--benchmark-disable`` produces it too.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.serve import InferenceService
from repro.serve.loadgen import (
    LoadProfile,
    generate_requests,
    run_benchmark,
    run_service_load,
    write_report,
)
from repro.serve.scheduler import BatchPolicy

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_serve.json"

#: The tracked load shape: 8 streams x 64 samples, 32-deep batches.
PROFILE = LoadProfile(sensors=8, requests_per_sensor=64, max_batch=32,
                      max_delay_s=0.002, seed=7)


@pytest.fixture(scope="module")
def serve_report():
    """Run the tracked load once; persist the JSON report."""
    report = run_benchmark(PROFILE)
    write_report(report, BENCH_PATH)
    return report


def test_service_fills_micro_batches(serve_report):
    """Mean batch size must exceed 1 — batching actually coalesces."""
    assert serve_report["service"]["mean_batch_size"] > 1.0
    assert serve_report["service"]["max_batch_size"] <= PROFILE.max_batch


def test_service_beats_serial_baseline(serve_report):
    """Service throughput > the one-request-at-a-time scalar loop."""
    service_rps = serve_report["service"]["throughput_rps"]
    serial_rps = serve_report["serial_baseline"]["throughput_rps"]
    assert service_rps > serial_rps, (
        f"service served {service_rps:.0f} req/s vs serial "
        f"{serial_rps:.0f} req/s; micro-batching should win"
    )


def test_service_parity_under_load(serve_report):
    """Batched service results == scalar invert, element-wise."""
    parity = serve_report["parity"]
    assert parity["compared"] == PROFILE.total_requests
    assert parity["max_force_delta_n"] == 0.0
    assert parity["max_location_delta_m"] == 0.0
    assert parity["touched_match"]


def test_latency_percentiles_reported(serve_report):
    service = serve_report["service"]
    assert 0.0 <= service["p50_latency_ms"] <= service["p99_latency_ms"]
    assert service["throughput_rps"] > 0.0


def test_report_is_stamped_with_manifest(serve_report):
    """The emitted report carries schema_version + run manifest."""
    from repro.obs import SCHEMA_VERSION

    assert serve_report["schema_version"] == SCHEMA_VERSION
    manifest = serve_report["manifest"]
    assert manifest["config_hash"] != "none"
    assert manifest["python_version"]
    instruments = manifest["instruments"]
    # The service shares the run's registry, so its counters appear in
    # the manifest snapshot verbatim — one registry observes the whole
    # bench, estimator instruments included.
    telemetry = serve_report["telemetry"]
    for name, value in telemetry["counters"].items():
        assert instruments["counters"][name] == value
    assert instruments["counters"]["estimator.batch_inversions"] > 0
    assert "span.serve.flush.seconds" in instruments["histograms"]


def _drive_service(policy, requests, model):
    service = InferenceService(policy=policy,
                               model_factory=lambda config: model)
    return asyncio.run(run_service_load(service, requests))


def test_perf_service_batched(benchmark):
    """pytest-benchmark: the batched service under the tracked load."""
    from repro.experiments.scenarios import calibrated_model

    model = calibrated_model(PROFILE.carrier_frequency,
                             fast=PROFILE.fast)
    requests = generate_requests(model, PROFILE)
    benchmark.pedantic(_drive_service,
                       args=(PROFILE.policy, requests, model),
                       rounds=3, iterations=1)


def test_perf_service_scalar_direct(benchmark):
    """pytest-benchmark: the degraded batching-off path (baseline)."""
    from repro.experiments.scenarios import calibrated_model

    model = calibrated_model(PROFILE.carrier_frequency,
                             fast=PROFILE.fast)
    requests = generate_requests(model, PROFILE)
    policy = BatchPolicy(enabled=False,
                         max_queue=max(1024, PROFILE.total_requests))
    benchmark.pedantic(_drive_service, args=(policy, requests, model),
                       rounds=1, iterations=1)
