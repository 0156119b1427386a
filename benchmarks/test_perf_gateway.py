"""Performance benchmarks for the network gateway.

The network-layer claims tracked here:

* Micro-batching survives the socket hop — requests pipelined over N
  independent tenant WebSocket connections still coalesce into
  multi-request batches at the scheduler.
* The wire adds latency but not error: every answered response is
  bit-identical to a direct in-process ``InferenceService`` run over
  the same requests, and nothing is rejected at bench quotas.
* Throughput through real loopback sockets stays within a bounded
  factor of the in-process path (``gateway_vs_inprocess``, the
  machine-normalized ratio ``compare_bench.py`` gates).

The machine-readable report lands in
``benchmarks/results/BENCH_gateway.json`` (same shape as the
``repro bench --transport gateway`` CLI output).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serve.loadgen import LoadProfile, run_benchmark, write_report

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_gateway.json"

#: The tracked load shape: 8 tenant connections x 64 samples each.
PROFILE = LoadProfile(sensors=8, requests_per_sensor=64, max_batch=32,
                      max_delay_s=0.002, seed=7)


@pytest.fixture(scope="module")
def gateway_report():
    """Run the tracked load once; persist the JSON report."""
    report = run_benchmark(PROFILE, transport="gateway")
    write_report(report, BENCH_PATH)
    return report


def test_gateway_answers_everything(gateway_report):
    """Bench tenants have unlimited quotas: zero rejections."""
    gateway = gateway_report["gateway"]
    assert gateway["answered"] == PROFILE.total_requests
    assert gateway["rejected"] == 0
    assert gateway["rejection_rate"] == 0.0


def test_gateway_still_fills_micro_batches(gateway_report):
    """Cross-connection coalescing survives the socket hop."""
    gateway = gateway_report["gateway"]
    assert gateway["mean_batch_size"] > 1.0
    assert gateway["max_batch_size"] <= PROFILE.max_batch


def test_gateway_parity_with_inprocess_service(gateway_report):
    """The network layer never changes the numbers."""
    parity = gateway_report["parity"]
    assert parity["compared"] == PROFILE.total_requests
    assert parity["max_force_delta_n"] == 0.0
    assert parity["max_location_delta_m"] == 0.0
    assert parity["touched_match"]


def test_gateway_throughput_within_bounds(gateway_report):
    """Socket framing costs something, but not an order of magnitude."""
    ratio = gateway_report["gateway_vs_inprocess"]
    assert ratio > 0.05, (
        f"gateway served only {ratio:.2f}x the in-process throughput; "
        "the framing layer should not dominate"
    )
    gateway = gateway_report["gateway"]
    assert 0.0 <= gateway["p50_latency_ms"] <= gateway["p99_latency_ms"]
    assert gateway["throughput_rps"] > 0.0


def test_gateway_report_is_stamped(gateway_report):
    manifest = gateway_report["manifest"]
    assert manifest["config_hash"]
    assert "gateway.responses" in manifest["instruments"]["counters"]
