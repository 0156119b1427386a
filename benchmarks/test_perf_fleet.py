"""Fleet-scale serving benchmark: consistent-hash shards vs one service.

The contract tracked here is exact, not statistical: routing by
consistent hashing on the sensor id decides *where* a session lives,
never *what* it computes, so the N-shard fleet must return
bit-identical responses to the plain in-process service for the same
request tape (0.0 parity deltas in ``BENCH_fleet.json``).

The CI smoke run drives a small Pareto-burst fleet with every shard on
one event loop; the nightly workflow scales the same driver to 10^5
sensors via ``repro bench --shards 8``.  Both write the
machine-readable report that ``compare_bench.py`` gates (sharded
throughput ratio, ring balance, parity).
"""

from __future__ import annotations

import pytest

from repro.serve.loadgen import LoadProfile, run_benchmark
from repro.serve.shard import HashRing

from conftest import RESULTS_DIR, merge_report

BENCH_PATH = RESULTS_DIR / "BENCH_fleet.json"

#: CI smoke scale — enough sensors for a meaningful ring balance,
#: small enough for the benchmark-disable smoke lane.
FLEET_SENSORS = 256
REQUESTS_PER_SENSOR = 4
FLEET_SHARDS = 4

#: Heavy-tailed open-loop arrivals — the swarm pattern sharding
#: exists for (bursts pile onto single shards).
FLEET_PROFILE = LoadProfile(sensors=FLEET_SENSORS,
                            requests_per_sensor=REQUESTS_PER_SENSOR,
                            arrival="pareto", arrival_rate_rps=8000.0,
                            shards=FLEET_SHARDS)

_report: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge this run's keys into the machine-readable summary."""
    yield
    if _report:
        merge_report(BENCH_PATH, _report)


def test_fleet_sharded_matches_single_shard():
    """N shards == one service bit-for-bit, with per-shard p99."""
    report = run_benchmark(FLEET_PROFILE)
    parity = report["parity"]
    assert parity["compared"] == FLEET_PROFILE.total_requests
    assert parity["max_force_delta_n"] == 0.0
    assert parity["max_location_delta_m"] == 0.0
    assert parity["touched_match"] is True

    per_shard = report["fleet"]["per_shard"]
    assert len(per_shard) == FLEET_SHARDS
    assert sum(entry["requests"] for entry in per_shard) == \
        FLEET_PROFILE.total_requests
    # Every shard must own a share of the fleet — an empty shard means
    # the ring construction regressed.
    assert all(entry["requests"] > 0 for entry in per_shard)
    assert report["shard_balance"] > 0.3

    _report.update(report)


def test_ring_balance_at_fleet_scale():
    """The ring spreads 10^5 sensor ids evenly (machine-independent).

    Pure ring arithmetic — no serving — so the full nightly fleet size
    is cheap enough to check on every CI run.
    """
    ring = HashRing(8, vnodes=256)
    sensor_ids = [f"sensor-{index:06d}" for index in range(100_000)]
    balance = ring.balance(sensor_ids)
    _report["ring_balance_100k"] = {
        "shards": 8, "vnodes": 256, "sensors": len(sensor_ids),
        "balance": balance,
    }
    assert balance > 0.6, (
        f"hash ring balance at 10^5 sensors is {balance:.2f}; "
        f"min/max shard load must stay above 0.6")


def test_perf_fleet(benchmark):
    """pytest-benchmark: the sharded fleet driver, closed loop."""
    profile = LoadProfile(sensors=64, requests_per_sensor=4,
                          shards=FLEET_SHARDS)
    benchmark.pedantic(run_benchmark, args=(profile,),
                       rounds=1, iterations=1)
