"""Fault-layer overhead benchmarks.

The injection sites gate on ``repro.faults.armed()`` — one function
call and a branch when no plan is armed (the default, and the only
state production code ever runs in).  Tracked claims:

* The hot estimation kernel is untouched: ``invert_batch`` at N=1000
  costs the same with the fault layer unarmed as with a plan armed
  that targets no site on the path (< 2% + scheduler-jitter slack).
* The chaos harness itself stays CI-sized: the default plan/profile
  completes in seconds and survives with zero crashes (asserted in
  tier-1; re-measured here for the trend line).

The machine-readable summary lands in
``benchmarks/results/BENCH_faults.json`` using plain
``time.perf_counter``, so the CI smoke run emits it under
``--benchmark-disable`` too.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.experiments.scenarios import calibrated_model
from repro.faults import FaultPlan, armed, inject
from repro.obs import stamp_report

from conftest import merge_report

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_faults.json"

#: Batch size for the unarmed-overhead comparison.
N_SAMPLES = 1000

_report: dict = {"n_samples": N_SAMPLES}


@pytest.fixture(scope="module")
def estimator():
    return ForceLocationEstimator(calibrated_model(900e6, fast=True))


@pytest.fixture(scope="module")
def phases(estimator):
    rng = np.random.default_rng(42)
    forces = rng.uniform(0.5, 8.0, N_SAMPLES)
    low, high = estimator.model.locations[0], estimator.model.locations[-1]
    locations = rng.uniform(low, high, N_SAMPLES)
    phi1, phi2 = estimator.model.predict_batch(forces, locations)
    noise = rng.normal(0.0, np.radians(1.0), (2, N_SAMPLES))
    return phi1 + noise[0], phi2 + noise[1]


def _best_of(runs, fn, *args):
    best, result = float("inf"), None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the machine-readable summary after the module finishes."""
    yield
    stamp_report(_report, config={"n_samples": N_SAMPLES})
    merge_report(BENCH_PATH, _report)


def test_unarmed_fault_layer_overhead(estimator, phases):
    """Unarmed (and off-path armed) injection costs < 2% on the kernel.

    ``invert_batch`` has no injection site, so arming an empty plan
    must leave it bit-identical and equally fast — this is the
    regression tripwire against anyone threading a per-sample fault
    check into the hot loop.  The small absolute slack absorbs
    scheduler jitter on the ~100 ms batch.
    """
    phi1, phi2 = phases
    assert armed() is None
    unarmed_seconds, batch_unarmed = _best_of(
        5, estimator.invert_batch, phi1, phi2)
    with inject(FaultPlan(name="empty")):
        armed_seconds, batch_armed = _best_of(
            5, estimator.invert_batch, phi1, phi2)
    assert armed() is None
    assert np.array_equal(batch_unarmed.force, batch_armed.force)
    assert np.array_equal(batch_unarmed.location, batch_armed.location)
    overhead = armed_seconds / unarmed_seconds - 1.0
    _report.update({
        "unarmed_seconds": unarmed_seconds,
        "armed_offpath_seconds": armed_seconds,
        "fault_gate_overhead": overhead,
    })
    assert armed_seconds <= 1.02 * unarmed_seconds + 0.010, (
        f"fault-layer overhead is {overhead:.1%} on invert_batch at "
        f"N={N_SAMPLES}; the unarmed gate must stay under 2%"
    )


def test_chaos_harness_wall_clock():
    """The default chaos campaign stays CI-sized (seconds, 0 crashes)."""
    from repro.faults import chaos

    start = time.perf_counter()
    report = chaos.run_chaos(seed=0)
    wall = time.perf_counter() - start
    assert report["survival"]["crashes"] == 0
    assert report["survival"]["survival_rate"] >= 0.95
    _report["chaos"] = {
        "wall_seconds": wall,
        "total_requests": report["survival"]["total_requests"],
        "injected_faults": report["injected_faults"],
        "survival_rate": report["survival"]["survival_rate"],
    }


def test_perf_invert_batch_unarmed(benchmark, estimator, phases):
    """pytest-benchmark: the kernel with the fault layer importable
    but unarmed (the production configuration)."""
    phi1, phi2 = phases
    benchmark.pedantic(estimator.invert_batch, args=phases,
                       rounds=5, iterations=1)
