"""Performance + parity benchmarks for the surrogate backend.

Two claims are tracked so future PRs can see the trajectory:

* ``SurrogateEstimator.invert_batch`` (learned ridge inverse, grid
  fallback for low-confidence samples) is >= 5x faster than the grid
  oracle's ``invert_batch`` at N=1000 once training is amortized.
* The accuracy cost is bounded: the p95 force/location error deltas
  vs. the grid oracle stay inside the caps declared in
  :mod:`repro.surrogate.evaluate` (normalized delta <= 1.0).

The full evaluation (training through the content-addressed artifact
cache, held-out workload, error CDFs) lives in
:func:`repro.surrogate.evaluate.evaluate_surrogate`; this module runs
it once, asserts the gated numbers, and writes the report as
``benchmarks/results/BENCH_surrogate.json`` — the same artifact
``repro surrogate eval`` produces and ``compare_bench.py`` gates.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.estimator import ForceLocationEstimator
from repro.experiments.parallel import CampaignExecutor, shutdown_pools
from repro.experiments.scenarios import calibrated_model
from repro.surrogate import (
    DatasetSpec,
    SurrogateEstimator,
    evaluate_surrogate,
    train_surrogate,
)

from conftest import merge_report

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_surrogate.json"

#: Held-out batch size; the acceptance speedup is measured at this N.
N_SAMPLES = 1000

_report: dict = {}


@pytest.fixture(scope="module")
def model():
    """The shared fast 900 MHz calibration."""
    return calibrated_model(900e6, fast=True)


@pytest.fixture(scope="module")
def surrogate(model):
    """The trained (or cache-loaded) ridge inverse.

    A warm worker pool shards the simulator sweep on the cold path
    (first CI run per cache key); warm runs load the fitted model from
    the artifact cache in milliseconds.
    """
    executor = CampaignExecutor(workers=4)
    try:
        return train_surrogate(model, DatasetSpec(), executor=executor)
    finally:
        shutdown_pools()


@pytest.fixture(scope="module")
def report(model, surrogate):
    """The full parity + speedup evaluation (training already warm)."""
    _report.update(evaluate_surrogate(samples=N_SAMPLES))
    return _report


@pytest.fixture(scope="module")
def phases(model):
    """N_SAMPLES noisy phase pairs across the calibrated span."""
    rng = np.random.default_rng(42)
    low, high = model.force_range
    forces = rng.uniform(low, high, N_SAMPLES)
    locations = rng.uniform(float(model.locations[0]),
                            float(model.locations[-1]), N_SAMPLES)
    phi1, phi2 = model.predict_batch(forces, locations)
    noise = rng.normal(0.0, np.radians(1.0), (2, N_SAMPLES))
    return phi1 + noise[0], phi2 + noise[1]


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the machine-readable summary after the module finishes."""
    yield
    if _report:
        merge_report(BENCH_PATH, _report)


def test_amortized_speedup(report):
    """Surrogate invert_batch >= 5x over the grid oracle at N=1000."""
    speedup = report["surrogate_speedup"]
    assert speedup >= 5.0, (
        f"surrogate invert_batch is only {speedup:.1f}x faster than "
        f"the grid oracle at N={report['samples']}; the amortized "
        f"inverse should clear 5x"
    )


def test_error_parity_within_caps(report):
    """p95 error deltas vs. the grid oracle stay inside the caps."""
    assert report["surrogate_p95_error_delta"] <= 1.0, (
        f"normalized p95 error delta "
        f"{report['surrogate_p95_error_delta']:+.3f} exceeds the cap: "
        f"force {report['surrogate_p95_force_error_delta_n'] * 1e3:+.1f}"
        f" mN (cap {report['caps']['force_n'] * 1e3:.0f} mN), location "
        f"{report['surrogate_p95_location_error_delta_m'] * 1e3:+.3f} "
        f"mm (cap {report['caps']['location_m'] * 1e3:.1f} mm)"
    )


def test_fallback_rate_bounded(report):
    """In-domain workload mostly takes the learned path.

    The held-out workload draws from the calibrated spans, so a high
    fallback rate means the confidence gate (phase envelope + forward
    residual) collapsed and the "speedup" is really the grid running
    twice.
    """
    assert report["surrogate_fallback_rate"] <= 0.25, (
        f"{report['surrogate_fallback_rate']:.1%} of in-domain "
        f"samples fell back to the grid; the confidence gate is "
        f"rejecting the workload it was trained on"
    )


def test_perf_grid_invert_batch(benchmark, model, phases):
    """pytest-benchmark: the grid oracle at N_SAMPLES."""
    estimator = ForceLocationEstimator(model)
    phi1, phi2 = phases
    benchmark.pedantic(estimator.invert_batch, args=(phi1, phi2),
                       rounds=3, iterations=1)


def test_perf_surrogate_invert_batch(benchmark, model, surrogate,
                                     phases):
    """pytest-benchmark: the amortized learned inverse at N_SAMPLES."""
    estimator = SurrogateEstimator(model, surrogate)
    phi1, phi2 = phases
    benchmark.pedantic(estimator.invert_batch, args=(phi1, phi2),
                       rounds=5, iterations=1)
