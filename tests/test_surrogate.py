"""The learned surrogate backend: fallback contract and parity.

The contracts under test:

* **Fallback is bit-exact.** Any sample the surrogate is not confident
  about — outside the training phase envelope, forward residual over
  the fitted bound, or carrying a ``location_hint`` — must return
  exactly what the grid oracle returns, bit for bit.
* **In-domain accuracy is bounded.** On the workload it was trained
  for, the learned inverse stays within a declared error budget of the
  grid oracle.
* **The seam is total.** The backend registry, the serve wire config,
  the load profiles, and the gateway tenants all accept exactly
  :data:`repro.core.estimator.ESTIMATOR_BACKENDS` and reject anything
  else with their layer's error type.

The suite trains a deliberately small surrogate (one power level, a
coarse grid) so the cold path fits in the hermetic test cache budget;
the full-resolution evaluation lives in
``benchmarks/test_perf_surrogate.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import (
    ESTIMATOR_BACKENDS,
    ForceLocationEstimator,
    build_estimator,
)
from repro.errors import (
    ConfigurationError,
    EstimationError,
    ProtocolError,
    ServeError,
    SurrogateError,
)
from repro.obs import observed
from repro.surrogate import (
    DatasetSpec,
    SurrogateEstimator,
    SurrogateInverse,
    TrainingDataset,
    build_dataset,
    forward_residual,
    train_surrogate,
)

#: Coarse one-power sweep: cold-trains in about a second yet lands
#: near-grid accuracy, so every test here stays hermetic and fast.
SMALL_SPEC = DatasetSpec(force_points=10, location_points=11,
                         tx_power_sweep=(16.0,), repeats=1,
                         chunk_captures=32, baseline_groups=16)

phase = st.floats(min_value=-np.pi, max_value=np.pi,
                  allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def surrogate(model_900):
    """The small trained inverse (cold once per test session)."""
    return train_surrogate(model_900, SMALL_SPEC)


@pytest.fixture(scope="module")
def amortized(model_900, surrogate):
    return SurrogateEstimator(model_900, surrogate)


@pytest.fixture(scope="module")
def grid(model_900):
    return ForceLocationEstimator(model_900)


def _assert_rows_equal(a, b, rows_a, rows_b):
    assert np.array_equal(a.force[rows_a], b.force[rows_b])
    assert np.array_equal(a.location[rows_a], b.location[rows_b])
    assert np.array_equal(a.residual[rows_a], b.residual[rows_b])
    assert np.array_equal(a.touched[rows_a], b.touched[rows_b])


class TestDatasetSpec:
    def test_samples_counts_the_full_grid(self):
        assert SMALL_SPEC.samples == 10 * 11 * 1 * 1

    @pytest.mark.parametrize("overrides", [
        {"force_points": 1},
        {"location_points": 1},
        {"tx_power_sweep": ()},
        {"repeats": 0},
        {"chunk_captures": 0},
        {"baseline_groups": 1},
    ])
    def test_rejects_degenerate_sweeps(self, overrides):
        from dataclasses import replace
        with pytest.raises(SurrogateError):
            replace(SMALL_SPEC, **overrides)

    def test_cache_key_is_plain_json_scalars(self):
        key = SMALL_SPEC.cache_key()
        assert key["chunk_captures"] == 32
        assert key["baseline_groups"] == 16
        for value in key.values():
            assert isinstance(value, (int, float, bool, list))


class TestDataset:
    def test_cache_round_trip_is_bit_identical(self):
        """Second build loads the decoded artifact — same arrays."""
        first = build_dataset(SMALL_SPEC)
        second = build_dataset(SMALL_SPEC)
        assert np.array_equal(first.phi1, second.phi1)
        assert np.array_equal(first.phi2, second.phi2)
        assert np.array_equal(first.force, second.force)
        assert np.array_equal(first.location, second.location)
        assert len(first) == SMALL_SPEC.samples

    def test_serialization_rejects_unknown_version(self):
        payload = build_dataset(SMALL_SPEC).to_dict()
        payload["version"] = 99
        with pytest.raises(SurrogateError, match="version 99"):
            TrainingDataset.from_dict(payload)


class TestSerialization:
    def test_model_round_trip_predicts_identically(self, surrogate):
        restored = SurrogateInverse.from_dict(surrogate.to_dict())
        phi1 = np.linspace(-2.4, -1.0, 32)
        phi2 = np.linspace(-2.3, -1.1, 32)
        np.testing.assert_array_equal(
            np.stack(surrogate.predict_batch(phi1, phi2)),
            np.stack(restored.predict_batch(phi1, phi2)))
        assert restored.residual_bound == surrogate.residual_bound
        assert restored.train_samples == surrogate.train_samples

    def test_model_rejects_unknown_version(self, surrogate):
        payload = surrogate.to_dict()
        payload["version"] = 99
        with pytest.raises(SurrogateError, match="version 99"):
            SurrogateInverse.from_dict(payload)

    def test_training_is_memoized(self, model_900, surrogate):
        """A second train with the same key loads from the cache."""
        again = train_surrogate(model_900, SMALL_SPEC)
        assert again.to_dict() == surrogate.to_dict()

    def test_dataset_version_bump_refits_the_model(self, model_900,
                                                   tmp_path, monkeypatch):
        """A warm model cache must not outlive a sweep-protocol change."""
        from repro.cache import temporary_cache
        from repro.surrogate import data

        fits = []
        fit = SurrogateInverse.fit.__func__

        def counting_fit(cls, *args, **kwargs):
            fits.append(True)
            return fit(cls, *args, **kwargs)

        monkeypatch.setattr(SurrogateInverse, "fit",
                            classmethod(counting_fit))
        with temporary_cache(tmp_path):
            train_surrogate(model_900, SMALL_SPEC)
            train_surrogate(model_900, SMALL_SPEC)
            assert len(fits) == 1
            monkeypatch.setattr(data, "DATASET_VERSION",
                                data.DATASET_VERSION + 1)
            train_surrogate(model_900, SMALL_SPEC)
        assert len(fits) == 2


class TestFallbackContract:
    @settings(max_examples=25, deadline=None)
    @given(pairs=st.lists(st.tuples(phase, phase), min_size=1,
                          max_size=6))
    def test_unconfident_rows_match_grid_bit_exactly(
            self, model_900, pairs):
        """Property: wherever the confidence gate rejects, the
        surrogate estimator IS the grid estimator."""
        surrogate = train_surrogate(model_900, SMALL_SPEC)
        amortized = SurrogateEstimator(model_900, surrogate)
        grid = ForceLocationEstimator(model_900)
        phi1 = np.array([p for p, _ in pairs])
        phi2 = np.array([p for _, p in pairs])
        a = amortized.invert_batch(phi1, phi2)
        g = grid.invert_batch(phi1, phi2)
        predicted = surrogate.predict_batch(phi1, phi2)
        residuals = forward_residual(model_900, predicted[0],
                                     predicted[1], phi1, phi2)
        confident = (surrogate.in_domain(phi1, phi2)
                     & (residuals <= surrogate.residual_bound))
        unconfident = np.flatnonzero(~confident)
        _assert_rows_equal(a, g, unconfident, unconfident)
        assert np.array_equal(a.touched, g.touched)

    def test_out_of_envelope_batch_is_pure_grid(self, amortized, grid,
                                                surrogate):
        """Positive phases sit far outside the training envelope, so
        every pressed row takes the fallback — full bit-exactness."""
        phi1 = np.linspace(0.5, 2.5, 16)
        phi2 = np.linspace(0.4, 2.6, 16)
        assert not surrogate.in_domain(phi1, phi2).any()
        a = amortized.invert_batch(phi1, phi2)
        g = grid.invert_batch(phi1, phi2)
        _assert_rows_equal(a, g, slice(None), slice(None))

    def test_location_hint_always_takes_the_grid(self, model_900,
                                                 amortized, grid):
        """The +/- 10 mm prior has no surrogate equivalent."""
        phi1, phi2 = model_900.predict_batch(np.full(8, 4.0),
                                             np.full(8, 0.045))
        a = amortized.invert_batch(phi1, phi2, location_hint=0.045)
        g = grid.invert_batch(phi1, phi2, location_hint=0.045)
        _assert_rows_equal(a, g, slice(None), slice(None))

    def test_untouched_rows_are_gated_like_grid(self, amortized, grid):
        quiet = np.radians(0.5)
        batch = amortized.invert_batch(np.array([quiet]),
                                       np.array([quiet]))
        assert not batch.touched[0]
        assert batch.force[0] == 0.0 and batch.location[0] == 0.0
        reference = grid.invert_batch(np.array([quiet]),
                                      np.array([quiet]))
        _assert_rows_equal(batch, reference, slice(None), slice(None))

    def test_scalar_invert_matches_batch(self, model_900, amortized):
        rng = np.random.default_rng(11)
        forces = rng.uniform(0.5, 8.0, 12)
        locations = rng.uniform(model_900.locations[0],
                                model_900.locations[-1], 12)
        phi1, phi2 = model_900.predict_batch(forces, locations)
        batch = amortized.invert_batch(phi1, phi2)
        for i in range(12):
            scalar = amortized.invert(float(phi1[i]), float(phi2[i]))
            assert scalar.force == batch.force[i]
            assert scalar.location == batch.location[i]
            assert scalar.residual == batch.residual[i]
            assert scalar.touched == bool(batch.touched[i])

    def test_counters_split_predictions_and_fallbacks(
            self, model_900, amortized):
        in_phi1, in_phi2 = model_900.predict_batch(np.full(4, 4.0),
                                                   np.full(4, 0.040))
        out_phi = np.full(2, 1.5)  # outside the training envelope
        phi1 = np.concatenate([in_phi1, out_phi])
        phi2 = np.concatenate([in_phi2, out_phi])
        with observed() as registry:
            amortized.invert_batch(phi1, phi2)
            counters = registry.snapshot()["counters"]
        assert counters["surrogate.predictions"] == 4
        assert counters["surrogate.fallbacks"] == 2


class TestInDomainAccuracy:
    def test_error_budget_vs_grid(self, model_900, amortized, grid):
        """p95 errors stay within the unit-suite budget of the oracle.

        The budget here is looser than the benchmark caps because the
        test surrogate trains on a deliberately coarse one-power sweep;
        ``benchmarks/test_perf_surrogate.py`` gates the real numbers.
        """
        rng = np.random.default_rng(3)
        count = 256
        forces = rng.uniform(0.5, 8.0, count)
        locations = rng.uniform(float(model_900.locations[0]),
                                float(model_900.locations[-1]), count)
        phi1, phi2 = model_900.predict_batch(forces, locations)
        phi1 = phi1 + rng.normal(0.0, np.radians(1.0), count)
        phi2 = phi2 + rng.normal(0.0, np.radians(1.0), count)
        a = amortized.invert_batch(phi1, phi2)
        g = grid.invert_batch(phi1, phi2)
        force_p95 = np.quantile(np.abs(a.force - forces), 0.95)
        grid_force_p95 = np.quantile(np.abs(g.force - forces), 0.95)
        location_p95 = np.quantile(np.abs(a.location - locations), 0.95)
        grid_location_p95 = np.quantile(np.abs(g.location - locations),
                                        0.95)
        assert force_p95 <= grid_force_p95 + 0.5
        assert location_p95 <= grid_location_p95 + 1.0e-3

    def test_predictions_stay_in_calibrated_spans(self, model_900,
                                                  surrogate):
        rng = np.random.default_rng(5)
        phi1 = rng.uniform(-np.pi, np.pi, 128)
        phi2 = rng.uniform(-np.pi, np.pi, 128)
        force, location = surrogate.predict_batch(phi1, phi2)
        low, high = model_900.force_range
        assert np.all((force >= low) & (force <= high))
        assert np.all((location >= model_900.locations[0])
                      & (location <= model_900.locations[-1]))


class TestBackendRegistry:
    def test_grid_is_the_default_and_unchanged(self, model_900):
        estimator = build_estimator(model_900)
        assert type(estimator) is ForceLocationEstimator
        assert estimator.backend == "grid"

    def test_surrogate_backend_builds_the_amortized_estimator(
            self, model_900):
        estimator = build_estimator(model_900, backend="surrogate",
                                    spec=SMALL_SPEC)
        assert isinstance(estimator, SurrogateEstimator)
        assert estimator.backend == "surrogate"

    def test_unknown_backend_is_an_estimation_error(self, model_900):
        with pytest.raises(EstimationError, match="oracle9000"):
            build_estimator(model_900, backend="oracle9000")

    def test_registry_names_are_the_wire_vocabulary(self):
        assert ESTIMATOR_BACKENDS == ("grid", "surrogate")


class TestServeSeam:
    def test_sensor_config_round_trips_backend(self):
        from repro.serve.protocol import SensorConfig

        config = SensorConfig(backend="surrogate")
        assert SensorConfig.from_dict(config.to_dict()) == config

    def test_sensor_config_defaults_to_grid(self):
        """Pre-backend wire payloads keep deserializing."""
        from repro.serve.protocol import SensorConfig

        assert SensorConfig.from_dict({}).backend == "grid"

    def test_sensor_config_rejects_unknown_backend(self):
        from repro.serve.protocol import SensorConfig

        with pytest.raises(ProtocolError, match="backend"):
            SensorConfig.from_dict({"backend": "oracle9000"})

    def test_load_profile_rejects_unknown_backend(self):
        from repro.serve.loadgen import LoadProfile

        with pytest.raises(ServeError, match="backend"):
            LoadProfile(backend="oracle9000")

    def test_tenant_rejects_unknown_backend(self):
        from repro.gateway import Tenant

        with pytest.raises(ConfigurationError, match="oracle9000"):
            Tenant(name="t", token="k", backend="oracle9000")

    def test_tenant_backend_override_rewrites_requests(self):
        from dataclasses import replace

        from repro.gateway import Gateway, Tenant, TenantTable
        from repro.serve.protocol import EstimateRequest, SensorConfig
        from repro.serve.service import InferenceService

        tenant = Tenant(name="t", token="k", backend="surrogate")
        gateway = Gateway(InferenceService(),
                          tenants=TenantTable([tenant]))
        request = EstimateRequest(sensor_id="s", sequence=1, time=0.0,
                                  phi1=0.1, phi2=0.2,
                                  config=SensorConfig())
        rewritten = gateway._apply_tenant_backend(request, tenant)
        assert rewritten.config.backend == "surrogate"
        # No override configured -> the request passes through as-is.
        passive = replace(tenant, backend="")
        assert gateway._apply_tenant_backend(request, passive) is request
