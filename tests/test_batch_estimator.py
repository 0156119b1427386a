"""Batched inversion and parallel campaign execution.

The contract under test: ``invert_batch`` is the scalar ``invert``
vectorized — element-wise identical results, including touch gating,
hints and tie-breaking — and ``CampaignExecutor`` only changes
wall-clock time, never values.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import (
    BatchForceLocationEstimate,
    ForceLocationEstimator,
    _linspace_rows,
    _wrapped_error,
)
from repro.errors import (
    CampaignTrialError,
    ConfigurationError,
    EstimationError,
)
from repro.experiments.parallel import (
    WORKERS_ENV,
    CampaignExecutor,
    resolve_workers,
)

phase = st.floats(min_value=-np.pi, max_value=np.pi,
                  allow_nan=False, allow_infinity=False)


def _pair_batch(estimator, phi1, phi2, hint=None):
    batch = estimator.invert_batch(np.asarray(phi1), np.asarray(phi2),
                                   location_hint=hint)
    scalar = [estimator.invert(p1, p2, location_hint=hint)
              for p1, p2 in zip(phi1, phi2)]
    return batch, scalar


def _assert_matches(batch, scalar):
    for i, estimate in enumerate(scalar):
        assert batch.force[i] == estimate.force
        assert batch.location[i] == estimate.location
        assert batch.residual[i] == estimate.residual
        assert bool(batch.touched[i]) == estimate.touched


class TestInvertBatch:
    @settings(max_examples=25, deadline=None)
    @given(pairs=st.lists(st.tuples(phase, phase), min_size=1,
                          max_size=6))
    def test_matches_scalar_elementwise(self, model_900, pairs):
        """Property: batch == scalar for arbitrary phase pairs."""
        estimator = ForceLocationEstimator(model_900)
        phi1 = [p for p, _ in pairs]
        phi2 = [p for _, p in pairs]
        batch, scalar = _pair_batch(estimator, phi1, phi2)
        _assert_matches(batch, scalar)

    def test_matches_scalar_on_model_phases(self, model_900):
        """Realistic presses (model-generated phases) round-trip the
        same through both paths, bit for bit."""
        estimator = ForceLocationEstimator(model_900)
        rng = np.random.default_rng(7)
        forces = rng.uniform(0.5, 8.0, 64)
        locations = rng.uniform(model_900.locations[0],
                                model_900.locations[-1], 64)
        phi1, phi2 = model_900.predict_batch(forces, locations)
        phi1 += rng.normal(0.0, np.radians(1.5), 64)
        phi2 += rng.normal(0.0, np.radians(1.5), 64)
        batch, scalar = _pair_batch(estimator, phi1, phi2)
        _assert_matches(batch, scalar)

    def test_matches_scalar_with_hint(self, model_900):
        """The restricted-span (location hint) path agrees too."""
        estimator = ForceLocationEstimator(model_900)
        phi1, phi2 = model_900.predict_batch(np.full(8, 4.0),
                                             np.full(8, 0.045))
        batch, scalar = _pair_batch(estimator, phi1, phi2, hint=0.045)
        _assert_matches(batch, scalar)

    def test_untouched_rows_are_gated(self, model_900):
        """Below-threshold rows come back untouched with zeros."""
        estimator = ForceLocationEstimator(model_900)
        quiet = np.radians(0.5)
        loud1, loud2 = model_900.predict(5.0, 0.040)
        batch = estimator.invert_batch(np.array([quiet, loud1]),
                                       np.array([quiet, loud2]))
        assert not batch.touched[0]
        assert batch.force[0] == 0.0 and batch.location[0] == 0.0
        assert batch.touched[1]

    def test_batch_container_protocol(self, model_900):
        """len / index / iterate views agree with the arrays."""
        estimator = ForceLocationEstimator(model_900)
        phi1, phi2 = model_900.predict_batch(np.array([2.0, 6.0]),
                                             np.array([0.030, 0.050]))
        batch = estimator.invert_batch(phi1, phi2)
        assert isinstance(batch, BatchForceLocationEstimate)
        assert len(batch) == 2
        estimates = list(batch)
        assert estimates[1].force == batch[1].force == batch.force[1]

    def test_rejects_non_1d(self, model_900):
        estimator = ForceLocationEstimator(model_900)
        with pytest.raises(EstimationError):
            estimator.invert_batch(np.zeros((2, 2)), np.zeros((2, 2)))


def _model_phases(model, count, seed):
    """``count`` noisy phase pairs of presses across the span."""
    rng = np.random.default_rng(seed)
    forces = rng.uniform(0.5, 8.0, count)
    locations = rng.uniform(model.locations[0], model.locations[-1], count)
    phi1, phi2 = model.predict_batch(forces, locations)
    return (phi1 + rng.normal(0.0, np.radians(1.5), count),
            phi2 + rng.normal(0.0, np.radians(1.5), count))


def _state_size(estimator):
    """Serialized size of the estimator, its model included."""
    return len(pickle.dumps(estimator))


class TestServingBatchSizes:
    """The batch path at the micro-batch sizes a server flushes."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 32])
    @pytest.mark.parametrize("hint", [None, 0.041])
    def test_matches_scalar_bit_for_bit(self, model_900, count, hint):
        estimator = ForceLocationEstimator(model_900)
        phi1, phi2 = _model_phases(model_900, count, seed=count)
        batch, scalar = _pair_batch(estimator, phi1, phi2, hint=hint)
        assert len(batch) == count
        for field in ("force", "location", "residual"):
            expected = np.array([getattr(e, field) for e in scalar])
            assert getattr(batch, field).tobytes() == expected.tobytes()
        assert batch.touched.tolist() == [e.touched for e in scalar]

    def test_coarse_grid_is_read_only(self, model_900):
        estimator = ForceLocationEstimator(model_900)
        grids = estimator._coarse_grids
        assert grids.shape == (2, 1, 25, 25)
        assert not grids.flags.writeable
        with pytest.raises(ValueError):
            grids[0, 0, 0, 0] = 0.0
        for axis in estimator._coarse_axes:
            assert not axis.flags.writeable
        with pytest.raises(AttributeError):
            estimator.model = model_900

    def test_state_does_not_grow_across_calls(self, model_900):
        """No per-span cache: at N=1 every stage has a new span."""
        estimator = ForceLocationEstimator(model_900)
        rng = np.random.default_rng(3)
        estimator.invert_batch(np.array([1.0]), np.array([1.0]))
        before = _state_size(estimator)
        low, high = model_900.locations[0], model_900.locations[-1]
        for index in range(1000):
            hint = None if index % 2 else rng.uniform(low, high)
            estimator.invert_batch(rng.uniform(-np.pi, np.pi, 1),
                                   rng.uniform(-np.pi, np.pi, 1),
                                   location_hint=hint)
        assert _state_size(estimator) == before


class TestExactKernels:
    """The hand-rolled kernels equal the numpy calls they replace."""

    def test_linspace_rows_matches_numpy(self):
        rng = np.random.default_rng(0)
        low = rng.uniform(-5.0, 5.0, 64)
        high = low + rng.uniform(0.0, 3.0, 64)
        for points in (2, 21, 25):
            assert (_linspace_rows(low, high, points).tobytes()
                    == np.linspace(low, high, points, axis=-1).tobytes())
        # One zero-width row switches numpy to its k / div * delta form
        # for the whole batch.
        high[5] = low[5]
        assert (_linspace_rows(low, high, 21).tobytes()
                == np.linspace(low, high, 21, axis=-1).tobytes())
        # Stacked (force, location) rows are separate linspace calls: a
        # zero step in one row leaves the other row's form alone.
        low2, high2 = low.reshape(2, 32), high.reshape(2, 32)
        expected = np.stack([np.linspace(a, b, 21, axis=-1)
                             for a, b in zip(low2, high2)])
        assert (_linspace_rows(low2, high2, 21).tobytes()
                == expected.tobytes())

    def test_wrapped_error_matches_remainder(self):
        two_pi = 2.0 * np.pi
        rng = np.random.default_rng(1)
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
        for turn in range(-3, 5):
            for value in (turn * two_pi, turn * two_pi * (1 + 1e-16)):
                edges += [value, np.nextafter(value, np.inf),
                          np.nextafter(value, -np.inf)]
        for errors in (np.array(edges), rng.uniform(-3 * two_pi,
                                                     4 * two_pi, 4096)):
            # Within two turns (the exact fast path) and beyond it.
            for subset in (errors[(errors > -2 * two_pi)
                                  & (errors < 3 * two_pi)], errors):
                expected = np.remainder(subset, two_pi) - np.pi
                assert (_wrapped_error(subset, 0.0).tobytes()
                        == expected.tobytes())


def _seeded_draw(seed):
    """Cheap deterministic trial used by the executor tests."""
    rng = np.random.default_rng(seed)
    return float(rng.normal()), float(rng.uniform())


def _flaky_trial(seed):
    """Module-level (picklable) trial that fails on one input."""
    if seed == 2:
        raise ValueError(f"synthetic failure for seed {seed}")
    return seed


class TestCampaignExecutor:
    def test_parallel_matches_serial_bit_for_bit(self):
        """4 workers return exactly the serial loop's results."""
        arguments = [(seed,) for seed in range(16)]
        serial = CampaignExecutor(workers=1).run(_seeded_draw, arguments)
        parallel = CampaignExecutor(workers=4).run(_seeded_draw, arguments)
        assert serial.results == parallel.results
        assert serial.mode == "serial"
        assert parallel.workers in (1, 4)  # 1 only if the pool fell back
        if parallel.mode == "serial":
            assert parallel.fallback_reason

    def test_unpicklable_trial_falls_back_to_serial(self):
        executor = CampaignExecutor(workers=2)
        execution = executor.run(lambda seed: seed, [(1,), (2,)])
        assert execution.results == [1, 2]
        assert execution.mode == "serial"
        assert execution.fallback_reason

    def test_summary_mentions_mode_and_trials(self):
        execution = CampaignExecutor(workers=1).run(_seeded_draw,
                                                    [(0,), (1,)])
        summary = execution.summary()
        assert "2 trials" in summary and "serial" in summary

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2  # explicit argument wins
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_workers()
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers() == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=0)

    def test_workers_env_zero_means_serial(self, monkeypatch):
        """REPRO_WORKERS=0 is the parallelism kill switch, not an
        error: campaigns run on the serial path."""
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == 1
        execution = CampaignExecutor().run(_seeded_draw, [(0,), (1,)])
        assert execution.mode == "serial"
        assert execution.workers == 1
        assert execution.results == [_seeded_draw(0), _seeded_draw(1)]
        assert not execution.fallback_reason


class TestCampaignFailurePaths:
    def test_serial_trial_failure_is_named(self):
        with pytest.raises(CampaignTrialError,
                           match=r"trial 2 .*_flaky_trial.*ValueError"):
            CampaignExecutor(workers=1).run(
                _flaky_trial, [(seed,) for seed in range(4)])

    def test_serial_trial_failure_chains_cause(self):
        with pytest.raises(CampaignTrialError) as excinfo:
            CampaignExecutor(workers=1).run(_flaky_trial, [(2,)])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_trial_failure_propagates_not_swallowed(self):
        """A raising worker must surface the same clear campaign
        error as the serial loop — never be retried serially and
        never be masked by the infrastructure fallback."""
        executor = CampaignExecutor(workers=2)
        with pytest.raises(CampaignTrialError,
                           match=r"trial 2 .*ValueError: synthetic"):
            executor.run(_flaky_trial, [(seed,) for seed in range(4)])

    def test_parallel_trial_type_error_is_campaign_error(self):
        """Trial-raised TypeErrors are campaign failures, not the
        'unpicklable work' infrastructure signal, so they must not
        trigger the serial fallback."""

        executor = CampaignExecutor(workers=2)
        with pytest.raises(CampaignTrialError, match="TypeError"):
            # One argument too many -> TypeError inside the trial call.
            executor.run(_seeded_draw, [(0,), (1, 2)])
