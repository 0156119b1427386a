"""Sensor-model calibration tests (paper section 4.2 / Table 1)."""

import numpy as np
import pytest

from repro.core.calibration import (
    CalibrationCurve,
    SensorModel,
    calibrate_harmonic_observable,
    calibrate_port_observable,
    fit_sensor_model,
    harmonic_differential_phases,
)
from repro.errors import CalibrationError

LOCATIONS = (0.020, 0.030, 0.040, 0.050, 0.060)
FORCES = np.linspace(0.5, 8.0, 12)


@pytest.fixture(scope="module")
def port_model(transducer=None):
    from repro.experiments.scenarios import fast_transducer
    return calibrate_port_observable(fast_transducer(), 900e6, LOCATIONS,
                                     FORCES)


class TestCalibrationCurve:
    def test_phase_evaluates_polynomial(self):
        curve = CalibrationCurve(0.04, (0.0, 0.0, 2.0, 1.0), (0.0, 8.0))
        assert curve.phase(3.0) == pytest.approx(7.0)

    def test_clips_out_of_range_force(self):
        curve = CalibrationCurve(0.04, (1.0, 0.0), (1.0, 8.0))
        assert curve.phase(100.0) == pytest.approx(curve.phase(8.0))
        assert curve.phase(0.0) == pytest.approx(curve.phase(1.0))


class TestFitSensorModel:
    def test_reproduces_cubic_data(self):
        forces = np.linspace(1.0, 8.0, 10)
        phases = 0.01 * forces ** 3 - 0.2 * forces + 0.5
        data = np.stack([phases, phases + 0.1])
        model = fit_sensor_model([0.02, 0.06], forces, data, data, 900e6)
        predicted, _ = model.predict(4.0, 0.02)
        assert predicted == pytest.approx(0.01 * 64 - 0.8 + 0.5, abs=1e-6)

    def test_unwraps_wrapped_inputs(self):
        forces = np.linspace(1.0, 8.0, 10)
        true_phase = np.linspace(2.8, 4.0, 10)  # crosses pi
        wrapped = np.angle(np.exp(1j * true_phase))
        data = np.stack([wrapped, wrapped])
        model = fit_sensor_model([0.02, 0.06], forces, data, data, 900e6)
        predicted, _ = model.predict(8.0, 0.02)
        assert predicted == pytest.approx(4.0, abs=0.02)

    def test_rejects_wrong_shape(self):
        with pytest.raises(CalibrationError):
            fit_sensor_model([0.02, 0.06], [1.0, 2.0, 3.0, 4.0],
                             np.zeros((3, 4)), np.zeros((2, 4)), 900e6)

    def test_rejects_too_few_forces(self):
        with pytest.raises(CalibrationError):
            fit_sensor_model([0.02, 0.06], [1.0, 2.0],
                             np.zeros((2, 2)), np.zeros((2, 2)), 900e6)


class TestSensorModel:
    def test_predict_at_calibration_point(self, port_model, transducer):
        truth = transducer.differential_phases(900e6, 4.0, 0.040)
        predicted = port_model.predict(4.0, 0.040)
        assert predicted[0] == pytest.approx(truth.port1, abs=np.radians(4.0))
        assert predicted[1] == pytest.approx(truth.port2, abs=np.radians(4.0))

    def test_interpolates_at_55mm(self, port_model, transducer):
        """The paper's Table 1 validation: the model predicts 55 mm,
        a location it was never calibrated at."""
        truth = transducer.differential_phases(900e6, 4.0, 0.055)
        predicted = port_model.predict(4.0, 0.055)
        assert predicted[0] == pytest.approx(truth.port1, abs=np.radians(6.0))
        assert predicted[1] == pytest.approx(truth.port2, abs=np.radians(6.0))

    def test_clips_location_to_span(self, port_model):
        inside = port_model.predict(4.0, 0.060)
        outside = port_model.predict(4.0, 0.075)
        assert outside == pytest.approx(inside)

    def test_predict_grid_matches_pointwise(self, port_model):
        forces = np.array([1.0, 4.0, 7.0])
        locations = np.array([0.025, 0.045])
        phi1, phi2 = port_model.predict_grid(forces, locations)
        for i, force in enumerate(forces):
            for j, location in enumerate(locations):
                p1, p2 = port_model.predict(float(force), float(location))
                assert phi1[i, j] == pytest.approx(p1)
                assert phi2[i, j] == pytest.approx(p2)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_predict_span_matches_predict_batch_bytes(self, samples):
        """The broadcast Horner pass equals element-wise prediction,
        bit for bit, with per-curve force ranges that differ (the
        clip the repo's shared-range calibrations never exercise)."""
        rng = np.random.default_rng(samples)
        locations = (0.020, 0.035, 0.050, 0.060)

        def curves(port):
            return [CalibrationCurve(
                location, tuple(rng.normal(0.0, 0.3, 4)),
                (0.2 * index + 0.1 * port, 8.0 - 0.7 * index - 0.3 * port))
                for index, location in enumerate(locations)]

        model = SensorModel(locations, curves(0), curves(1), 900e6)
        low = rng.uniform(0.0, 6.0, samples)
        forces = np.linspace(low, low + 3.0, 21, axis=-1)
        start = rng.uniform(0.010, 0.055, samples)
        spans = np.linspace(start, start + 0.02, 17, axis=-1)
        phases = model.predict_span(forces, spans)
        assert phases.shape == (2, samples, 21, 17)
        expected = model.predict_batch(forces[:, :, np.newaxis],
                                       spans[:, np.newaxis, :])
        for port in range(2):
            assert (np.ascontiguousarray(phases[port]).tobytes()
                    == expected[port].tobytes())

    def test_force_range(self, port_model):
        low, high = port_model.force_range
        assert low == pytest.approx(0.5)
        assert high == pytest.approx(8.0)

    def test_rejects_negative_force(self, port_model):
        with pytest.raises(CalibrationError):
            port_model.predict(-1.0, 0.04)

    def test_rejects_single_location(self):
        curve = CalibrationCurve(0.04, (1.0, 0.0), (0.5, 8.0))
        with pytest.raises(CalibrationError):
            SensorModel([0.04], [curve], [curve], 900e6)

    def test_rejects_unsorted_locations(self):
        curve = CalibrationCurve(0.04, (1.0, 0.0), (0.5, 8.0))
        with pytest.raises(CalibrationError):
            SensorModel([0.06, 0.02], [curve, curve], [curve, curve], 900e6)


class TestPersistence:
    def test_save_load_roundtrip(self, port_model, tmp_path):
        path = tmp_path / "model.json"
        port_model.save(path)
        loaded = SensorModel.load(path)
        assert loaded.frequency == port_model.frequency
        for force in (1.0, 4.0, 7.5):
            for location in (0.021, 0.044, 0.059):
                assert loaded.predict(force, location) == pytest.approx(
                    port_model.predict(force, location))

    def test_dict_roundtrip(self, port_model):
        rebuilt = SensorModel.from_dict(port_model.to_dict())
        assert rebuilt.predict(3.0, 0.03) == pytest.approx(
            port_model.predict(3.0, 0.03))


class TestHarmonicObservable:
    def test_untouched_phases_zero(self, tag):
        phi1, phi2 = harmonic_differential_phases(tag, 900e6, 0.0, 0.04)
        assert phi1 == pytest.approx(0.0)
        assert phi2 == pytest.approx(0.0)

    def test_harmonic_close_to_port_observable(self, tag, transducer):
        """The wireless observable tracks the VNA observable (the
        paper's Table 1 overlay) to within the switch-leakage skew."""
        harmonic = harmonic_differential_phases(tag, 900e6, 4.0, 0.040)
        port = transducer.differential_phases(900e6, 4.0, 0.040)
        assert harmonic[0] == pytest.approx(port.port1, abs=np.radians(12.0))
        assert harmonic[1] == pytest.approx(port.port2, abs=np.radians(12.0))

    def test_harmonic_calibration_model(self, tag):
        model = calibrate_harmonic_observable(tag, 900e6, LOCATIONS,
                                              FORCES)
        truth = harmonic_differential_phases(tag, 900e6, 4.0, 0.040)
        predicted = model.predict(4.0, 0.040)
        assert predicted[0] == pytest.approx(truth[0], abs=np.radians(3.0))

    def test_port_calibration_noise_option(self, transducer, rng):
        model = calibrate_port_observable(
            transducer, 900e6, LOCATIONS, FORCES,
            phase_noise_std_deg=0.5, rng=rng)
        clean = calibrate_port_observable(transducer, 900e6, LOCATIONS,
                                          FORCES)
        noisy_prediction = model.predict(4.0, 0.04)[0]
        clean_prediction = clean.predict(4.0, 0.04)[0]
        assert noisy_prediction == pytest.approx(clean_prediction,
                                                 abs=np.radians(2.0))
        assert noisy_prediction != clean_prediction
