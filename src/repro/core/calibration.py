"""The sensor model: cubic phase-force calibration (paper section 4.2).

The paper presses the sensor at five known locations (20..60 mm) with
known forces, records the differential phases at both ports, and fits
a cubic phase-force curve per (port, location).  Intermediate
locations are linearly interpolated (validated at 55 mm in Table 1).
The fitted model is what the estimator inverts.

Two calibration observables are supported:

* ``port`` — the VNA observable: differential reflection phase at the
  sensor's own ports (the paper's wired calibration).
* ``harmonic`` — the wireless observable: phase of the switching-tone
  difference vector at the tag's antenna, exactly what the reader's
  conjugate-multiply measures.  Using it keeps the calibration and the
  over-the-air measurement in the same domain (see DESIGN.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import get_cache
from repro.errors import CalibrationError
from repro.sensor.tag import TagState, WiForceTag
from repro.sensor.transduction import ForceTransducer

#: Artifact version of cached harmonic-observable calibrations.  Bump
#: whenever the fit (or the harmonic observable itself) changes the
#: model produced for identical inputs.
HARMONIC_CALIBRATION_VERSION = 1


@dataclass(frozen=True)
class CalibrationCurve:
    """Cubic phase-force fit for one (port, location).

    Attributes:
        location: Calibrated press location [m].
        coefficients: Polynomial coefficients, highest power first
            (numpy polyval convention), phase in radians vs force in
            newtons.
        force_range: (min, max) force [N] covered by the fit.
    """

    location: float
    coefficients: Tuple[float, ...]
    force_range: Tuple[float, float]

    def phase(self, force: Union[float, np.ndarray]) -> np.ndarray:
        """Predicted phase [rad]; forces are clipped to the fit range."""
        force = np.clip(np.asarray(force, dtype=float),
                        self.force_range[0], self.force_range[1])
        return np.polyval(self.coefficients, force)


class SensorModel:
    """Interpolated two-port phase-force model over the sensor length.

    Args:
        locations: Calibrated locations [m], ascending.
        port1_curves / port2_curves: One cubic fit per location.
        frequency: Carrier the calibration was taken at [Hz].
    """

    def __init__(self, locations: Sequence[float],
                 port1_curves: Sequence[CalibrationCurve],
                 port2_curves: Sequence[CalibrationCurve],
                 frequency: float):
        self._locations = np.asarray(list(locations), dtype=float)
        if self._locations.size < 2:
            raise CalibrationError(
                "need at least 2 calibrated locations for interpolation"
            )
        self._widths = np.diff(self._locations)
        if np.any(self._widths <= 0.0):
            raise CalibrationError("locations must be strictly ascending")
        if not (len(port1_curves) == len(port2_curves)
                == self._locations.size):
            raise CalibrationError(
                "one curve per port per location is required"
            )
        self._port1 = list(port1_curves)
        self._port2 = list(port2_curves)
        self.frequency = float(frequency)
        # One table row per curve, port 1 then port 2.  Coefficients are
        # left-padded with zeros to a common length, which leaves Horner
        # evaluation (``numpy.polyval``'s scheme) unchanged; this is
        # what lets prediction vectorize over arbitrary tensors.
        curves = self._port1 + self._port2
        width = max(len(curve.coefficients) for curve in curves)
        self._coefficients = np.zeros((len(curves), width))
        for row, curve in enumerate(curves):
            self._coefficients[row, width - len(curve.coefficients):] = (
                curve.coefficients)
        self._ranges = np.array([curve.force_range for curve in curves])
        self._force_range = (max(curve.force_range[0] for curve in curves),
                             min(curve.force_range[1] for curve in curves))

    def _segments(
        self, locations: np.ndarray, ndim: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of the (low, high) x (port 1, port 2) curves bracketing
        each location, shaped (2, 2) plus at least ``ndim`` broadcast
        axes, and the high curve's interpolation weight."""
        clipped = np.clip(np.asarray(locations, dtype=float),
                          self._locations[0], self._locations[-1])
        # Interval index: the number of interior knots below each one.
        segment = np.searchsorted(self._locations[1:-1], clipped)
        weight = (clipped - self._locations[segment]) / self._widths[segment]
        span = self._locations.size
        brackets = np.array([[0, span], [1, span + 1]]).reshape(
            (2, 2) + (1,) * max(ndim, segment.ndim))
        return segment + brackets, weight

    def predict_batch(
        self, forces: np.ndarray, locations: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Element-wise vectorized prediction.

        ``forces`` and ``locations`` may be any broadcast-compatible
        shapes; returns (phi1, phi2) [rad] in the broadcast shape.
        Numerically identical to looping :meth:`predict`.
        """
        forces = np.asarray(forces, dtype=float)
        if np.any(forces < 0.0):
            raise CalibrationError("forces must be >= 0")
        curve, weight = self._segments(locations, forces.ndim)
        clipped = np.clip(forces, self._ranges[curve, 0],
                          self._ranges[curve, 1])
        gathered = self._coefficients[curve]
        values = np.zeros_like(clipped)
        for power in range(gathered.shape[-1]):
            values = values * clipped + gathered[..., power]
        low, high = values
        phi1, phi2 = (1.0 - weight) * low + weight * high
        return phi1, phi2

    def predict_span(self, forces: np.ndarray,
                     locations: np.ndarray) -> np.ndarray:
        """Per-sample grid prediction for batched search.

        ``forces`` is (N, F) and ``locations`` is (N, L); returns each
        sample's phases over the outer product of its axes, shaped
        (2, N, F, L) with port 1 first, element-wise identical to
        broadcasting :meth:`predict_batch`.  One broadcast Horner pass
        (same multiply-add sequence per element) evaluates every curve
        at every force; each cell then blends its bracketing curves.
        """
        forces = np.asarray(forces, dtype=float)
        curve, weight = self._segments(locations)
        coefficients = self._coefficients[:, :, np.newaxis]
        clipped = np.clip(forces[:, np.newaxis, :],
                          self._ranges[:, 0, np.newaxis],
                          self._ranges[:, 1, np.newaxis])
        table = np.full(clipped.shape, coefficients[:, 0])
        for power in range(1, coefficients.shape[1]):
            table *= clipped
            table += coefficients[:, power]
        # Gather each cell's curve along the force axis: (2, 2, N, L, F).
        low, high = table[np.arange(len(forces))[:, np.newaxis], curve]
        # (1 - w) * low + w * high, evaluated in place.
        blend = weight[:, :, np.newaxis]
        np.multiply(low, 1.0 - blend, out=low)
        np.multiply(high, blend, out=high)
        return np.add(low, high, out=low).swapaxes(2, 3)

    @property
    def locations(self) -> np.ndarray:
        """Calibrated locations [m] (copy)."""
        return self._locations.copy()

    @property
    def force_range(self) -> Tuple[float, float]:
        """Common calibrated force range [N]."""
        return self._force_range

    def predict(self, force: float, location: float) -> Tuple[float, float]:
        """(phi1, phi2) [rad] for a press of ``force`` at ``location``."""
        if force < 0.0:
            raise CalibrationError(f"force must be >= 0, got {force}")
        phi1, phi2 = self.predict_batch(np.asarray(force, dtype=float),
                                        np.asarray(location, dtype=float))
        return float(phi1), float(phi2)

    def predict_grid(self, forces: np.ndarray,
                     locations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized prediction over a (force, location) grid.

        Returns two arrays shaped (len(forces), len(locations)).
        """
        forces = np.asarray(forces, dtype=float)
        locations = np.asarray(locations, dtype=float)
        return self.predict_batch(forces[:, np.newaxis],
                                  locations[np.newaxis, :])

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        def curve_dict(curve: CalibrationCurve) -> Dict:
            return {
                "location": curve.location,
                "coefficients": list(curve.coefficients),
                "force_range": list(curve.force_range),
            }

        return {
            "frequency": self.frequency,
            "locations": self._locations.tolist(),
            "port1": [curve_dict(c) for c in self._port1],
            "port2": [curve_dict(c) for c in self._port2],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SensorModel":
        """Rebuild a model serialised with :meth:`to_dict`."""
        def curve(entry: Dict) -> CalibrationCurve:
            return CalibrationCurve(
                location=float(entry["location"]),
                coefficients=tuple(entry["coefficients"]),
                force_range=(float(entry["force_range"][0]),
                             float(entry["force_range"][1])),
            )

        return cls(
            locations=data["locations"],
            port1_curves=[curve(c) for c in data["port1"]],
            port2_curves=[curve(c) for c in data["port2"]],
            frequency=float(data["frequency"]),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the model to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SensorModel":
        """Read a model from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def fit_sensor_model(locations: Sequence[float], forces: Sequence[float],
                     phases_port1: np.ndarray, phases_port2: np.ndarray,
                     frequency: float, degree: int = 3) -> SensorModel:
    """Fit per-location cubic curves from measured phase data.

    Args:
        locations: Calibrated locations [m], ascending, length L.
        forces: Force samples [N], length F.
        phases_port1 / phases_port2: Measured phases [rad], shape (L, F).
        frequency: Calibration carrier [Hz].
        degree: Polynomial degree (3 = the paper's cubic fit).
    """
    forces = np.asarray(list(forces), dtype=float)
    phases_port1 = np.asarray(phases_port1, dtype=float)
    phases_port2 = np.asarray(phases_port2, dtype=float)
    expected = (len(list(locations)), forces.size)
    if phases_port1.shape != expected or phases_port2.shape != expected:
        raise CalibrationError(
            f"phase arrays must be shaped {expected}, got "
            f"{phases_port1.shape} and {phases_port2.shape}"
        )
    if forces.size < degree + 1:
        raise CalibrationError(
            f"need at least {degree + 1} force samples for a degree-"
            f"{degree} fit, got {forces.size}"
        )
    port1_curves = []
    port2_curves = []
    for index, location in enumerate(locations):
        # Pre-contact samples (no shorting yet) report exactly zero at
        # both ports; they sit on a different branch of the physics and
        # must not enter the cubic fit.  Stiff units may not touch
        # until well above the lowest commanded force.
        in_contact = ((phases_port1[index] != 0.0)
                      | (phases_port2[index] != 0.0))
        if int(in_contact.sum()) < degree + 1:
            raise CalibrationError(
                f"location {location}: only {int(in_contact.sum())} "
                f"in-contact samples; raise the calibration forces"
            )
        valid_forces = forces[in_contact]
        force_range = (float(valid_forces.min()),
                       float(valid_forces.max()))
        # Unwrap along the force axis: the physical phase is continuous
        # in force even when the wrapped measurement crosses +/- pi.
        phase1 = np.unwrap(phases_port1[index][in_contact])
        phase2 = np.unwrap(phases_port2[index][in_contact])
        coeff1 = np.polyfit(valid_forces, phase1, degree)
        coeff2 = np.polyfit(valid_forces, phase2, degree)
        port1_curves.append(CalibrationCurve(
            float(location), tuple(coeff1), force_range))
        port2_curves.append(CalibrationCurve(
            float(location), tuple(coeff2), force_range))
    return SensorModel(locations, port1_curves, port2_curves, frequency)


def calibrate_port_observable(
    transducer: ForceTransducer, frequency: float,
    locations: Sequence[float], forces: Sequence[float],
    phase_noise_std_deg: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> SensorModel:
    """Calibrate from the VNA (sensor-port) observable (section 4.2).

    Optionally adds VNA phase trace noise to the samples before the
    cubic fit, as a real calibration would contain.
    """
    rng = rng or np.random.default_rng()
    locations = list(locations)
    forces = list(forces)
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            observed = transducer.differential_phases(frequency, float(force),
                                                      float(location))
            phases1[i, j] = observed.port1
            phases2[i, j] = observed.port2
    if phase_noise_std_deg > 0.0:
        noise = np.radians(phase_noise_std_deg)
        phases1 = phases1 + rng.normal(0.0, noise, phases1.shape)
        phases2 = phases2 + rng.normal(0.0, noise, phases2.shape)
    return fit_sensor_model(locations, forces, phases1, phases2, frequency)


def calibrate_with_rig(
    transducer: ForceTransducer, frequency: float,
    locations: Sequence[float], forces: Sequence[float],
    rig, phase_noise_std_deg: float = 0.5,
    tag: Optional[WiForceTag] = None,
    rng: Optional[np.random.Generator] = None,
) -> SensorModel:
    """Calibrate the way the paper actually does it (section 4.2).

    The actuated indenter presses each calibration location with each
    commanded force; the *applied* force (with regulation error) drives
    the sensor, the phases are measured with trace noise, and the cubic
    fit runs against the *load-cell* readings — so the model carries
    the same measurement imperfections a physical calibration would.

    Args:
        transducer: The sensor under calibration.
        frequency: Calibration carrier [Hz].
        locations: Calibration press locations [m].
        forces: Commanded force schedule [N].
        rig: A :class:`repro.mechanics.indenter.GroundTruthRig`.
        phase_noise_std_deg: Phase trace noise [deg].
        tag: When given, calibrate through the assembled tag in the
            wireless (switching-harmonic) observable — the domain the
            reader actually measures in.  When ``None``, use the wired
            VNA (sensor-port) observable.
        rng: Random source for the phase noise.
    """
    rng = rng or np.random.default_rng()
    locations = list(locations)
    forces = list(forces)
    noise = np.radians(phase_noise_std_deg)
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    measured_forces = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            press = rig.press(float(force), float(location))
            if tag is not None:
                phi1, phi2 = harmonic_differential_phases(
                    tag, frequency, press.applied_force,
                    press.applied_location)
            else:
                observed = transducer.differential_phases(
                    frequency, press.applied_force,
                    press.applied_location)
                phi1, phi2 = observed.port1, observed.port2
            phases1[i, j] = phi1 + rng.normal(0.0, noise)
            phases2[i, j] = phi2 + rng.normal(0.0, noise)
            measured_forces[i, j] = press.measured_force
    # Per-location force axes differ slightly (regulation error); fit
    # against the mean measured schedule, which is what a practitioner
    # tabulating load-cell readings would use.
    force_axis = measured_forces.mean(axis=0)
    return fit_sensor_model(locations, force_axis, phases1, phases2,
                            frequency)


def harmonic_differential_phases(tag: WiForceTag, frequency: float,
                                 force: float,
                                 location: float) -> Tuple[float, float]:
    """The wireless observable for one press, computed noiselessly.

    Phase of the switching-tone difference vector (on-state minus
    off-state reflection) of the pressed tag, conjugated against the
    untouched tag — exactly what the reader's phase-group processing
    converges to as noise vanishes.
    """
    grid = np.array([float(frequency)])
    base = tag.state_reflections(grid, TagState())
    touch = tag.state_reflections(grid, TagState(force, location))

    def difference(states, key):
        return states[key][0] - states[(False, False)][0]

    phi1 = np.angle(difference(touch, (True, False))
                    * np.conj(difference(base, (True, False))))
    phi2 = np.angle(difference(touch, (False, True))
                    * np.conj(difference(base, (False, True))))
    return float(phi1), float(phi2)


def calibrate_harmonic_observable(
    tag: WiForceTag, frequency: float, locations: Sequence[float],
    forces: Sequence[float],
) -> SensorModel:
    """Calibrate in the wireless (switching-harmonic) domain.

    A bench calibration of the assembled tag: noiseless harmonic-domain
    phases per (location, force), cubic-fitted exactly like the VNA
    model.  This is the model the estimator should use for over-the-air
    readings, since it lives in the same observable domain.

    The fit is a pure function of the transducer spec, the carrier and
    the press schedule (the tag's clocking and crystal offset shape the
    time series, not the per-state reflections the harmonic observable
    is built from), so the model is memoized through
    :mod:`repro.cache` with the :meth:`SensorModel.to_dict` codec —
    Monte-Carlo campaign workers calibrating identically-parameterized
    (including identically-*toleranced*) units share one fit across
    processes.
    """
    locations = [float(value) for value in locations]
    forces = [float(value) for value in forces]
    key = {
        "transducer": tag.transducer.cache_spec(),
        "frequency": float(frequency),
        "locations": locations,
        "forces": forces,
    }
    return get_cache().get_or_compute(
        "core.harmonic_calibration", HARMONIC_CALIBRATION_VERSION, key,
        lambda: _fit_harmonic_observable(tag, frequency, locations,
                                         forces),
        encode=SensorModel.to_dict, decode=SensorModel.from_dict)


def _fit_harmonic_observable(tag: WiForceTag, frequency: float,
                             locations: List[float],
                             forces: List[float]) -> SensorModel:
    """The cold path behind :func:`calibrate_harmonic_observable`."""
    phases1 = np.zeros((len(locations), len(forces)))
    phases2 = np.zeros_like(phases1)
    for i, location in enumerate(locations):
        for j, force in enumerate(forces):
            phi1, phi2 = harmonic_differential_phases(
                tag, frequency, float(force), float(location))
            phases1[i, j] = phi1
            phases2[i, j] = phi2
    return fit_sensor_model(locations, forces, phases1, phases2, frequency)
