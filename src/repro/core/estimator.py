"""Force magnitude + location estimation by model inversion.

Given the pair of measured differential phases (phi1, phi2), find the
(force, location) whose model-predicted phases best match.  Residuals
are compared on the unit circle (wrapped), the search is a coarse grid
followed by two local zoom refinements — deterministic, derivative-free
and robust to the model's mild non-monotonicities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.calibration import SensorModel
from repro.errors import EstimationError
from repro.obs.instruments import BATCH_BUCKETS
from repro.obs.registry import active


@dataclass(frozen=True)
class ForceLocationEstimate:
    """One inverted reading.

    Attributes:
        force: Estimated contact force [N].
        location: Estimated contact location [m] from port 1.
        residual: RMS wrapped phase residual at the optimum [rad].
        touched: False when the phases say "no contact".
    """

    force: float
    location: float
    residual: float
    touched: bool

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "force": float(self.force),
            "location": float(self.location),
            "residual": float(self.residual),
            "touched": bool(self.touched),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ForceLocationEstimate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            force=float(payload["force"]),
            location=float(payload["location"]),
            residual=float(payload["residual"]),
            touched=bool(payload["touched"]),
        )


@dataclass(frozen=True)
class BatchForceLocationEstimate:
    """N inverted readings as parallel arrays.

    Untouched samples carry zeros in ``force``/``location``/``residual``
    with ``touched`` False, mirroring the scalar no-contact estimate.

    Attributes:
        force: Estimated forces [N], shape (N,).
        location: Estimated locations [m], shape (N,).
        residual: RMS wrapped phase residuals [rad], shape (N,).
        touched: Contact classification per sample, shape (N,).
    """

    force: np.ndarray
    location: np.ndarray
    residual: np.ndarray
    touched: np.ndarray

    def __len__(self) -> int:
        return int(self.force.shape[0])

    def __getitem__(self, index: int) -> ForceLocationEstimate:
        return ForceLocationEstimate(
            force=float(self.force[index]),
            location=float(self.location[index]),
            residual=float(self.residual[index]),
            touched=bool(self.touched[index]),
        )

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


_TWO_PI = 2.0 * np.pi


def _linspace_rows(low: np.ndarray, high: np.ndarray,
                   points: int) -> np.ndarray:
    """``np.linspace(low[i], high[i], points, axis=-1)`` for each row
    ``i`` of the leading axis, stacked, bit for bit, without the generic
    dispatch that dominates small batches: ``low + k * step``, the last
    point set to ``high``, and the ``k / div * delta`` form for all of a
    linspace's samples if any of them has a zero step."""
    div = points - 1
    step = (high - low) / div
    ramp = np.arange(points, dtype=float)
    grid = ramp * step[..., np.newaxis]
    zero = (step == 0.0).any(axis=-1)
    if zero.any():
        grid[zero] = (ramp / div) * (high - low)[zero][..., np.newaxis]
    grid += low[..., np.newaxis]
    grid[..., -1] = high
    return grid


def _wrapped_error(shifted_measured, predicted: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Wrapped (measured - predicted) phase error on [-pi, pi).

    ``shifted_measured`` is the measured phase pre-offset by +pi, so
    the wrap costs one pass over the prediction grid.  Arithmetic
    equivalent of ``angle(exp(1j*(measured - predicted)))`` up to the
    sign of the +/-pi branch point, which the squared cost cannot see,
    at a fraction of the transcendental cost.  Both search paths must
    use this same formula so batch and scalar inversion stay
    bit-identical.  ``out`` may alias ``predicted`` to work in place.

    Equals ``remainder(error, 2 pi) - pi`` bit for bit.  While every
    error is within two turns of [0, 2 pi), ``turns * 2 pi`` is exact,
    so subtracting it (one turn less where the quotient rounded up)
    rounds the exact value ``remainder`` rounds, without its ``fmod``.
    """
    out = np.subtract(shifted_measured, predicted, out=out)
    turns = np.floor(np.divide(out, _TWO_PI))
    if turns.min(initial=0.0) >= -2.0 and turns.max(initial=0.0) <= 2.0:
        np.subtract(out, np.multiply(turns, _TWO_PI, out=turns), out=out)
        np.add(out, _TWO_PI, out=out, where=out < 0.0)
    else:
        np.remainder(out, _TWO_PI, out=out)
    np.subtract(out, np.pi, out=out)
    return out


class ForceLocationEstimator:
    """Inverts a :class:`SensorModel`.

    Args:
        model: Calibrated phase-force model.
        touch_threshold_deg: Phases below this magnitude at both ports
            are classified as "no contact".
        force_resolution / location_resolution: Final grid pitch of the
            zoomed search [N] / [m].
    """

    #: Registry name of this inversion strategy (see
    #: :func:`build_estimator`); subclasses override it.
    backend = "grid"

    def __init__(self, model: SensorModel, touch_threshold_deg: float = 5.0,
                 force_resolution: float = 0.01,
                 location_resolution: float = 0.05e-3):
        if touch_threshold_deg < 0.0:
            raise EstimationError(
                f"touch threshold must be >= 0, got {touch_threshold_deg}"
            )
        if force_resolution <= 0.0 or location_resolution <= 0.0:
            raise EstimationError("search resolutions must be positive")
        self._model = model
        self.touch_threshold = np.radians(touch_threshold_deg)
        self.force_resolution = float(force_resolution)
        self.location_resolution = float(location_resolution)
        # The hint-free coarse stage searches the same 25 x 25 grid on
        # every call, so it is predicted once here.  Axes are (force,
        # location) rows.
        bounds = np.array([model.force_range, model.locations[[0, -1]]])
        self._coarse_axes = _linspace_rows(bounds[:, :1], bounds[:, 1:], 25)
        self._coarse_grids = model.predict_span(*self._coarse_axes)
        self._coarse_axes.flags.writeable = False
        self._coarse_grids.flags.writeable = False

    @property
    def model(self) -> SensorModel:
        """The inverted model, fixed at construction."""
        return self._model

    def _grid_search(self, measured: Tuple[float, float],
                     force_span: Tuple[float, float],
                     location_span: Tuple[float, float],
                     points: int) -> Tuple[float, float, float]:
        obs = active()
        if obs is not None:
            obs.counter("estimator.grid_stages").increment()
        forces = np.linspace(force_span[0], force_span[1], points)
        locations = np.linspace(location_span[0], location_span[1], points)
        phi1, phi2 = self.model.predict_grid(forces, locations)
        error1 = _wrapped_error(measured[0] + np.pi, phi1)
        error2 = _wrapped_error(measured[1] + np.pi, phi2)
        cost = 0.5 * (error1 * error1 + error2 * error2)
        index = np.unravel_index(int(np.argmin(cost)), cost.shape)
        best_force = float(forces[index[0]])
        best_location = float(locations[index[1]])
        return best_force, best_location, float(np.sqrt(cost[index]))

    def invert(self, phi1: float, phi2: float,
               location_hint: Optional[float] = None
               ) -> ForceLocationEstimate:
        """Estimate (force, location) from measured phases [rad].

        Args:
            phi1 / phi2: Differential phases at the two readout tones.
            location_hint: Optional prior location [m]; restricts the
                initial search to +/- 10 mm around it.
        """
        obs = active()
        if obs is None:
            return self._invert(phi1, phi2, location_hint)
        start = time.perf_counter()
        estimate = self._invert(phi1, phi2, location_hint)
        obs.histogram("estimator.invert_seconds").observe(
            time.perf_counter() - start)
        obs.counter("estimator.inversions").increment()
        if not estimate.touched:
            obs.counter("estimator.no_touch").increment()
        return estimate

    def _invert(self, phi1: float, phi2: float,
                location_hint: Optional[float] = None
                ) -> ForceLocationEstimate:
        if (abs(phi1) < self.touch_threshold
                and abs(phi2) < self.touch_threshold):
            return ForceLocationEstimate(force=0.0, location=0.0,
                                         residual=0.0, touched=False)
        force_low, force_high = self.model.force_range
        locations = self.model.locations
        location_low, location_high = float(locations[0]), float(locations[-1])
        if location_hint is not None:
            location_low = max(location_low, location_hint - 10e-3)
            location_high = min(location_high, location_hint + 10e-3)
            if location_low >= location_high:
                raise EstimationError(
                    f"location hint {location_hint} m lies outside the "
                    f"calibrated span"
                )

        force_span = (force_low, force_high)
        location_span = (location_low, location_high)
        best = self._grid_search((phi1, phi2), force_span, location_span, 25)
        for zoom in (0.15, 0.03):
            force_radius = zoom * (force_high - force_low)
            location_radius = zoom * (location_high - location_low)
            force_span = (max(force_low, best[0] - force_radius),
                          min(force_high, best[0] + force_radius))
            location_span = (max(location_low, best[1] - location_radius),
                             min(location_high, best[1] + location_radius))
            best = self._grid_search((phi1, phi2), force_span,
                                     location_span, 21)
        return ForceLocationEstimate(force=best[0], location=best[1],
                                     residual=best[2], touched=True)

    def _batch_grid_search(
        self, shifted: np.ndarray, axes: np.ndarray,
        grids: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One grid-search stage over N samples with per-sample axes.

        ``shifted`` is both ports' measured phases pre-offset by +pi
        (see :func:`_wrapped_error`), shaped (2, N, 1, 1); ``axes`` is
        the (force, location) search axes, shaped (2, N, points).
        ``grids`` is the shared (2, 1, points, points) prediction of
        the coarse stage, if given.  Returns the best (force, location)
        as a (2, N) array and the residuals.  The flattened per-sample
        argmin uses C order, matching the scalar search's tie-breaking.
        """
        obs = active()
        if obs is not None:
            obs.counter("estimator.grid_stages").increment()
        if grids is None:
            # Freshly allocated; wrap in place.
            grids = self.model.predict_span(axes[0], axes[1])
            error = _wrapped_error(shifted, grids, out=grids)
        else:
            error = _wrapped_error(shifted, grids)
        np.multiply(error, error, out=error)
        # argmin over e1^2 + e2^2: the scalar path's 0.5 factor is an
        # exact, monotone scale, so the minimiser (ties included) is
        # unchanged and the factor is applied to the winner only.
        score = np.add(error[0], error[1], out=error[0]).reshape(
            axes.shape[1], -1)
        flat = np.argmin(score, axis=1)
        rows = np.arange(flat.size)
        best = axes[[[0], [1]], rows, np.divmod(flat, axes.shape[2])]
        return best, np.sqrt(0.5 * score[rows, flat])

    def invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                     location_hint: Optional[np.ndarray] = None
                     ) -> BatchForceLocationEstimate:
        """Estimate (force, location) for N phase pairs at once.

        Vectorizes the coarse-plus-zoom search of :meth:`invert` over
        the whole batch: each stage evaluates a single broadcast
        residual tensor instead of N Python-level grid searches.  The
        search schedule is identical to the scalar path, so results
        match :meth:`invert` element-wise.

        Args:
            phi1 / phi2: Measured differential phases [rad], shape (N,)
                (broadcast-compatible shapes are accepted).
            location_hint: Optional prior location(s) [m] — a scalar or
                shape-(N,) array; restricts each sample's initial
                search to +/- 10 mm around its hint.
        """
        obs = active()
        if obs is None:
            return self._invert_batch(phi1, phi2, location_hint)
        start = time.perf_counter()
        batch = self._invert_batch(phi1, phi2, location_hint)
        obs.histogram("estimator.batch_seconds").observe(
            time.perf_counter() - start)
        obs.histogram("estimator.batch_size",
                      BATCH_BUCKETS).observe(len(batch))
        obs.counter("estimator.batch_inversions").increment()
        obs.counter("estimator.batched_samples").increment(len(batch))
        return batch

    def _invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                      location_hint: Optional[np.ndarray] = None
                      ) -> BatchForceLocationEstimate:
        phi1 = np.atleast_1d(np.asarray(phi1, dtype=float))
        phi2 = np.atleast_1d(np.asarray(phi2, dtype=float))
        phi1, phi2 = np.broadcast_arrays(phi1, phi2)
        if phi1.ndim != 1:
            raise EstimationError(
                f"phase batches must be 1-D, got shape {phi1.shape}"
            )
        count = phi1.shape[0]
        touched = ~((np.abs(phi1) < self.touch_threshold)
                    & (np.abs(phi2) < self.touch_threshold))
        # Force, location and residual rows; untouched samples stay 0.
        result = np.zeros((3, count))
        active = np.flatnonzero(touched)
        if active.size:
            shifted = np.stack((phi1[active], phi2[active]))[
                :, :, np.newaxis, np.newaxis] + np.pi
            # (force, location) search bounds, (2, 1) or per sample.
            low = self._coarse_axes[:, :, 0]
            high = self._coarse_axes[:, :, -1]
            if location_hint is None:
                best, residual = self._batch_grid_search(
                    shifted, self._coarse_axes.repeat(active.size, axis=1),
                    self._coarse_grids)
            else:
                hint = np.broadcast_to(
                    np.atleast_1d(np.asarray(location_hint, dtype=float)),
                    (count,))[active]
                low = np.stack((np.full(hint.size, low[0, 0]),
                                np.maximum(low[1, 0], hint - 10e-3)))
                high = np.stack((np.full(hint.size, high[0, 0]),
                                 np.minimum(high[1, 0], hint + 10e-3)))
                if np.any(low[1] >= high[1]):
                    raise EstimationError(
                        "location hint lies outside the calibrated span"
                    )
                best, residual = self._batch_grid_search(
                    shifted, _linspace_rows(low, high, 25))
            for zoom in (0.15, 0.03):
                radius = zoom * (high - low)
                best, residual = self._batch_grid_search(
                    shifted, _linspace_rows(np.maximum(low, best - radius),
                                            np.minimum(high, best + radius),
                                            21))
            result[:2, active] = best
            result[2, active] = residual
        force, location, residual = result
        return BatchForceLocationEstimate(force=force, location=location,
                                          residual=residual,
                                          touched=touched)


#: Inversion strategies :func:`build_estimator` can resolve.
ESTIMATOR_BACKENDS = ("grid", "surrogate")


def build_estimator(model: SensorModel, backend: str = "grid",
                    touch_threshold_deg: float = 5.0,
                    **options) -> ForceLocationEstimator:
    """Build an estimator by backend name (the pluggable seam).

    Mirrors :func:`repro.reader.batch.resolve_sounder`: callers name a
    strategy, the registry builds it, and every strategy honors the
    same ``invert`` / ``invert_batch`` contract.

    * ``"grid"`` — the coarse-plus-zoom grid search (the accuracy
      oracle); ``options`` pass through to
      :class:`ForceLocationEstimator` (``force_resolution``,
      ``location_resolution``).
    * ``"surrogate"`` — the learned amortized inverse of
      :mod:`repro.surrogate` (imported lazily so the core package
      carries no dependency on it); ``options`` pass through to
      :func:`repro.surrogate.model.build_surrogate_estimator`
      (``carrier_frequency``, ``fast``, ``spec``, ...).

    Raises:
        EstimationError: Unknown backend name.
    """
    if backend == "grid":
        return ForceLocationEstimator(
            model, touch_threshold_deg=touch_threshold_deg, **options)
    if backend == "surrogate":
        from repro.surrogate.model import build_surrogate_estimator

        return build_surrogate_estimator(
            model, touch_threshold_deg=touch_threshold_deg, **options)
    raise EstimationError(
        f"unknown estimator backend {backend!r}; expected one of "
        f"{ESTIMATOR_BACKENDS}")
