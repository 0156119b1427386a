"""Learned amortized inversion of the phase-force model.

The grid estimator inverts each (phi1, phi2) pair by searching the
calibrated :class:`~repro.core.calibration.SensorModel` — three grid
stages per sample, ~1.3k model evaluations each.  This module amortizes
that search: a ridge regression on polynomial + Fourier phase features
is fitted closed-form against simulator-generated sweeps
(:mod:`repro.surrogate.data`), turning inversion into one feature
matmul per batch (the sim-to-real recipe of Sferrazza et al. and
TaCauchy in PAPERS.md).

The grid stays the accuracy oracle.  Every surrogate prediction is
scored by its *forward residual* — re-predict the phases at the
predicted (force, location) through the calibrated model and wrap the
difference against the measurement, the same residual the grid search
minimizes.  Samples whose phases fall outside the training envelope, or
whose forward residual exceeds the envelope bound fitted at training
time, fall back to the grid search bit-exactly (the fallback calls the
unmodified grid code path on the out-of-domain subset).  Requests that
carry a ``location_hint`` also take the grid path: the hint contract
(restrict the search to +/- 10 mm) has no surrogate equivalent.

Trained models are versioned and memoized through :mod:`repro.cache`
(:data:`SURROGATE_MODEL_VERSION`), so every process that asks for the
same (dataset spec, feature map, ridge) tuple shares one fit from the
disk tier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.cache import get_cache
from repro.core.calibration import SensorModel
from repro.core.estimator import (
    BatchForceLocationEstimate,
    ForceLocationEstimate,
    ForceLocationEstimator,
    _wrapped_error,
)
from repro.errors import EstimationError, SurrogateError
from repro.obs.registry import active, maybe_span
from repro.surrogate.data import DatasetSpec, TrainingDataset, build_dataset

#: Bump whenever the feature map, fit, or serialized layout changes.
SURROGATE_MODEL_VERSION = 1


@dataclass(frozen=True)
class PhaseFeatureMap:
    """Deterministic (phi1, phi2) -> feature-vector expansion.

    Features: the full bivariate polynomial basis of total degree
    ``degree`` (bias excluded — the fit centers its targets), plus
    ``harmonics`` Fourier pairs ``sin(k phi) / cos(k phi)`` per phase.
    The trig terms let a small basis track the wrapped, saturating
    phase response without a high-degree polynomial.

    Attributes:
        degree: Total polynomial degree (>= 1).
        harmonics: Fourier harmonics per phase (>= 0).
    """

    degree: int = 3
    harmonics: int = 3

    def __post_init__(self):
        if self.degree < 1:
            raise SurrogateError(
                f"feature degree must be >= 1, got {self.degree}")
        if self.harmonics < 0:
            raise SurrogateError(
                f"harmonics must be >= 0, got {self.harmonics}")

    @property
    def width(self) -> int:
        """Number of features produced per sample."""
        polynomial = (self.degree + 1) * (self.degree + 2) // 2 - 1
        return polynomial + 4 * self.harmonics

    def transform(self, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
        """Feature matrix of shape (N, :attr:`width`)."""
        phi1 = np.asarray(phi1, dtype=float).ravel()
        phi2 = np.asarray(phi2, dtype=float).ravel()
        columns = []
        for total in range(1, self.degree + 1):
            for i in range(total + 1):
                columns.append(phi1 ** (total - i) * phi2 ** i)
        for k in range(1, self.harmonics + 1):
            columns.append(np.sin(k * phi1))
            columns.append(np.cos(k * phi1))
            columns.append(np.sin(k * phi2))
            columns.append(np.cos(k * phi2))
        return np.stack(columns, axis=1)

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {"degree": int(self.degree),
                "harmonics": int(self.harmonics)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseFeatureMap":
        """Inverse of :meth:`to_dict`."""
        return cls(degree=int(payload["degree"]),
                   harmonics=int(payload["harmonics"]))


def forward_residual(model: SensorModel, force: np.ndarray,
                     location: np.ndarray, phi1: np.ndarray,
                     phi2: np.ndarray) -> np.ndarray:
    """RMS wrapped residual of a (force, location) candidate [rad].

    Re-predicts the phases at the candidate through the calibrated
    model and wraps against the measurement with the estimator's own
    :func:`~repro.core.estimator._wrapped_error`, so the number is
    directly comparable to the residual the grid search reports at its
    optimum.
    """
    predicted1, predicted2 = model.predict_batch(force, location)
    error1 = _wrapped_error(np.asarray(phi1, dtype=float) + np.pi,
                            predicted1)
    error2 = _wrapped_error(np.asarray(phi2, dtype=float) + np.pi,
                            predicted2)
    return np.sqrt(0.5 * (error1 * error1 + error2 * error2))


@dataclass(frozen=True)
class SurrogateInverse:
    """Closed-form ridge inverse (phi1, phi2) -> (force, location).

    Produced by :meth:`fit`; everything needed to predict and to judge
    in-domain membership is carried in plain arrays, so instances
    serialize losslessly through :meth:`to_dict` (the
    :mod:`repro.cache` codec).

    Attributes:
        feature_map: The feature expansion the weights were fitted on.
        feature_mean / feature_scale: Per-feature standardization.
        weights: (width, 2) ridge solution in standardized space.
        intercept: (2,) target means.
        force_range / location_range: Clip bounds for predictions (the
            calibrated spans).
        phi1_range / phi2_range: Training phase envelope (with margin);
            measurements outside it are out-of-domain.
        residual_bound: Forward-residual acceptance bound [rad] fitted
            from the training residual distribution.
        ridge_lambda: Regularization strength used by the fit.
        train_samples: Training-set size (diagnostics).
        train_residual_p50 / train_residual_p95: Training forward
            residual quantiles [rad] (diagnostics).
    """

    feature_map: PhaseFeatureMap
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    weights: np.ndarray
    intercept: np.ndarray
    force_range: Tuple[float, float]
    location_range: Tuple[float, float]
    phi1_range: Tuple[float, float]
    phi2_range: Tuple[float, float]
    residual_bound: float
    ridge_lambda: float = 1e-8
    train_samples: int = 0
    train_residual_p50: float = 0.0
    train_residual_p95: float = 0.0

    @classmethod
    def fit(cls, model: SensorModel, dataset: TrainingDataset,
            feature_map: Optional[PhaseFeatureMap] = None,
            ridge_lambda: float = 1e-8,
            envelope_quantile: float = 0.995,
            envelope_slack: float = 2.0,
            box_margin: float = 0.02) -> "SurrogateInverse":
        """Closed-form ridge fit against one training dataset.

        Args:
            model: The grid oracle's calibrated model — used to clip
                predictions to the calibrated spans and to fit the
                forward-residual acceptance envelope.
            dataset: Simulator-generated sweep (phases + ground truth).
            feature_map: Feature expansion (default
                :class:`PhaseFeatureMap`).
            ridge_lambda: Per-sample L2 strength on the standardized
                features.
            envelope_quantile / envelope_slack: The residual acceptance
                bound is ``slack * quantile(train residuals)`` — wide
                enough that nominal noise stays in-domain, tight enough
                that model mismatch falls back to the grid.
            box_margin: Phase-envelope margin as a fraction of the
                training span per axis.
        """
        if len(dataset) < 8:
            raise SurrogateError(
                f"surrogate fit needs >= 8 samples, got {len(dataset)}")
        feature_map = feature_map or PhaseFeatureMap()
        features = feature_map.transform(dataset.phi1, dataset.phi2)
        mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        standardized = (features - mean) / scale
        targets = np.stack([dataset.force, dataset.location], axis=1)
        intercept = targets.mean(axis=0)
        centered = targets - intercept
        width = features.shape[1]
        gram = standardized.T @ standardized
        gram += ridge_lambda * len(dataset) * np.eye(width)
        weights = np.linalg.solve(gram, standardized.T @ centered)

        force_range = (float(model.force_range[0]),
                       float(model.force_range[1]))
        locations = model.locations
        location_range = (float(locations[0]), float(locations[-1]))

        def _box(values: np.ndarray) -> Tuple[float, float]:
            low, high = float(values.min()), float(values.max())
            margin = box_margin * (high - low)
            return (low - margin, high + margin)

        fitted = cls(
            feature_map=feature_map, feature_mean=mean,
            feature_scale=scale, weights=weights, intercept=intercept,
            force_range=force_range, location_range=location_range,
            phi1_range=_box(dataset.phi1), phi2_range=_box(dataset.phi2),
            residual_bound=np.inf, ridge_lambda=float(ridge_lambda),
            train_samples=len(dataset))
        force, location = fitted.predict_batch(dataset.phi1, dataset.phi2)
        residuals = forward_residual(model, force, location,
                                     dataset.phi1, dataset.phi2)
        bound = float(envelope_slack
                      * np.quantile(residuals, envelope_quantile))
        return replace(fitted, residual_bound=max(bound, 1e-6),
                       train_residual_p50=float(np.median(residuals)),
                       train_residual_p95=float(np.quantile(residuals,
                                                            0.95)))

    def predict_batch(self, phi1: np.ndarray, phi2: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Amortized (force, location) prediction, shape (N,) each.

        One feature expansion and two row-wise weighted sums;
        predictions are clipped to the calibrated spans (the grid
        search can never leave them either).

        Deliberately *not* a matmul: BLAS accumulation order varies
        with batch shape, so ``X @ W`` gives the same sample different
        last-bit results in different batches.  ``sum(axis=1)``'s
        pairwise reduction depends only on the feature axis, keeping
        each sample's prediction bit-identical no matter what
        micro-batch it rides in — the invariance the serve, fleet, and
        gateway parity contracts assume.
        """
        features = self.feature_map.transform(phi1, phi2)
        standardized = (features - self.feature_mean) / self.feature_scale
        force = ((standardized * self.weights[:, 0]).sum(axis=1)
                 + self.intercept[0])
        location = ((standardized * self.weights[:, 1]).sum(axis=1)
                    + self.intercept[1])
        return (np.clip(force, self.force_range[0], self.force_range[1]),
                np.clip(location, self.location_range[0],
                        self.location_range[1]))

    def in_domain(self, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
        """Boolean mask: inside the training phase envelope."""
        phi1 = np.asarray(phi1, dtype=float)
        phi2 = np.asarray(phi2, dtype=float)
        return ((phi1 >= self.phi1_range[0]) & (phi1 <= self.phi1_range[1])
                & (phi2 >= self.phi2_range[0])
                & (phi2 <= self.phi2_range[1]))

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars and lists only)."""
        return {
            "version": SURROGATE_MODEL_VERSION,
            "feature_map": self.feature_map.to_dict(),
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_scale": [float(v) for v in self.feature_scale],
            "weights": [[float(v) for v in row] for row in self.weights],
            "intercept": [float(v) for v in self.intercept],
            "force_range": [float(v) for v in self.force_range],
            "location_range": [float(v) for v in self.location_range],
            "phi1_range": [float(v) for v in self.phi1_range],
            "phi2_range": [float(v) for v in self.phi2_range],
            "residual_bound": float(self.residual_bound),
            "ridge_lambda": float(self.ridge_lambda),
            "train_samples": int(self.train_samples),
            "train_residual_p50": float(self.train_residual_p50),
            "train_residual_p95": float(self.train_residual_p95),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SurrogateInverse":
        """Inverse of :meth:`to_dict`.

        Raises:
            SurrogateError: Unknown serialized version.
        """
        version = int(payload.get("version", -1))
        if version != SURROGATE_MODEL_VERSION:
            raise SurrogateError(
                f"surrogate model version {version} is not supported "
                f"(expected {SURROGATE_MODEL_VERSION})")
        return cls(
            feature_map=PhaseFeatureMap.from_dict(payload["feature_map"]),
            feature_mean=np.array(payload["feature_mean"], dtype=float),
            feature_scale=np.array(payload["feature_scale"], dtype=float),
            weights=np.array(payload["weights"], dtype=float),
            intercept=np.array(payload["intercept"], dtype=float),
            force_range=tuple(float(v) for v in payload["force_range"]),
            location_range=tuple(float(v)
                                 for v in payload["location_range"]),
            phi1_range=tuple(float(v) for v in payload["phi1_range"]),
            phi2_range=tuple(float(v) for v in payload["phi2_range"]),
            residual_bound=float(payload["residual_bound"]),
            ridge_lambda=float(payload["ridge_lambda"]),
            train_samples=int(payload["train_samples"]),
            train_residual_p50=float(payload["train_residual_p50"]),
            train_residual_p95=float(payload["train_residual_p95"]),
        )


def train_surrogate(model: SensorModel,
                    spec: Optional[DatasetSpec] = None,
                    feature_map: Optional[PhaseFeatureMap] = None,
                    ridge_lambda: float = 1e-8,
                    executor=None) -> SurrogateInverse:
    """Train (or load) the surrogate inverse for ``model``.

    The dataset flows through :func:`repro.surrogate.data.build_dataset`
    (itself cached) and the fitted model is memoized under the
    ``surrogate.model`` namespace, keyed on the dataset spec, feature
    map, ridge strength, *and* the calibrated model itself — retraining
    is automatic whenever any ingredient changes.  ``executor`` only
    matters on a cold dataset sweep, where it shards SNR levels across
    warm campaign pools.
    """
    spec = spec or DatasetSpec()
    feature_map = feature_map or PhaseFeatureMap()
    key = {
        "dataset": spec.cache_key(),
        "features": feature_map.to_dict(),
        "ridge_lambda": float(ridge_lambda),
        "model": model.to_dict(),
    }

    def _fit() -> SurrogateInverse:
        with maybe_span("surrogate.fit", {"samples": spec.samples}):
            dataset = build_dataset(spec, executor=executor)
            return SurrogateInverse.fit(model, dataset,
                                        feature_map=feature_map,
                                        ridge_lambda=ridge_lambda)

    return get_cache().get_or_compute(
        "surrogate.model", SURROGATE_MODEL_VERSION, key, _fit,
        encode=SurrogateInverse.to_dict, decode=SurrogateInverse.from_dict)


class SurrogateEstimator(ForceLocationEstimator):
    """Drop-in estimator that amortizes the grid search.

    Public API, thresholds, and the no-touch short-circuit are
    inherited unchanged from :class:`ForceLocationEstimator`; only the
    inversion strategy differs.  The fallback contract:

    * phases outside the training envelope, or whose forward residual
      exceeds ``surrogate.residual_bound`` -> grid search, bit-exact;
    * any request carrying a ``location_hint`` -> grid search (the
      +/- 10 mm prior has no surrogate equivalent);
    * everything else -> one ridge predict + one forward-residual
      check for the whole batch.

    The scalar path delegates to the batch path, so ``invert`` and
    ``invert_batch`` agree element-wise exactly like the grid pair.
    """

    backend = "surrogate"

    def __init__(self, model: SensorModel, surrogate: SurrogateInverse,
                 touch_threshold_deg: float = 5.0):
        super().__init__(model, touch_threshold_deg=touch_threshold_deg)
        self.surrogate = surrogate

    def _invert(self, phi1: float, phi2: float,
                location_hint: Optional[float] = None
                ) -> ForceLocationEstimate:
        hint = None if location_hint is None else np.array([location_hint])
        return self._invert_batch(np.array([phi1]), np.array([phi2]),
                                  hint)[0]

    def _invert_batch(self, phi1: np.ndarray, phi2: np.ndarray,
                      location_hint: Optional[np.ndarray] = None
                      ) -> BatchForceLocationEstimate:
        if location_hint is not None:
            return super()._invert_batch(phi1, phi2, location_hint)
        phi1 = np.atleast_1d(np.asarray(phi1, dtype=float))
        phi2 = np.atleast_1d(np.asarray(phi2, dtype=float))
        phi1, phi2 = np.broadcast_arrays(phi1, phi2)
        if phi1.ndim != 1:
            raise EstimationError(
                f"phase batches must be 1-D, got shape {phi1.shape}")
        count = phi1.shape[0]
        touched = ~((np.abs(phi1) < self.touch_threshold)
                    & (np.abs(phi2) < self.touch_threshold))
        force = np.zeros(count)
        location = np.zeros(count)
        residual = np.zeros(count)
        pressed = np.flatnonzero(touched)
        accepted = 0
        if pressed.size:
            sample1 = phi1[pressed]
            sample2 = phi2[pressed]
            predicted_force, predicted_location = \
                self.surrogate.predict_batch(sample1, sample2)
            residuals = forward_residual(self.model, predicted_force,
                                         predicted_location, sample1,
                                         sample2)
            confident = (self.surrogate.in_domain(sample1, sample2)
                         & (residuals <= self.surrogate.residual_bound))
            keep = pressed[confident]
            force[keep] = predicted_force[confident]
            location[keep] = predicted_location[confident]
            residual[keep] = residuals[confident]
            accepted = int(keep.size)
            fallback = pressed[~confident]
            if fallback.size:
                exact = super()._invert_batch(phi1[fallback],
                                              phi2[fallback])
                force[fallback] = exact.force
                location[fallback] = exact.location
                residual[fallback] = exact.residual
        obs = active()
        if obs is not None and pressed.size:
            obs.counter("surrogate.predictions").increment(accepted)
            obs.counter("surrogate.fallbacks").increment(
                int(pressed.size) - accepted)
        return BatchForceLocationEstimate(force=force, location=location,
                                          residual=residual,
                                          touched=touched)


def build_surrogate_estimator(model: SensorModel,
                              touch_threshold_deg: float = 5.0,
                              carrier_frequency: Optional[float] = None,
                              fast: bool = True,
                              spec: Optional[DatasetSpec] = None,
                              ) -> SurrogateEstimator:
    """Train-or-load a surrogate and wrap it as an estimator.

    The estimator-backend registry's factory for
    ``backend="surrogate"``.  When no explicit dataset ``spec`` is
    given, one is derived from the model's carrier (overridable via
    ``carrier_frequency``) and the ``fast`` transducer flag — the same
    identity the serve stack keys its model cache on.
    """
    if spec is None:
        carrier = (float(model.frequency) if carrier_frequency is None
                   else float(carrier_frequency))
        spec = DatasetSpec(carrier_frequency=carrier, fast=bool(fast))
    surrogate = train_surrogate(model, spec)
    return SurrogateEstimator(model, surrogate,
                              touch_threshold_deg=touch_threshold_deg)
