"""Deterministic training-data factory for the surrogate inverse.

Sweeps (force, location, SNR) through the *existing* wireless
simulator: one :func:`~repro.experiments.scenarios.build_wireless_scenario`
deployment per transmit-power level, a baseline capture for the drift
reference, then every press in the sweep read through
:meth:`repro.core.pipeline.WiForceReader.measure_phases_batch`: the
same per-press harmonic capture a live read takes, so training rows
and served phases come from one measurement path.  The SNR axis is
the reader's transmit power — lower power means noisier phase
estimates, which is exactly the distribution shift the surrogate must
absorb at serve time.

Everything is seeded by the spec, so the dataset is a pure function of
:meth:`DatasetSpec.cache_key` and flows content-addressed through
:mod:`repro.cache` (:data:`DATASET_VERSION`): campaign workers, serve
replicas, and CI all share one artifact from the disk tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cache import get_cache
from repro.errors import SurrogateError
from repro.obs.registry import active, maybe_span

#: Bump whenever the sweep protocol or serialized layout changes.
DATASET_VERSION = 2


@dataclass(frozen=True)
class DatasetSpec:
    """Everything a training sweep depends on (the cache key).

    Attributes:
        carrier_frequency: Calibration carrier [Hz].
        fast: Reduced-resolution transducer (matches the serve stack's
            ``SensorConfig.fast``).
        force_points / location_points: Sweep grid resolution over the
            calibrated spans.
        tx_power_sweep: Reader transmit powers [dBm] — the SNR axis;
            one simulated deployment (fresh clutter draw) per level.
        repeats: Independent noise draws per (force, location, power).
        seed: Master seed; each power level derives its own.
        force_range: Swept force span [N].
        location_range: Swept location span [m].
        chunk_captures: Presses captured per drift baseline.  A single
            baseline's linear clock-drift fit extrapolates ~1.5 rad of
            phase error across a thousand contiguous captures, so the
            sweep re-references every chunk (the paper's before/after
            protocol at batch granularity).
        baseline_groups: Phase groups per baseline capture — the drift
            fit's observation window (longer = tighter slope).
    """

    carrier_frequency: float = 900e6
    fast: bool = True
    force_points: int = 24
    location_points: int = 25
    tx_power_sweep: Tuple[float, ...] = (4.0, 10.0, 16.0)
    repeats: int = 2
    seed: int = 17
    force_range: Tuple[float, float] = (0.5, 8.0)
    location_range: Tuple[float, float] = (0.020, 0.060)
    chunk_captures: int = 64
    baseline_groups: int = 32

    def __post_init__(self):
        if self.force_points < 2 or self.location_points < 2:
            raise SurrogateError("sweep needs >= 2 points per axis")
        if not self.tx_power_sweep:
            raise SurrogateError("tx_power_sweep must not be empty")
        if self.repeats < 1:
            raise SurrogateError(
                f"repeats must be >= 1, got {self.repeats}")
        if self.chunk_captures < 1:
            raise SurrogateError(
                f"chunk_captures must be >= 1, got {self.chunk_captures}")
        if self.baseline_groups < 2:
            raise SurrogateError(
                f"baseline_groups must be >= 2, got {self.baseline_groups}")

    @property
    def samples(self) -> int:
        """Total rows the sweep produces."""
        return (self.force_points * self.location_points * self.repeats
                * len(self.tx_power_sweep))

    def forces(self) -> np.ndarray:
        """The swept force grid [N]."""
        return np.linspace(self.force_range[0], self.force_range[1],
                           self.force_points)

    def locations(self) -> np.ndarray:
        """The swept location grid [m]."""
        return np.linspace(self.location_range[0], self.location_range[1],
                           self.location_points)

    def cache_key(self) -> dict:
        """Canonical cache key (plain scalars and lists)."""
        return {
            "carrier_frequency": float(self.carrier_frequency),
            "fast": bool(self.fast),
            "force_points": int(self.force_points),
            "location_points": int(self.location_points),
            "tx_power_sweep": [float(p) for p in self.tx_power_sweep],
            "repeats": int(self.repeats),
            "seed": int(self.seed),
            "force_range": [float(v) for v in self.force_range],
            "location_range": [float(v) for v in self.location_range],
            "chunk_captures": int(self.chunk_captures),
            "baseline_groups": int(self.baseline_groups),
        }


@dataclass(frozen=True)
class TrainingDataset:
    """One materialized sweep: wireless phases with ground truth.

    Attributes:
        phi1 / phi2: Measured differential phases [rad], shape (N,).
        force / location: Applied ground truth [N] / [m], shape (N,).
        tx_power_dbm: Transmit power each row was captured at [dBm].
    """

    phi1: np.ndarray
    phi2: np.ndarray
    force: np.ndarray
    location: np.ndarray
    tx_power_dbm: np.ndarray

    def __len__(self) -> int:
        return int(self.phi1.shape[0])

    def to_dict(self) -> dict:
        """JSON-ready dict (plain lists; the cache codec)."""
        return {
            "version": DATASET_VERSION,
            "phi1": [float(v) for v in self.phi1],
            "phi2": [float(v) for v in self.phi2],
            "force": [float(v) for v in self.force],
            "location": [float(v) for v in self.location],
            "tx_power_dbm": [float(v) for v in self.tx_power_dbm],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingDataset":
        """Inverse of :meth:`to_dict`.

        Raises:
            SurrogateError: Unknown serialized version.
        """
        version = int(payload.get("version", -1))
        if version != DATASET_VERSION:
            raise SurrogateError(
                f"dataset version {version} is not supported "
                f"(expected {DATASET_VERSION})")
        return cls(
            phi1=np.array(payload["phi1"], dtype=float),
            phi2=np.array(payload["phi2"], dtype=float),
            force=np.array(payload["force"], dtype=float),
            location=np.array(payload["location"], dtype=float),
            tx_power_dbm=np.array(payload["tx_power_dbm"], dtype=float),
        )


def _sweep(spec: DatasetSpec, executor=None) -> TrainingDataset:
    """The cold path behind :func:`build_dataset`.

    Imported lazily so :mod:`repro.surrogate` stays importable without
    the experiments stack (mirroring the serve package's model
    factory).  With an executor, power levels shard across its warm
    worker pools; without one they run serially in-process — the
    results are bit-identical either way because every trial is seeded
    entirely by its arguments.
    """
    from repro.experiments.montecarlo import (
        _training_sweep_trial,
        training_sweep_campaign,
    )

    if executor is not None:
        columns = training_sweep_campaign(
            carrier=spec.carrier_frequency, fast=spec.fast,
            tx_power_sweep=spec.tx_power_sweep,
            forces=tuple(float(f) for f in spec.forces()),
            locations=tuple(float(l) for l in spec.locations()),
            repeats=spec.repeats, seed=spec.seed,
            chunk_captures=spec.chunk_captures,
            baseline_groups=spec.baseline_groups, executor=executor)
    else:
        rows = [
            _training_sweep_trial(
                level, spec.carrier_frequency, spec.fast, float(power),
                tuple(float(f) for f in spec.forces()),
                tuple(float(l) for l in spec.locations()),
                spec.repeats, spec.seed, spec.chunk_captures,
                spec.baseline_groups)
            for level, power in enumerate(spec.tx_power_sweep)
        ]
        columns = tuple(np.concatenate(column)
                        for column in zip(*rows))
    return TrainingDataset(phi1=columns[0], phi2=columns[1],
                           force=columns[2], location=columns[3],
                           tx_power_dbm=columns[4])


def build_dataset(spec: Optional[DatasetSpec] = None,
                  executor=None) -> TrainingDataset:
    """Materialize (or load) the training dataset for ``spec``.

    Content-addressed through :mod:`repro.cache`: the first caller
    anywhere pays for the simulator sweep, everyone after loads the
    artifact from the disk tier.  ``executor`` (a
    :class:`repro.experiments.parallel.CampaignExecutor`) only matters
    on the cold path, where it shards power levels across warm pools.
    """
    spec = spec or DatasetSpec()
    obs = active()
    with maybe_span("surrogate.dataset", {"samples": spec.samples}):
        dataset = get_cache().get_or_compute(
            "surrogate.dataset", DATASET_VERSION, spec.cache_key(),
            lambda: _sweep(spec, executor),
            encode=TrainingDataset.to_dict,
            decode=TrainingDataset.from_dict)
    if obs is not None:
        obs.counter("surrogate.dataset_loads").increment()
    return dataset
