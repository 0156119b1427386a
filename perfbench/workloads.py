"""Seeded workload definitions: request tapes and arrival schedules.

A *tape* is everything the load generator will send, fixed before any
timing starts: per request the sensor, the wire phases, the ground
truth that produced them, and the offset [s] at which it is due.  The
same seed always gives the same tape and the same offsets; the server
under test only ever sees the generated requests.

Phases come from the calibrated model's forward prediction plus
Gaussian measurement noise, like a real reader would deliver them;
untouched samples carry zero phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: Carrier of every workload's sensor config [Hz].
CARRIER_HZ = 900e6
#: Stream timestamp spacing [s].
SAMPLE_PERIOD_S = 0.01
#: Longest Pareto gap, in mean gaps, and the Pareto tail exponent.
MAX_GAP_FACTOR = 20.0
PARETO_ALPHA = 1.5
#: Share of i.i.d. samples that carry a press.
TOUCH_FRACTION = 0.9
#: Gaussian measurement noise on the wire phases [deg].
PHASE_NOISE_DEG = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name as given to ``--workload``.
        kind: ``"ws"`` (gateway over WebSocket) or ``"reader"``.
        backend: Estimator backend named in every request's config.
        arrival: ``"uniform"`` or ``"pareto"`` inter-arrival gaps.
        rate_rps: Fixed offered rate of the steady phase [req/s].
        sensors: Distinct sensor ids multiplexed over the connections.
        lifecycle: Streams are press lifecycles (held dwell runs and
            untouched gaps) with a touch-event subscription per sensor,
            instead of i.i.d. presses.
    """

    name: str
    kind: str
    backend: str = "grid"
    arrival: str = "uniform"
    rate_rps: float = 0.0
    sensors: int = 64
    lifecycle: bool = False


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("ws-grid-steady", "ws", backend="grid",
                 arrival="uniform", rate_rps=700.0, sensors=64),
        Workload("ws-surrogate-bursty", "ws", backend="surrogate",
                 arrival="pareto", rate_rps=900.0, sensors=64),
        Workload("ws-touch-lifecycle", "ws", backend="surrogate",
                 arrival="uniform", rate_rps=300.0, sensors=16,
                 lifecycle=True),
        Workload("acquire-read", "reader"),
    )
}


def arrival_offsets(count: int, rate_rps: float, arrival: str,
                    seed: int) -> np.ndarray:
    """Due offsets [s] of ``count`` requests, the first at 0.

    Pareto gaps have minimum ``mean_gap * (alpha - 1) / alpha`` so the
    mean gap, and with it the offered rate, equals the uniform one;
    only the burstiness differs.
    """
    if count <= 0:
        return np.zeros(0)
    mean_gap = 1.0 / rate_rps
    if arrival == "uniform":
        gaps = np.full(count, mean_gap)
    elif arrival == "pareto":
        rng = np.random.default_rng([seed, 0xA11])
        gaps = (rng.pareto(PARETO_ALPHA, count) + 1.0) * (
            mean_gap * (PARETO_ALPHA - 1.0) / PARETO_ALPHA)
        # Bound the tail (about 0.2% of gaps at alpha 1.5) and rescale
        # so every seed offers exactly ``rate_rps`` over the phase; an
        # unbounded alpha-1.5 tail has infinite variance, so the
        # realized rate would otherwise differ from seed to seed.
        gaps = np.minimum(gaps, MAX_GAP_FACTOR * mean_gap)
        gaps *= count * mean_gap / gaps.sum()
    else:
        raise ValueError(f"unknown arrival shape {arrival!r}")
    offsets = np.cumsum(gaps)
    return offsets - offsets[0]


@dataclass
class Tape:
    """Per-request arrays of one workload's stream, in send order."""

    sensor: np.ndarray        # sensor index
    sample: np.ndarray        # per-sensor sample index
    phi1: np.ndarray
    phi2: np.ndarray
    force: np.ndarray         # ground truth [N], 0 when untouched
    location: np.ndarray      # ground truth [m], 0 when untouched
    touched: np.ndarray       # ground-truth contact flag

    def __len__(self) -> int:
        return int(self.sensor.size)


class PressSource:
    """Generates the phase stream of one workload from its seed.

    ``take(count)`` continues the stream, so the warm-up and the steady
    phase that follows it draw one contiguous tape.
    """

    def __init__(self, model, workload: Workload, seed: int):
        self.model = model
        self.workload = workload
        self.seed = int(seed)
        self.sent = 0
        self._group_sent = {}
        self._schedules = {}

    def _noisy(self, rng, force: np.ndarray, location: np.ndarray):
        phi1, phi2 = self.model.predict_batch(force, location)
        noise = rng.normal(0.0, np.radians(PHASE_NOISE_DEG),
                           (2, force.size))
        return phi1 + noise[0], phi2 + noise[1]

    def _lifecycle(self, sensor: int, samples: int = 1 << 13) -> Tape:
        """One sensor's press lifecycle: gap, dwell, gap, dwell, ..."""
        rng = np.random.default_rng([self.seed, 0x70C4, sensor])
        force = np.zeros(samples)
        location = np.zeros(samples)
        touched = np.zeros(samples, dtype=bool)
        low = float(self.model.locations[0])
        high = float(self.model.locations[-1])
        cursor = int(rng.integers(4, 12))
        while cursor < samples:
            dwell = int(rng.integers(8, 24))
            end = min(samples, cursor + dwell)
            force[cursor:end] = rng.uniform(1.0, 7.5)
            location[cursor:end] = rng.uniform(low + 1e-3, high - 1e-3)
            touched[cursor:end] = True
            cursor = end + int(rng.integers(6, 16))
        phi1 = np.zeros(samples)
        phi2 = np.zeros(samples)
        pressed = np.flatnonzero(touched)
        phi1[pressed], phi2[pressed] = self._noisy(
            rng, force[pressed], location[pressed])
        index = np.arange(samples)
        return Tape(np.full(samples, sensor), index, phi1, phi2, force,
                    location, touched)

    def _iid(self, start: int, count: int) -> Tape:
        """I.i.d. presses; request ``i`` depends only on (seed, i)."""
        block = 4096
        parts: List[Tape] = []
        first = start // block
        last = (start + count - 1) // block
        for number in range(first, last + 1):
            parts.append(self._iid_block(number, block))
        joined = _concat(parts)
        offset = start - first * block
        return _slice(joined, offset, offset + count)

    def _iid_block(self, number: int, size: int) -> Tape:
        rng = np.random.default_rng([self.seed, 0x11D, number])
        low = float(self.model.locations[0])
        high = float(self.model.locations[-1])
        force = rng.uniform(0.5, 8.0, size)
        location = rng.uniform(low, high, size)
        phi1, phi2 = self._noisy(rng, force, location)
        touched = rng.random(size) < TOUCH_FRACTION
        phi1[~touched] = 0.0
        phi2[~touched] = 0.0
        force[~touched] = 0.0
        location[~touched] = 0.0
        index = np.arange(number * size, (number + 1) * size)
        sensors = self.workload.sensors
        return Tape(index % sensors, index // sensors, phi1, phi2, force,
                    location, touched)

    def schedule(self, sensor: int) -> Tape:
        """The lifecycle of sensor index ``sensor`` (built on first use)."""
        if sensor not in self._schedules:
            self._schedules[sensor] = self._lifecycle(sensor)
        return self._schedules[sensor]

    def take(self, count: int, group: int = 0) -> Tape:
        """The next ``count`` requests of the stream.

        Lifecycle streams come in groups of ``sensors`` sensors with
        their own sample counters: group 0 is the steady phase, and the
        warm-up has a group of its own, so the steady phase starts from
        empty histories.
        """
        start = self.sent
        self.sent += count
        if not self.workload.lifecycle:
            return self._iid(start, count)
        sensors = self.workload.sensors
        first = self._group_sent.get(group, 0)
        self._group_sent[group] = first + count
        index = np.arange(first, first + count)
        sensor = group * sensors + index % sensors
        sample = index // sensors
        fields = {}
        for name in ("phi1", "phi2", "force", "location", "touched"):
            fields[name] = np.array([
                getattr(self.schedule(int(s)), name)[k]
                for s, k in zip(sensor, sample)])
        return Tape(sensor, sample, **fields)

    def closing_samples(self, sensor: int) -> np.ndarray:
        """Per-sensor sample indices of the first untouched sample after
        each press (the sample whose reply closes the press)."""
        touched = self.schedule(sensor).touched
        return np.flatnonzero(touched[:-1] & ~touched[1:]) + 1


def _concat(parts: List[Tape]) -> Tape:
    if len(parts) == 1:
        return parts[0]
    return Tape(*(np.concatenate([getattr(p, name) for p in parts])
                  for name in ("sensor", "sample", "phi1", "phi2", "force",
                               "location", "touched")))


def _slice(tape: Tape, start: int, stop: int) -> Tape:
    return Tape(*(getattr(tape, name)[start:stop]
                  for name in ("sensor", "sample", "phi1", "phi2", "force",
                               "location", "touched")))


def sensor_id(workload: Workload, sensor: int) -> str:
    """Wire sensor id of sensor index ``sensor``."""
    return f"{workload.name}-s{sensor:03d}"


def sensor_config(workload: Workload) -> dict:
    """Wire form of the workload's sensor config."""
    return {"carrier_frequency": CARRIER_HZ, "fast": True,
            "touch_threshold_deg": 5.0, "backend": workload.backend}


def acquire_presses(seed: int, count: int):
    """Seeded (force [N], location [m]) presses for ``acquire-read``."""
    rng = np.random.default_rng([seed, 0xACC])
    return rng.uniform(1.0, 7.5, count), rng.uniform(0.022, 0.058, count)
