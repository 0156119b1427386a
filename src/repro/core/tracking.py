"""Streaming force tracking: continuous (force, location) over time.

The per-press :class:`repro.core.pipeline.WiForceReader` answers "what
is the press right now"; this module answers the paper's Fig. 17b view
— a *force-versus-time profile* tracked group by group while a user
interacts with the sensor.  It consumes one long channel-estimate
stream, applies the paper's consecutive-group conjugate-multiply
(Eqns. 4-5) to build per-tone phase trajectories, detects touch onsets
and releases, and inverts the sensor model for every group where the
sensor is touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimator
from repro.core.harmonics import HarmonicExtractor
from repro.core.phase import differential_phase
from repro.errors import EstimationError, ReaderError
from repro.obs.registry import active, maybe_span
from repro.reader.sounder import ChannelEstimateStream


@dataclass(frozen=True)
class TrackedSample:
    """One group's tracking output.

    Attributes:
        time: Group mid-time [s].
        phi1 / phi2: Phases relative to the untouched reference [rad].
        touched: Whether the sensor is classified as touched.
        force: Estimated force [N] (0 when untouched).
        location: Estimated location [m] (0 when untouched).
        quality: ``"ok"`` for a nominal group; ``"gap"`` for a group
            whose harmonic energy vanished (signal dropout — the
            tracker coasts through it untouched instead of aborting
            the stream); served samples may also carry the service
            qualities (``"degraded"``, ``"recovered"``,
            ``"quarantined"``).
    """

    time: float
    phi1: float
    phi2: float
    touched: bool
    force: float
    location: float
    quality: str = "ok"

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "time": float(self.time),
            "phi1": float(self.phi1),
            "phi2": float(self.phi2),
            "touched": bool(self.touched),
            "force": float(self.force),
            "location": float(self.location),
            "quality": str(self.quality),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackedSample":
        """Inverse of :meth:`to_dict` (``quality`` defaults ``"ok"``)."""
        return cls(
            time=float(payload["time"]),
            phi1=float(payload["phi1"]),
            phi2=float(payload["phi2"]),
            touched=bool(payload["touched"]),
            force=float(payload["force"]),
            location=float(payload["location"]),
            quality=str(payload.get("quality", "ok")),
        )


@dataclass(frozen=True)
class TouchEvent:
    """A detected touch interval.

    Attributes:
        onset: Touch start time [s].
        release: Touch end time [s] (stream end if still touched).
        peak_force: Largest estimated force during the touch [N].
        mean_location: Force-weighted mean location [m].
    """

    onset: float
    release: float
    peak_force: float
    mean_location: float

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "onset": float(self.onset),
            "release": float(self.release),
            "peak_force": float(self.peak_force),
            "mean_location": float(self.mean_location),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TouchEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            onset=float(payload["onset"]),
            release=float(payload["release"]),
            peak_force=float(payload["peak_force"]),
            mean_location=float(payload["mean_location"]),
        )


class StreamingTracker:
    """Group-by-group tracker over one continuous capture.

    The first ``baseline_groups`` groups must be untouched: they set
    the phase reference and fit the tag clock's drift, which is then
    de-rotated from the whole stream.

    Args:
        model: Calibrated sensor model.
        extractor: Harmonic extractor (tones + group length).
        baseline_groups: Leading untouched groups for the reference.
        touch_threshold_deg: Phase departure that counts as a touch.
    """

    def __init__(self, model: SensorModel, extractor: HarmonicExtractor,
                 baseline_groups: int = 4,
                 touch_threshold_deg: float = 8.0):
        if baseline_groups < 2:
            raise ReaderError(
                f"need >= 2 baseline groups, got {baseline_groups}"
            )
        if len(extractor.tones) < 2:
            raise ReaderError("the tracker needs both readout tones")
        self.model = model
        self.extractor = extractor
        self.baseline_groups = int(baseline_groups)
        self.touch_threshold = np.radians(touch_threshold_deg)
        self.estimator = ForceLocationEstimator(
            model, touch_threshold_deg=touch_threshold_deg)

    def process(self, stream: ChannelEstimateStream) -> List[TrackedSample]:
        """Track the whole stream; returns one sample per phase group."""
        with maybe_span("tracker.process") as span:
            samples = self._process(stream)
            span.set("groups", len(samples))
        obs = active()
        if obs is not None:
            obs.counter("tracker.streams").increment()
            obs.counter("tracker.groups").increment(len(samples))
            obs.counter("tracker.touched_groups").increment(
                sum(1 for sample in samples if sample.touched))
            gaps = sum(1 for sample in samples if sample.quality == "gap")
            if gaps:
                obs.counter("tracker.gap_groups").increment(gaps)
        return samples

    def _process(self, stream: ChannelEstimateStream
                 ) -> List[TrackedSample]:
        matrices = self.extractor.extract(stream)
        tone1, tone2 = self.extractor.tones[0], self.extractor.tones[1]
        groups = matrices[tone1].groups
        if groups <= self.baseline_groups:
            raise ReaderError(
                f"stream has {groups} groups; need more than the "
                f"{self.baseline_groups} baseline groups"
            )
        times = matrices[tone1].group_times

        references = {}
        drifts = {}
        for tone, matrix in matrices.items():
            head = matrix.values[:self.baseline_groups]
            head_times = times[:self.baseline_groups]
            phases = np.zeros(self.baseline_groups)
            for g in range(1, self.baseline_groups):
                phases[g] = phases[g - 1] + differential_phase(
                    head[g - 1], head[g])
            drift = float(np.polyfit(head_times, phases, 1)[0])
            rotation = np.exp(-1j * drift * (head_times - head_times[0]))
            references[tone] = (head * rotation[:, None]).mean(axis=0)
            drifts[tone] = drift

        # Per-tone phases for every group at once: de-rotate the drift,
        # conjugate against the reference and take the coherent
        # subcarrier average — Eqns. 4-5 vectorized over groups.
        tone_phases = []
        gap = np.zeros(groups, dtype=bool)
        for tone in (tone1, tone2):
            matrix = matrices[tone]
            rotation = np.exp(-1j * drifts[tone] * (times - times[0]))
            vectors = matrix.values * rotation[:, None]
            products = vectors * np.conj(references[tone])[None, :]
            totals = products.sum(axis=1)
            zero = totals == 0
            if np.all(zero):
                raise EstimationError(
                    "zero harmonic energy: no sensor signal found"
                )
            # Isolated dead groups (signal dropout) are survivable:
            # flag them as gaps and coast through instead of aborting
            # the whole stream.
            gap |= zero
            tone_phases.append(np.angle(totals))
        phi1, phi2 = tone_phases
        touched = ((np.abs(phi1) > self.touch_threshold)
                   | (np.abs(phi2) > self.touch_threshold))
        touched &= ~gap
        force = np.zeros(groups)
        location = np.zeros(groups)
        active = np.flatnonzero(touched)
        if active.size:
            estimates = self.estimator.invert_batch(phi1[active],
                                                    phi2[active])
            force[active] = estimates.force
            location[active] = estimates.location
            touched[active] = estimates.touched
        return [
            TrackedSample(
                time=float(times[g]), phi1=float(phi1[g]),
                phi2=float(phi2[g]), touched=bool(touched[g]),
                force=float(force[g]), location=float(location[g]),
                quality="gap" if gap[g] else "ok")
            for g in range(groups)
        ]

    @staticmethod
    def touch_events(samples: List[TrackedSample],
                     min_groups: int = 1) -> List[TouchEvent]:
        """Segment a tracked stream into touch events.

        An empty stream, or one where no sample crosses the touch
        threshold, has no contact segments and yields ``[]`` rather
        than assuming at least one touch happened.

        Args:
            samples: Output of :meth:`process`.
            min_groups: Minimum touched groups for a valid event
                (debounce).
        """
        samples = list(samples)
        if not samples or not any(s.touched for s in samples):
            return []
        events: List[TouchEvent] = []
        current: Optional[List[TrackedSample]] = None
        for sample in samples:
            if sample.touched:
                if current is None:
                    current = []
                current.append(sample)
            elif current is not None:
                if len(current) >= min_groups:
                    events.append(StreamingTracker.event_from(current))
                current = None
        if current is not None and len(current) >= min_groups:
            events.append(StreamingTracker.event_from(current))
        return events

    @staticmethod
    def event_from(samples: List[TrackedSample]) -> TouchEvent:
        """Summarize one contact segment (a run of touched samples).

        The release is the segment's last touched sample; the mean
        location is force-weighted (plain mean when every force is 0).
        """
        if not samples:
            raise EstimationError("cannot build a touch event from an "
                                  "empty contact segment")
        forces = np.array([s.force for s in samples])
        locations = np.array([s.location for s in samples])
        weights = forces / forces.sum() if forces.sum() > 0 else None
        mean_location = float(np.average(locations, weights=weights))
        return TouchEvent(
            onset=samples[0].time,
            release=samples[-1].time,
            peak_force=float(forces.max()),
            mean_location=mean_location,
        )
