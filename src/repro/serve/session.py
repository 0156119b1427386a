"""Per-sensor session state for the inference service.

A *session* is everything the service remembers about one sensor
stream between requests:

* which calibrated :class:`SensorModel` / estimator it uses — models
  are expensive to calibrate, so the :class:`SessionManager` caches
  them keyed by :class:`SensorConfig` and shares one estimator across
  every sensor with an equal config (which is also what lets their
  requests coalesce into one micro-batch group);
* baseline / drift state — an optional warmup window of untouched
  samples fits a per-tone phase reference and linear drift rate
  (the tag clock's frequency offset, as in
  :meth:`repro.core.pipeline.WiForceReader.capture_baseline`), which
  is then subtracted from every later sample;
* the tracked history, from which touch events are segmented by
  :meth:`repro.core.tracking.StreamingTracker.touch_events`, and an
  incremental log of its closed contact segments, so streaming
  consumers read new presses in O(new events) rather than
  re-segmenting the whole history.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimator, build_estimator
from repro.core.tracking import StreamingTracker, TouchEvent, TrackedSample
from repro.errors import ServeError
from repro.obs.registry import active
from repro.serve.protocol import SensorConfig

#: Builds (or loads) a calibrated model for a config.
ModelFactory = Callable[[SensorConfig], SensorModel]


def default_model_factory(config: SensorConfig) -> SensorModel:
    """Calibrate the paper's default sensor for ``config``.

    Uses the process-cached scenario builders, so repeated configs at
    the same carrier cost one calibration per process — and the
    calibration itself delegates to the shared :mod:`repro.cache`
    artifact tier, so a replica whose spec any process has built
    before starts warm from disk.  Imported lazily: the serve package
    stays importable without pulling the whole experiments stack.
    """
    from repro.experiments.scenarios import calibrated_model

    return calibrated_model(config.carrier_frequency, fast=config.fast)


class SensorSession:
    """State for one sensor stream.

    Args:
        sensor_id: Stream identity.
        config: Calibration config (must match the manager's cache
            entry the estimator came from).
        estimator: Shared estimator for this config.
        baseline_samples: Untouched warmup samples used to fit the
            phase reference and drift; 0 disables correction (the
            stream's phases are already baseline-referenced).
        history: Keep every tracked sample for touch-event queries
            (and the closed-segment log; without history, neither).
        quarantine_after: Consecutive non-``"ok"`` results that
            quarantine the session: its baseline/drift state is
            discarded and re-warmed from scratch, on the theory that a
            stream which keeps degrading may have drifted past its
            fitted reference.  Responses served while quarantined are
            flagged ``quality="quarantined"``.
    """

    def __init__(self, sensor_id: str, config: SensorConfig,
                 estimator: ForceLocationEstimator,
                 baseline_samples: int = 0, history: bool = True,
                 quarantine_after: int = 5):
        if baseline_samples < 0:
            raise ServeError(
                f"baseline_samples must be >= 0, got {baseline_samples}")
        if quarantine_after < 1:
            raise ServeError(
                f"quarantine_after must be >= 1, got {quarantine_after}")
        self.sensor_id = sensor_id
        self.config = config
        self.estimator = estimator
        self.baseline_samples = int(baseline_samples)
        self.keep_history = bool(history)
        self.quarantine_after = int(quarantine_after)
        self.samples: List[TrackedSample] = []
        #: Closed contact segments as ``(start, stop)`` spans into
        #: ``samples``, in order; the open run is not logged until an
        #: untouched sample closes it.
        self.segments: List[Tuple[int, int]] = []
        self._open: Optional[int] = None
        self._summaries: Dict[int, TouchEvent] = {}
        self.last_seen = 0.0
        self.request_count = 0
        self.consecutive_faults = 0
        self.quarantines = 0
        self.quarantined = False
        self._warmup: List[Tuple[float, float, float]] = []
        self._reference: Optional[Tuple[float, float]] = None
        self._drift: Optional[Tuple[float, float]] = None
        self._reference_time = 0.0

    @property
    def model(self) -> SensorModel:
        """The calibrated model behind this session's estimator."""
        return self.estimator.model

    @property
    def baseline_ready(self) -> bool:
        """Whether the warmup reference has been fitted (or disabled)."""
        return self.baseline_samples == 0 or self._reference is not None

    @property
    def drift_rates(self) -> Optional[Tuple[float, float]]:
        """Fitted per-tone drift rates [rad/s] (None before warmup)."""
        return self._drift

    def correct(self, time: float, phi1: float,
                phi2: float) -> Tuple[float, float]:
        """Baseline/drift-correct one phase pair.

        During warmup the raw phases are accumulated and passed
        through unchanged; once ``baseline_samples`` samples have
        arrived, a linear phase ramp per tone is fitted (reference +
        drift) and subtracted from every subsequent sample.
        """
        self.request_count += 1
        if self.baseline_samples == 0:
            return float(phi1), float(phi2)
        if self._reference is None:
            self._warmup.append((float(time), float(phi1), float(phi2)))
            if len(self._warmup) >= self.baseline_samples:
                self._fit_baseline()
            return float(phi1), float(phi2)
        drift1, drift2 = self._drift
        ref1, ref2 = self._reference
        elapsed = float(time) - self._reference_time
        return (float(phi1) - ref1 - drift1 * elapsed,
                float(phi2) - ref2 - drift2 * elapsed)

    def _fit_baseline(self) -> None:
        """Fit per-tone reference + drift from the warmup window."""
        times = np.array([w[0] for w in self._warmup])
        self._reference_time = float(times[0])
        elapsed = times - self._reference_time
        references = []
        drifts = []
        for column in (1, 2):
            phases = np.array([w[column] for w in self._warmup])
            if len(self._warmup) >= 2 and np.ptp(elapsed) > 0.0:
                slope, intercept = np.polyfit(elapsed, phases, 1)
            else:
                slope, intercept = 0.0, float(phases.mean())
            references.append(float(intercept))
            drifts.append(float(slope))
        self._reference = (references[0], references[1])
        self._drift = (drifts[0], drifts[1])
        self._warmup.clear()
        self.quarantined = False

    def note_quality(self, quality: str) -> None:
        """Track result quality; quarantine on a streak of failures.

        ``"ok"`` results clear the failure streak (and, once the
        baseline is re-fitted, lift an active quarantine);
        ``quarantine_after`` consecutive non-ok results trigger
        :meth:`quarantine`.
        """
        if quality == "ok":
            self.consecutive_faults = 0
            if self.quarantined and self.baseline_ready:
                self.quarantined = False
            return
        self.consecutive_faults += 1
        if (not self.quarantined
                and self.consecutive_faults >= self.quarantine_after):
            self.quarantine()

    def quarantine(self) -> None:
        """Discard the fitted baseline and re-warm from scratch."""
        self.quarantines += 1
        self.consecutive_faults = 0
        self.quarantined = True
        self._warmup.clear()
        self._reference = None
        self._drift = None
        obs = active()
        if obs is not None:
            obs.counter("fault.quarantines").increment()

    def record(self, sample: TrackedSample) -> None:
        """Append one tracked sample to the session history.

        An untouched sample that ends a touched run logs the run as a
        closed segment.
        """
        if not self.keep_history:
            return
        if sample.touched:
            if self._open is None:
                self._open = len(self.samples)
        elif self._open is not None:
            self.segments.append((self._open, len(self.samples)))
            self._open = None
        self.samples.append(sample)

    def closed_events(self, min_groups: int = 1,
                      start: int = 0) -> List[TouchEvent]:
        """Events of the logged segments from index ``start`` on.

        Segments shorter than ``min_groups`` groups are skipped.  Each
        segment is summarized on its first read and the summary kept,
        so a segment costs one summary however often it is read.
        """
        events = []
        for index in range(start, len(self.segments)):
            first, stop = self.segments[index]
            if stop - first < min_groups:
                continue
            event = self._summaries.get(index)
            if event is None:
                event = StreamingTracker.event_from(self.samples[first:stop])
                self._summaries[index] = event
            events.append(event)
        return events

    def touch_events(self, min_groups: int = 1) -> List[TouchEvent]:
        """Segment the whole session history into touch events.

        The post-hoc reference: it re-scans every sample and includes
        a still-open press, where :meth:`closed_events` reads the log.
        """
        return StreamingTracker.touch_events(self.samples,
                                             min_groups=min_groups)


class SessionManager:
    """Routes sensor ids to sessions; caches models per config.

    Sessions are kept in least-recently-used order and evicted on two
    bounds, so fleet-scale connect/disconnect churn cannot grow memory
    without limit: ``max_sessions`` caps the live-session count (the
    LRU session is dropped to admit a new one) and ``idle_ttl_s``
    drops any session that has not served a request for that long.
    Both default to *off*, preserving the unbounded in-process
    behavior; the network gateway turns them on.  Evicting a session
    discards its baseline/history state only — the calibrated model
    stays cached per config, so a returning sensor re-opens cheaply.

    Args:
        model_factory: ``SensorConfig -> SensorModel``; defaults to
            calibrating the paper's default sensor.
        baseline_samples: Warmup window for new sessions.
        history: Whether sessions keep their tracked history.
        max_sessions: Live-session cap (None = unbounded).
        idle_ttl_s: Idle eviction age [s] (None = never).
        clock: Monotonic time source (injected by tests).
    """

    def __init__(self, model_factory: Optional[ModelFactory] = None,
                 baseline_samples: int = 0, history: bool = True,
                 max_sessions: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None):
        if max_sessions is not None and max_sessions < 1:
            raise ServeError(
                f"max_sessions must be >= 1, got {max_sessions}")
        if idle_ttl_s is not None and idle_ttl_s <= 0.0:
            raise ServeError(
                f"idle_ttl_s must be > 0, got {idle_ttl_s}")
        self._factory = (model_factory if model_factory is not None
                         else default_model_factory)
        self.baseline_samples = int(baseline_samples)
        self.history = bool(history)
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self._clock = clock if clock is not None else time.monotonic
        self._models: Dict[Tuple[float, bool, str], SensorModel] = {}
        self._estimators: Dict[SensorConfig, ForceLocationEstimator] = {}
        self._sessions: Dict[str, SensorSession] = {}
        self.model_builds = 0
        self.model_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> Dict[str, SensorSession]:
        """Live sessions keyed by sensor id (copy)."""
        return dict(self._sessions)

    def estimator(self, config: SensorConfig) -> ForceLocationEstimator:
        """The shared estimator for ``config`` (builds on first use).

        Models are cached on the calibration identity plus the
        inversion backend (carrier, fast, backend) — configs differing
        only in the touch threshold share one calibrated model and
        differ only in their estimator, while a surrogate-backed
        config never aliases a grid one (the surrogate's training is
        memoized through :mod:`repro.cache`, so the extra calibration
        entry costs a disk-tier hit, not a refit).
        """
        obs = active()
        estimator = self._estimators.get(config)
        if estimator is not None:
            self.model_hits += 1
            if obs is not None:
                obs.counter("serve.session.model_hits").increment()
            return estimator
        model_key = (config.carrier_frequency, config.fast,
                     config.backend)
        model = self._models.get(model_key)
        if model is None:
            model = self._factory(config)
            self._models[model_key] = model
            self.model_builds += 1
            if obs is not None:
                obs.counter("serve.session.model_builds").increment()
        options = {} if config.backend == "grid" else {
            "carrier_frequency": config.carrier_frequency,
            "fast": config.fast,
        }
        estimator = build_estimator(
            model, backend=config.backend,
            touch_threshold_deg=config.touch_threshold_deg, **options)
        self._estimators[config] = estimator
        return estimator

    def _evict_one(self) -> None:
        """Drop the least-recently-used session."""
        sensor_id = next(iter(self._sessions))
        self._sessions.pop(sensor_id)
        self.evictions += 1
        obs = active()
        if obs is not None:
            obs.counter("serve.session.evictions").increment()

    def _evict_idle(self, now: float) -> None:
        """Drop sessions idle beyond the TTL (LRU-first scan)."""
        if self.idle_ttl_s is None:
            return
        while self._sessions:
            oldest = next(iter(self._sessions.values()))
            if now - oldest.last_seen <= self.idle_ttl_s:
                break
            self._evict_one()

    def session(self, sensor_id: str,
                config: Optional[SensorConfig] = None) -> SensorSession:
        """Get or create the session for ``sensor_id``.

        Accessing a session marks it most-recently-used; the access
        also sweeps idle sessions and, when creating a new session
        against a full manager, evicts the LRU one.

        Raises:
            ServeError: An existing session was opened with a
                different config (a sensor cannot switch calibrations
                mid-stream).
        """
        now = self._clock()
        session = self._sessions.get(sensor_id)
        if session is not None:
            if config is not None and config != session.config:
                raise ServeError(
                    f"sensor {sensor_id!r} is bound to config "
                    f"{session.config}, got {config}"
                )
            # Move to the most-recently-used end of the LRU order.
            self._sessions[sensor_id] = self._sessions.pop(sensor_id)
            session.last_seen = now
            self._evict_idle(now)
            return session
        if config is None:
            config = SensorConfig()
        self._evict_idle(now)
        if self.max_sessions is not None:
            while len(self._sessions) >= self.max_sessions:
                self._evict_one()
        session = SensorSession(
            sensor_id, config, self.estimator(config),
            baseline_samples=self.baseline_samples,
            history=self.history)
        session.last_seen = now
        self._sessions[sensor_id] = session
        return session

    def get(self, sensor_id: str) -> Optional[SensorSession]:
        """The existing session for ``sensor_id``, or None."""
        return self._sessions.get(sensor_id)

    def close(self, sensor_id: str) -> Optional[SensorSession]:
        """Drop a session (its model stays cached); returns it."""
        return self._sessions.pop(sensor_id, None)
