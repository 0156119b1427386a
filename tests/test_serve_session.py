"""Session state: model cache, baseline/drift correction, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tracking import StreamingTracker, TouchEvent, TrackedSample
from repro.errors import ServeError
from repro.serve.protocol import SensorConfig
from repro.serve.session import SensorSession, SessionManager


@pytest.fixture()
def manager(model_900):
    """A session manager whose factory reuses the cached test model
    and counts invocations."""
    calls = []

    def factory(config):
        calls.append(config)
        return model_900

    built = SessionManager(model_factory=factory)
    built.factory_calls = calls
    return built


class TestModelCache:
    def test_sensors_sharing_config_share_one_model(self, manager):
        config = SensorConfig()
        first = manager.session("sensor-a", config)
        second = manager.session("sensor-b", config)
        assert len(manager.factory_calls) == 1
        assert manager.model_builds == 1
        assert manager.model_hits >= 1
        assert first.estimator is second.estimator

    def test_threshold_change_reuses_calibration(self, manager):
        base = SensorConfig()
        stricter = SensorConfig(touch_threshold_deg=9.0)
        a = manager.session("sensor-a", base)
        b = manager.session("sensor-b", stricter)
        # One expensive calibration, two estimators.
        assert manager.model_builds == 1
        assert a.estimator is not b.estimator
        assert a.estimator.model is b.estimator.model

    def test_session_config_mismatch_raises(self, manager):
        manager.session("sensor-a", SensorConfig())
        with pytest.raises(ServeError):
            manager.session("sensor-a",
                            SensorConfig(touch_threshold_deg=9.0))

    def test_get_and_close(self, manager):
        assert manager.get("ghost") is None
        session = manager.session("sensor-a", SensorConfig())
        assert manager.get("sensor-a") is session
        assert manager.close("sensor-a") is session
        assert manager.get("sensor-a") is None
        assert len(manager) == 0


class TestBaselineCorrection:
    def test_no_warmup_passes_phases_through(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        assert session.baseline_ready
        assert session.correct(0.0, 0.3, -0.2) == (0.3, -0.2)

    def test_warmup_fits_reference_and_drift(self, model_900):
        manager = SessionManager(model_factory=lambda config: model_900,
                                 baseline_samples=4)
        session = manager.session("sensor-a", SensorConfig())
        assert not session.baseline_ready
        # Untouched warmup with a pure linear drift ramp: 0.10 rad/s
        # on tone 1, -0.05 rad/s on tone 2, zero intercept.
        for step in range(4):
            time = 0.1 * step
            session.correct(time, 0.10 * time, -0.05 * time)
        assert session.baseline_ready
        drift1, drift2 = session.drift_rates
        assert drift1 == pytest.approx(0.10, abs=1e-9)
        assert drift2 == pytest.approx(-0.05, abs=1e-9)
        # A later untouched sample corrects back to ~zero phases...
        phi1, phi2 = session.correct(1.0, 0.10 * 1.0, -0.05 * 1.0)
        assert phi1 == pytest.approx(0.0, abs=1e-9)
        assert phi2 == pytest.approx(0.0, abs=1e-9)
        # ...and a press on top of the ramp is recovered exactly.
        phi1, phi2 = session.correct(2.0, 0.10 * 2.0 + 0.5,
                                     -0.05 * 2.0 - 0.3)
        assert phi1 == pytest.approx(0.5, abs=1e-9)
        assert phi2 == pytest.approx(-0.3, abs=1e-9)

    def test_single_sample_warmup_uses_mean_reference(self, model_900):
        manager = SessionManager(model_factory=lambda config: model_900,
                                 baseline_samples=1)
        session = manager.session("sensor-a", SensorConfig())
        session.correct(0.0, 0.2, -0.1)
        drift1, drift2 = session.drift_rates
        assert drift1 == 0.0 and drift2 == 0.0
        phi1, phi2 = session.correct(1.0, 0.2, -0.1)
        assert phi1 == pytest.approx(0.0, abs=1e-12)
        assert phi2 == pytest.approx(0.0, abs=1e-12)

    def test_negative_warmup_rejected(self, manager):
        config = SensorConfig()
        with pytest.raises(ServeError):
            SensorSession("s", config, manager.estimator(config),
                          baseline_samples=-1)


class TestHistoryAndEvents:
    @staticmethod
    def _sample(time, touched, force=0.0, location=0.0):
        return TrackedSample(time=time, phi1=0.0, phi2=0.0,
                             touched=touched, force=force,
                             location=location)

    def test_touch_events_from_history(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        for sample in (self._sample(0.0, False),
                       self._sample(0.1, True, 2.0, 0.03),
                       self._sample(0.2, True, 4.0, 0.04),
                       self._sample(0.3, False),
                       self._sample(0.4, True, 1.0, 0.05)):
            session.record(sample)
        events = session.touch_events()
        assert len(events) == 2
        assert events[0].peak_force == 4.0
        assert events[1].onset == 0.4

    def test_empty_history_has_no_events(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        assert session.touch_events() == []

    def test_history_can_be_disabled(self, model_900):
        manager = SessionManager(model_factory=lambda config: model_900,
                                 history=False)
        session = manager.session("sensor-a", SensorConfig())
        session.record(self._sample(0.0, True, 1.0, 0.02))
        assert session.samples == []


def _reference_closed_events(samples, min_groups):
    """The segmentation the gateway re-ran over the whole history on
    every reply before sessions kept a log, restricted to closed
    presses; kept here, summary math included, as the oracle."""
    events = []
    current = None
    for sample in samples:
        if sample.touched:
            if current is None:
                current = []
            current.append(sample)
        elif current is not None:
            if len(current) >= min_groups:
                forces = np.array([s.force for s in current])
                locations = np.array([s.location for s in current])
                weights = (forces / forces.sum() if forces.sum() > 0
                           else None)
                events.append(TouchEvent(
                    onset=current[0].time, release=current[-1].time,
                    peak_force=float(forces.max()),
                    mean_location=float(np.average(locations,
                                                   weights=weights))))
            current = None
    return events


def _random_stream(seed, length=400, end_pressed=False):
    """Presses of 1-6 groups (some all-zero force) between idle runs
    that include signal-gap samples; ends mid-press if asked."""
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < length:
        for _ in range(int(rng.integers(1, 5))):
            gap = rng.random() < 0.3
            samples.append(TrackedSample(
                time=0.01 * len(samples), phi1=0.0, phi2=0.0,
                touched=False, force=0.0, location=0.0,
                quality="gap" if gap else "ok"))
        zero_force = rng.random() < 0.2
        for _ in range(int(rng.integers(1, 7))):
            samples.append(TrackedSample(
                time=0.01 * len(samples), phi1=0.3, phi2=0.2,
                touched=True,
                force=0.0 if zero_force else float(rng.uniform(0.1, 8)),
                location=float(rng.uniform(0.0, 0.08))))
    # Every press above ends touched; close the last one unless the
    # stream should end mid-press.
    if not end_pressed:
        samples.append(TrackedSample(
            time=0.01 * len(samples), phi1=0.0, phi2=0.0, touched=False,
            force=0.0, location=0.0))
    return samples


class TestEventLog:
    """The closed-segment log against the whole-history segmentation."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("min_groups", [1, 2, 3, 4])
    def test_log_equals_reference_segmentation(self, manager, seed,
                                               min_groups):
        samples = _random_stream(seed, end_pressed=seed % 2 == 1)
        session = manager.session("sensor-a", SensorConfig())
        pushed = []
        cursor = 0
        for sample in samples:
            session.record(sample)
            # Read incrementally, as a subscriber's cursor does.
            pushed += session.closed_events(min_groups, start=cursor)
            cursor = len(session.segments)
        assert session.samples[-1].touched == (seed % 2 == 1)
        expected = _reference_closed_events(samples, min_groups)
        assert expected
        assert pushed == expected
        assert session.closed_events(min_groups) == expected
        # The post-hoc query adds only the open press (if long enough).
        full = session.touch_events(min_groups=min_groups)
        assert full[:len(expected)] == expected
        assert len(full) - len(expected) in (0, int(seed % 2 == 1))

    def test_zero_force_press_uses_plain_mean_location(self, manager):
        session = manager.session("sensor-a", SensorConfig())
        for time, touched, location in ((0.0, True, 0.02),
                                        (0.1, True, 0.04),
                                        (0.2, False, 0.0)):
            session.record(TrackedSample(
                time=time, phi1=0.0, phi2=0.0, touched=touched,
                force=0.0, location=location))
        (event,) = session.closed_events()
        assert event.mean_location == pytest.approx(0.03)
        assert event.peak_force == 0.0

    def test_each_segment_is_summarized_once_and_only_on_read(
            self, manager, monkeypatch):
        calls = []
        summarize = StreamingTracker.event_from

        def counting(samples):
            calls.append((samples[0].time, len(samples)))
            return summarize(samples)

        monkeypatch.setattr(StreamingTracker, "event_from",
                            staticmethod(counting))
        session = manager.session("sensor-a", SensorConfig())
        for sample in _random_stream(5):
            session.record(sample)
        assert session.segments and calls == []
        first = session.closed_events(min_groups=3)
        assert len(calls) == len(first)
        again = session.closed_events(min_groups=1)
        again += session.closed_events(min_groups=1)
        assert len(calls) == len(session.segments)
        assert len(set(calls)) == len(calls)
        assert again[:len(session.segments)] == again[len(session.segments):]

    def test_no_history_keeps_no_log(self, model_900):
        manager = SessionManager(model_factory=lambda config: model_900,
                                 history=False)
        session = manager.session("sensor-a", SensorConfig())
        for sample in _random_stream(0, length=20):
            session.record(sample)
        assert session.segments == []
        assert session.closed_events() == []


class TestEviction:
    @staticmethod
    def _manager(model, clock=None, **kwargs):
        return SessionManager(model_factory=lambda config: model,
                              clock=clock, **kwargs)

    def test_lru_cap_evicts_least_recently_used(self, model_900):
        manager = self._manager(model_900, max_sessions=2)
        manager.session("a", SensorConfig())
        manager.session("b", SensorConfig())
        manager.session("a", SensorConfig())  # refresh a -> b is LRU
        manager.session("c", SensorConfig())
        assert manager.get("b") is None
        assert manager.get("a") is not None
        assert manager.get("c") is not None
        assert len(manager) == 2
        assert manager.evictions == 1

    def test_idle_ttl_evicts_stale_sessions(self, model_900):
        now = [0.0]
        manager = self._manager(model_900, clock=lambda: now[0],
                                idle_ttl_s=10.0)
        manager.session("a", SensorConfig())
        now[0] = 5.0
        manager.session("b", SensorConfig())
        now[0] = 16.0  # a idle 16 s > TTL; b idle 11 s > TTL
        manager.session("c", SensorConfig())
        assert manager.get("a") is None
        assert manager.get("b") is None
        assert manager.get("c") is not None
        assert manager.evictions == 2

    def test_access_refreshes_idle_clock(self, model_900):
        now = [0.0]
        manager = self._manager(model_900, clock=lambda: now[0],
                                idle_ttl_s=10.0)
        manager.session("a", SensorConfig())
        now[0] = 8.0
        manager.session("a", SensorConfig())  # touch before the TTL
        now[0] = 15.0  # only 7 s since the touch
        manager.session("b", SensorConfig())
        assert manager.get("a") is not None
        assert manager.evictions == 0

    def test_eviction_counter_lands_in_registry(self, model_900):
        from repro.obs.registry import observed

        with observed() as registry:
            manager = self._manager(model_900, max_sessions=1)
            manager.session("a", SensorConfig())
            manager.session("b", SensorConfig())
        counters = registry.snapshot()["counters"]
        assert counters["serve.session.evictions"] == 1

    def test_evicted_session_state_is_discarded(self, model_900):
        manager = self._manager(model_900, max_sessions=1)
        session = manager.session("a", SensorConfig())
        session.record(TrackedSample(time=0.0, phi1=0.1, phi2=0.2,
                                     touched=True, force=1.0,
                                     location=0.03))
        manager.session("b", SensorConfig())
        reopened = manager.session("a", SensorConfig())
        assert reopened is not session
        assert reopened.samples == []

    def test_eviction_bounds_are_validated(self, model_900):
        with pytest.raises(ServeError):
            self._manager(model_900, max_sessions=0)
        with pytest.raises(ServeError):
            self._manager(model_900, idle_ttl_s=0.0)

    def test_service_exposes_eviction_knobs(self, model_900):
        import asyncio

        from repro.serve import EstimateRequest, InferenceService

        service = InferenceService(
            model_factory=lambda config: model_900, max_sessions=2)
        config = SensorConfig()
        for index, sensor in enumerate("abc"):
            asyncio.run(service.estimate(EstimateRequest(
                sensor_id=sensor, sequence=index, time=0.0,
                phi1=0.1, phi2=0.1, config=config)))
        snapshot = service.telemetry_snapshot()
        assert snapshot["sessions"]["count"] == 2
        assert snapshot["sessions"]["evictions"] == 1
