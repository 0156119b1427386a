"""Shared observability registry: gauges, gating, scoped observation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Histogram,
    MemorySink,
    Registry,
    active,
    disable,
    enable,
    enable_from_env,
    get_registry,
    is_enabled,
    maybe_span,
    observed,
    set_registry,
)
from repro.obs import trace
from repro.obs.instruments import LATENCY_BUCKETS, Span, StageTimer
from repro.obs.recorder import recording
from repro.obs.registry import _NULL_SPAN


@pytest.fixture(autouse=True)
def _restore_obs_state():
    """Snapshot and restore the process-wide obs state per test."""
    previous_registry = get_registry()
    previous_enabled = is_enabled()
    yield
    set_registry(previous_registry)
    if previous_enabled:
        enable()
    else:
        disable()


class TestGauge:
    def test_set_and_add(self):
        gauge = Registry().gauge("queue_depth")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_registry_reuses_instance(self):
        registry = Registry()
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")


class TestGating:
    def test_off_by_default_state(self):
        disable()
        assert not is_enabled()
        assert active() is None

    def test_enable_returns_default_registry(self):
        registry = enable()
        assert is_enabled()
        assert active() is registry
        assert registry is get_registry()

    def test_enable_installs_given_registry(self):
        mine = Registry()
        assert enable(mine) is mine
        assert get_registry() is mine

    def test_disable_keeps_instruments(self):
        registry = enable()
        registry.counter("kept").increment()
        disable()
        assert active() is None
        assert get_registry().counter("kept").value == 1

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("", False),
        ("  ", False), ("FALSE", False),
    ])
    def test_enable_from_env(self, value, expected):
        disable()
        assert enable_from_env({"REPRO_OBS": value}) is expected
        assert is_enabled() is expected

    def test_enable_from_env_unset(self):
        disable()
        assert enable_from_env({}) is False


class TestMaybeSpan:
    def test_disabled_returns_shared_noop(self):
        disable()
        span = maybe_span("stage", {"k": 1})
        assert span is _NULL_SPAN
        with span as s:
            s.set("ignored", True)  # must be harmless

    def test_enabled_records_span(self):
        registry = Registry()
        enable(registry)
        with maybe_span("stage") as span:
            span.set("k", 2)
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.stage.seconds"]["count"] == 1


class TestObserved:
    def test_scopes_a_fresh_registry(self):
        disable()
        with observed() as registry:
            assert is_enabled()
            assert active() is registry
            registry.counter("inside").increment()
        assert not is_enabled()
        assert "inside" not in get_registry().snapshot()["counters"]

    def test_restores_previous_enabled_state(self):
        outer = enable()
        with observed() as inner:
            assert active() is inner
        assert is_enabled()
        assert active() is outer

    def test_restores_on_exception(self):
        disable()
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("boom")
        assert not is_enabled()

    def test_accepts_sink(self):
        sink = MemorySink()
        with observed(sink) as registry:
            with registry.span("s"):
                pass
        assert sink.events[0]["span"] == "s"

    def test_accepts_existing_registry(self):
        mine = Registry()
        with observed(registry=mine) as registry:
            assert registry is mine


class TestSpanStatus:
    def test_ok_span_has_explicit_status(self):
        sink = MemorySink()
        registry = Registry(sink)
        with registry.span("stage"):
            pass
        event = sink.events[0]
        assert event["status"] == "ok"
        assert event["error"] is None
        assert "error_message" not in event

    def test_error_span_records_message_not_just_type(self):
        sink = MemorySink()
        registry = Registry(sink)
        with pytest.raises(ValueError):
            with registry.span("stage"):
                raise ValueError("bad frame at index 7")
        event = sink.events[0]
        assert event["status"] == "error"
        assert event["error"] == "ValueError"
        assert event["error_message"] == "bad frame at index 7"


def _linear_scan(bounds, values):
    """The reference ``observe``: the first bound >= value, else the
    overflow bucket; running min/max by builtin ``min``/``max``."""
    counts = [0] * (len(bounds) + 1)
    minimum, maximum = float("inf"), float("-inf")
    for value in values:
        index = 0
        for index, bound in enumerate(bounds):
            if value <= bound:
                break
        else:
            index = len(bounds)
        counts[index] += 1
        minimum = min(minimum, value)
        maximum = max(maximum, value)
    return counts, minimum, maximum


class TestHistogramObserve:
    @pytest.mark.parametrize("bounds", [LATENCY_BUCKETS, (0.0,),
                                        (-1.0, 0.0, 2.5)])
    def test_bisect_matches_linear_scan(self, bounds):
        rng = np.random.default_rng(5)
        values = list(rng.normal(0.0, 2.0, 400))
        values += list(10.0 ** rng.uniform(-6.0, 1.0, 400))
        values += list(bounds)
        values += [float("inf"), float("-inf"), -0.0, 0.0,
                   float("nan")]
        rng.shuffle(values)
        histogram = Histogram("h", bounds)
        for value in values:
            histogram.observe(value)
        counts, minimum, maximum = _linear_scan(bounds, values)
        assert histogram.counts == counts
        assert histogram.count == len(values)
        assert histogram.minimum == minimum
        assert histogram.maximum == maximum

    def test_nan_lands_in_overflow_and_spares_extremes(self):
        histogram = Histogram("h", (1.0, 2.0))
        histogram.observe(float("nan"))
        histogram.observe(1.5)
        assert histogram.counts == [0, 1, 1]
        assert histogram.minimum == 1.5
        assert histogram.maximum == 1.5
        assert math.isnan(histogram.total)

    def test_signed_zero_keeps_first_seen_extreme(self):
        histogram = Histogram("h", (0.0, 1.0))
        histogram.observe(0.0)
        histogram.observe(-0.0)
        assert histogram.counts == [2, 0, 0]
        assert math.copysign(1.0, histogram.minimum) == 1.0
        assert math.copysign(1.0, histogram.maximum) == 1.0


_UNSAMPLED_CTX = trace.TraceContext("f" * 32, "e" * 16, sampled=False)


class TestStageTimer:
    """A span whose resolved context is unsampled times, nothing more."""

    def test_unsampled_context_gives_a_timer(self):
        sink = MemorySink()
        registry = Registry(sink)
        with recording() as recorder:
            with registry.span("stage", {"k": 1},
                               context=_UNSAMPLED_CTX) as span:
                span.set("ignored", True)
        assert isinstance(span, StageTimer)
        assert span.duration_s >= 0.0
        histogram = registry.snapshot()["histograms"][
            "span.stage.seconds"]
        assert histogram["count"] == 1
        assert sink.events == []
        assert len(recorder) == 0

    def test_sampled_context_gives_a_full_span(self):
        sink = MemorySink()
        registry = Registry(sink)
        sampled = trace.TraceContext("a" * 32, "b" * 16)
        with registry.span("stage", parent=sampled) as span:
            pass
        assert isinstance(span, Span)
        assert sink.events[0]["trace_id"] == "a" * 32
        assert sink.events[0]["parent_span_id"] == "b" * 16

    def test_explicit_context_becomes_ambient_for_nested_spans(self):
        sink = MemorySink()
        registry = Registry(sink)
        with registry.span("outer", context=_UNSAMPLED_CTX):
            assert trace.current_context() is _UNSAMPLED_CTX
            with registry.span("inner") as inner:
                pass
        assert trace.current_context() is None
        assert isinstance(inner, StageTimer)
        assert sink.events == []
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.outer.seconds"]["count"] == 1
        assert histograms["span.inner.seconds"]["count"] == 1

    def test_explicit_parent_becomes_ambient(self):
        registry = Registry()
        with trace.use_context(trace.TraceContext("a" * 32, "b" * 16)):
            with registry.span("flush", parent=_UNSAMPLED_CTX):
                assert trace.current_context() is _UNSAMPLED_CTX

    def test_ambient_unsampled_leaves_ambient_alone(self):
        registry = Registry()
        with trace.use_context(_UNSAMPLED_CTX):
            timer = registry.span("stage")
            with timer:
                assert trace.current_context() is _UNSAMPLED_CTX
        assert isinstance(timer, StageTimer)
        assert timer._token is None

    def test_timer_observes_and_propagates_errors(self):
        registry = Registry()
        with pytest.raises(ValueError):
            with registry.span("stage", context=_UNSAMPLED_CTX):
                raise ValueError("boom")
        assert trace.current_context() is None
        assert registry.snapshot()["histograms"][
            "span.stage.seconds"]["count"] == 1

    def test_unsampled_root_keeps_nested_spans_unsampled(self,
                                                         monkeypatch):
        monkeypatch.setenv(trace.TRACE_SAMPLE_ENV, "0")
        sink = MemorySink()
        registry = Registry(sink)
        with registry.span("root") as root:
            with registry.span("child") as child:
                pass
        assert isinstance(root, StageTimer)
        assert isinstance(child, StageTimer)
        assert sink.events == []


class TestHistogramMerge:
    def test_merge_adds_counts_and_widens_extremes(self):
        left = Histogram("h", (1.0, 2.0))
        right = Histogram("h", (1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.count == 3
        assert left.total == pytest.approx(11.0)
        assert left.minimum == pytest.approx(0.5)
        assert left.maximum == pytest.approx(9.0)

    def test_merge_empty_other_keeps_extremes(self):
        left = Histogram("h", (1.0,))
        left.observe(0.25)
        left.merge(Histogram("h", (1.0,)))
        assert left.count == 1
        assert left.minimum == pytest.approx(0.25)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", (1.0,)).merge(Histogram("h", (2.0,)))


class TestMergeSnapshot:
    def test_counters_sum_and_histograms_merge(self):
        parent = Registry()
        parent.counter("c").increment(2)
        parent.histogram("h", (1.0,)).observe(0.5)
        child = Registry()
        child.counter("c").increment(3)
        child.counter("only_child").increment()
        child.gauge("g").set(7.0)
        child.histogram("h", (1.0,)).observe(2.0)
        child.histogram("h2", (1.0,)).observe(0.1)
        parent.merge_snapshot(child.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["counters"]["only_child"] == 1
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h2"]["count"] == 1

    def test_empty_snapshot_is_a_noop(self):
        parent = Registry()
        parent.counter("c").increment()
        parent.merge_snapshot({})
        assert parent.snapshot()["counters"]["c"] == 1
