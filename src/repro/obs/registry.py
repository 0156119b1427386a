"""The shared instrument registry and the process-wide default.

A :class:`Registry` owns named instruments, snapshots them as a
JSON-ready dict, and forwards span events to a pluggable sink.  One
process-wide default registry lets every subsystem — reader,
estimator, tracker, campaign executor, inference service — record
into the same place, so a single snapshot observes everything from a
single sensor press to a million-request load test.

Observation is **off by default**: instrumented code calls
:func:`active`, gets ``None``, and skips all instrument work — one
function call and a branch of overhead (asserted < 5% on
``invert_batch`` in ``benchmarks/test_perf_estimator.py``).  Turn it
on globally with :func:`enable` (or ``REPRO_OBS=1`` via
:func:`enable_from_env`), or scoped with the :func:`observed` context
manager, which swaps in a fresh registry and restores the previous
state on exit (what tests and the benchmark harnesses use).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Union

from repro.obs import trace
from repro.obs.instruments import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    NullSink,
    Span,
    StageTimer,
    TelemetrySink,
)
from repro.obs.recorder import flight_recorder

#: Environment variable that turns observation on at CLI startup.
OBS_ENV = "REPRO_OBS"

#: Path for a JSONL span-event export sink, installed at CLI startup
#: when observation is enabled (``repro trace show`` reads it).
TRACE_EXPORT_ENV = "REPRO_TRACE_EXPORT"


class Registry:
    """Instrument registry with a JSON snapshot and pluggable sink.

    Args:
        sink: Where span events go; default discards them.
    """

    def __init__(self, sink: Optional[TelemetrySink] = None):
        self.sink = sink if sink is not None else NullSink()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, tuple(bounds))
        return histogram

    def span(self, name: str,
             attributes: Optional[dict] = None,
             context: Optional[trace.TraceContext] = None,
             parent: Optional[trace.TraceContext] = None,
             links: Optional[Sequence[trace.TraceContext]] = None
             ) -> Union[Span, StageTimer]:
        """Open a trace span (use as a context manager).

        On exit the span's duration lands in the per-stage histogram
        ``span.<name>.seconds`` (how per-stage latency stats survive
        into snapshots) and one event dict goes to the sink and the
        flight recorder.  ``context`` / ``parent`` / ``links`` pin the
        span's place in the trace tree explicitly; by default it
        nests under the ambient :func:`repro.obs.trace.current_context`
        (a fresh :func:`repro.obs.trace.new_root` when there is none).

        When that resolved context is unsampled, the span is a
        :class:`StageTimer` instead: the same histogram observation,
        no IDs and no event.
        """
        resolved = context if context is not None else parent
        explicit = resolved is not None
        if not explicit:
            resolved = trace.current_context()
            if resolved is None:
                resolved = context = trace.new_root()
                explicit = True
        if not resolved.sampled:
            return StageTimer(self.histogram(f"span.{name}.seconds"),
                              resolved if explicit else None)
        return Span(self, name, attributes, context=context,
                    parent=parent, links=links)

    def _record_span(self, span: Span, exc: Optional[BaseException]
                     ) -> None:
        """Span exit hook: keep the stage histogram; emit the event
        when the span's trace is sampled."""
        self.histogram(f"span.{span.name}.seconds").observe(
            span.duration_s)
        context = span.context
        if not context.sampled:
            return
        event = {
            "span": span.name,
            "duration_s": span.duration_s,
            "status": "ok" if exc is None else "error",
            "error": None if exc is None else type(exc).__name__,
        }
        if exc is not None:
            event["error_message"] = str(exc)
        event["trace_id"] = context.trace_id
        event["span_id"] = context.span_id
        event["parent_span_id"] = span.parent_span_id
        event["start_unix"] = span.start_unix
        links = [{"trace_id": link.trace_id,
                  "span_id": link.span_id}
                 for link in span.links if link.sampled]
        if links:
            event["links"] = links
        event.update(span.attributes)
        self.sink.emit(event)
        flight_recorder().record_span_event(event)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        How campaign-worker telemetry survives the process boundary:
        counters sum, histograms merge elementwise (matching bounds
        required), gauges are point-in-time so the incoming value
        wins.  Merging the same snapshot twice double-counts — the
        caller owns exactly-once delivery.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).increment(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(float(value))
        for name, payload in (snapshot.get("histograms") or {}).items():
            incoming = Histogram.from_dict(payload)
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = incoming
            else:
                existing.merge(incoming)

    def snapshot(self) -> dict:
        """All instrument states as a JSON-ready dict."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: gauge.value
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


_registry = Registry()
_enabled = False


def get_registry() -> Registry:
    """The process-wide default registry (always exists)."""
    return _registry


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry; returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def enable(registry: Optional[Registry] = None) -> Registry:
    """Turn observation on; optionally install ``registry`` first."""
    global _enabled
    if registry is not None:
        set_registry(registry)
    _enabled = True
    return _registry


def disable() -> None:
    """Turn observation off (instruments stay as they are)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether instrumented code is currently recording."""
    return _enabled


def enable_from_env(environ: Optional[dict] = None) -> bool:
    """Enable observation when ``REPRO_OBS`` is set truthy.

    Returns whether observation is enabled afterwards.  ``0``, empty,
    ``false`` and ``no`` (case-insensitive) leave it off.  When
    enabling, a ``REPRO_TRACE_EXPORT=<path>`` additionally points the
    default registry's sink at a :class:`JsonlSink`, so every span
    event (trace IDs included) lands in a file ``repro trace show``
    can render.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(OBS_ENV, "").strip().lower()
    if raw and raw not in ("0", "false", "no"):
        enable()
        export_path = env.get(TRACE_EXPORT_ENV, "").strip()
        if export_path and isinstance(_registry.sink, NullSink):
            _registry.sink = JsonlSink(export_path)
    return _enabled


def active() -> Optional[Registry]:
    """The default registry when observation is on, else ``None``.

    The one-line gate for hot paths::

        obs = active()
        if obs is not None:
            obs.counter("estimator.inversions").increment()
    """
    return _registry if _enabled else None


class _NullSpan:
    """Do-nothing stand-in so ``with maybe_span(...)`` always works."""

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def maybe_span(name: str, attributes: Optional[dict] = None,
               context: Optional[trace.TraceContext] = None,
               parent: Optional[trace.TraceContext] = None,
               links: Optional[Sequence[trace.TraceContext]] = None):
    """A real span when observation is on, else a shared no-op."""
    obs = active()
    if obs is None:
        return _NULL_SPAN
    return obs.span(name, attributes, context=context, parent=parent,
                    links=links)


@contextmanager
def observed(sink: Optional[TelemetrySink] = None,
             registry: Optional[Registry] = None) -> Iterator[Registry]:
    """Enable observation on a fresh registry for one ``with`` block.

    Restores the previous default registry and enabled state on exit,
    so tests and benchmark harnesses can observe without leaking
    global state.
    """
    global _enabled
    fresh = registry if registry is not None else Registry(sink)
    previous_registry = set_registry(fresh)
    previous_enabled = _enabled
    _enabled = True
    try:
        yield fresh
    finally:
        _enabled = previous_enabled
        set_registry(previous_registry)
