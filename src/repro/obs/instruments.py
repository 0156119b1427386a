"""Observability instruments: counters, gauges, histograms, spans.

Every subsystem shares this one instrument vocabulary.  The hot paths (scheduler flushes, batched
inversions, per-group tracking) touch these on every operation, so the
instruments are deliberately tiny — plain attribute updates, no locks
(single-process use) and no external dependencies.

Latency histograms use fixed log-spaced bucket bounds; exact
percentiles for benchmark reports should be computed from the raw
samples (the load generator does), while :meth:`Histogram.quantile`
gives the usual bucket-interpolated estimate for monitoring.  Two
edge cases follow Prometheus semantics: the quantile of an *empty*
histogram is ``nan`` (there is no data to estimate from), and a
quantile that lands in the implicit overflow bucket is clamped to the
largest finite bound instead of extrapolating past it.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError
from repro.obs import trace

#: Default latency buckets [s]: 100 us .. ~5 s, log-spaced.
LATENCY_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
                   1.0, 5.0)

#: Default batch-size buckets [requests / samples].
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                 256.0, 512.0, 1024.0)


class TelemetrySink:
    """Receives span/event dicts; subclass to export elsewhere."""

    def emit(self, event: dict) -> None:
        """Handle one event dict (override)."""
        raise NotImplementedError


class NullSink(TelemetrySink):
    """Discards every event (the default)."""

    def emit(self, event: dict) -> None:
        pass


class MemorySink(TelemetrySink):
    """Keeps every event in a list (tests, bench reports)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)


class JsonlSink(TelemetrySink):
    """Appends every event as one JSON line to a file.

    The trace-export sink: ``REPRO_TRACE_EXPORT=<path>`` installs one
    at CLI startup (see :func:`repro.obs.registry.enable_from_env`),
    and ``repro trace show <trace-id> --input <path>`` renders span
    waterfalls from the resulting file.  Lines are flushed per event
    so a crashed process still leaves a readable file behind.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._handle.write(
            json.dumps(event, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "value": int(self.value)}


@dataclass
class Gauge:
    """A point-in-time value that can move either way.

    Used for levels and ratios (queue depth, worker utilisation)
    where a monotone counter is the wrong shape.
    """

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the current value by ``amount`` (either sign)."""
        self.value += float(amount)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": float(self.value)}


@dataclass
class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``bounds`` are upper bucket edges; observations above the last
    bound land in the implicit overflow bucket.
    """

    name: str
    bounds: Tuple[float, ...] = LATENCY_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.bounds)
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {self.name} needs strictly ascending "
                f"bucket bounds, got {bounds}"
            )
        self.bounds = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # The first bound >= value; NaN compares false against every
        # bound, so it goes to the overflow bucket explicitly.
        index = (bisect_left(self.bounds, value) if value == value
                 else len(self.bounds))
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate.

        ``nan`` for an empty histogram; a quantile landing in the
        overflow bucket is clamped to the largest finite bound (the
        histogram cannot resolve positions beyond it — read ``max``
        from :meth:`to_dict` for the true extreme).
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return math.nan
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target and count:
                if index == len(self.bounds):
                    return self.bounds[-1]
                low = 0.0 if index == 0 else self.bounds[index - 1]
                high = self.bounds[index]
                fraction = (target - (cumulative - count)) / count
                return low + fraction * max(high - low, 0.0)
        return self.bounds[-1]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": int(self.count),
            "sum": float(self.total),
            "mean": float(self.mean),
            "min": float(self.minimum) if self.count else None,
            "max": float(self.maximum) if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` snapshot."""
        histogram = cls(name=payload["name"],
                        bounds=tuple(payload["bounds"]),
                        counts=[int(c) for c in payload["counts"]],
                        total=float(payload["sum"]),
                        count=int(payload["count"]))
        if histogram.count:
            histogram.minimum = float(payload["min"])
            histogram.maximum = float(payload["max"])
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        How campaign-worker snapshots come home: bucket counts add
        elementwise (the bounds must match exactly — merging across
        bucket layouts would silently misplace observations), the
        running count/sum add, and the extremes widen.

        Raises:
            ObservabilityError: Mismatched bucket bounds.
        """
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"histogram {self.name} cannot merge mismatched bounds "
                f"{other.bounds} into {self.bounds}")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)


class Span:
    """A trace span (context manager) with parent/child structure.

    Measures wall-clock duration with ``perf_counter`` and hands one
    event dict back to its registry on exit (which forwards it to the
    sink, the flight recorder, and a per-stage histogram).

    On entry the span resolves its :class:`repro.obs.trace.TraceContext`
    — an explicit ``context`` wins, else a child of the explicit
    ``parent``, else a child of the ambient context (a fresh root when
    there is none) — and makes it the ambient context for the ``with``
    body, so nested spans stitch into a tree without any plumbing at
    the call sites.  ``links`` carries *other* contexts causally tied
    to this span without being its parent (a micro-batch flush links
    every member request's span).
    """

    def __init__(self, registry, name: str,
                 attributes: Optional[dict] = None,
                 context: Optional[trace.TraceContext] = None,
                 parent: Optional[trace.TraceContext] = None,
                 links: Optional[Sequence[trace.TraceContext]] = None):
        self._registry = registry
        self.name = name
        self.attributes = dict(attributes or {})
        self.duration_s: Optional[float] = None
        self.context: Optional[trace.TraceContext] = None
        self.parent_span_id: Optional[str] = None
        self.start_unix: Optional[float] = None
        self.links: Tuple[trace.TraceContext, ...] = tuple(links or ())
        self._explicit_context = context
        self._explicit_parent = parent
        self._token = None
        self._start = 0.0

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        if self._explicit_context is not None:
            context = self._explicit_context
            parent = self._explicit_parent
        elif self._explicit_parent is not None:
            parent = self._explicit_parent
            context = parent.child()
        else:
            parent = trace.current_context()
            context = (parent.child() if parent is not None
                       else trace.new_root())
        self.context = context
        if parent is not None and parent.sampled:
            self.parent_span_id = parent.span_id
        self._token = trace.set_context(context)
        if context.sampled:
            self.start_unix = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._start
        if self._token is not None:
            trace.reset_context(self._token)
            self._token = None
        self._registry._record_span(self, exc)


class StageTimer:
    """What :meth:`Registry.span` returns for an unsampled trace.

    Times the ``with`` body with one ``perf_counter`` pair and
    observes the duration into the same ``span.<name>.seconds``
    histogram a :class:`Span` feeds, so per-stage latency stats and
    SLOs count every request; no span ID is minted and no event goes
    to the sink or the flight recorder.  When the span was given an
    explicit ``context`` or ``parent`` (or minted a fresh root), that
    context becomes ambient for the body, so nested spans resolve to
    the same unsampled trace instead of starting their own.
    """

    __slots__ = ("_histogram", "_context", "_token", "_start",
                 "duration_s")

    def __init__(self, histogram: Histogram,
                 context: Optional[trace.TraceContext] = None):
        self._histogram = histogram
        self._context = context
        self._token = None
        self._start = 0.0
        self.duration_s: Optional[float] = None

    def set(self, key: str, value) -> None:
        """Attributes are span-event payload; a timer has none."""

    def __enter__(self) -> "StageTimer":
        if self._context is not None:
            self._token = trace.set_context(self._context)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._start
        if self._token is not None:
            trace.reset_context(self._token)
            self._token = None
        self._histogram.observe(self.duration_s)
