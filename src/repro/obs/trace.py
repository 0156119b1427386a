"""Distributed trace context: IDs, the ``traceparent`` codec, sampling.

One trace is a tree of :class:`~repro.obs.instruments.Span` records
sharing a 128-bit trace ID; every span carries its own 64-bit span ID
and a link to its parent.  The context rides three transports:

* **In-process** — a :class:`contextvars.ContextVar` holds the current
  :class:`TraceContext`; opening a span makes its context current for
  the ``with`` body, so nested spans (and any ``asyncio`` task spawned
  inside it) pick up the right parent automatically.
* **Over the wire** — the W3C ``traceparent`` header shape
  (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``) is carried
  in gateway HTTP headers and as an optional ``"traceparent"`` key on
  WebSocket estimate messages.  :func:`parse_traceparent` is total: a
  malformed header degrades to ``None`` (the request starts a fresh
  root trace) and never raises.
* **Across processes** — :class:`~repro.experiments.parallel.CampaignExecutor`
  serializes the current context into each worker payload, so a
  campaign trial's spans stitch into the submitting trace.

Sampling is **deterministic head sampling**: the decision is a pure
function of the trace ID and the ``REPRO_TRACE_SAMPLE`` rate
(``int(trace_id[:16], 16) < rate * 2**64``), so every process that
sees a trace makes the same call with no coordination.  An unsampled
context still propagates (the gateway echoes its trace ID either
way); only span *recording* is skipped: a span under an unsampled
context is a stage timer that feeds its ``span.<name>.seconds``
histogram and nothing else (see
:meth:`repro.obs.registry.Registry.span`), which is what keeps the
instrumentation-overhead budget intact at low rates.  With the
variable unset, roots minted at a transport edge are sampled at
:data:`EDGE_SAMPLE_RATE` and in-process roots at 1.0.

Span IDs are sequenced from a per-process random odd base (a
multiplicative counter over ``2**64``), re-seeded on fork so campaign
workers cannot collide with the parent; trace IDs are 16 random
bytes.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

#: Environment variable holding the head-sampling rate in [0, 1].
#: Unparsable means 1.0 (record every trace when obs is on); unset
#: means 1.0 for in-process roots and :data:`EDGE_SAMPLE_RATE` for
#: requests arriving at a transport edge.
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

#: Head-sampling rate for roots minted at a transport edge
#: (:func:`request_context`) when ``REPRO_TRACE_SAMPLE`` is unset: the
#: gateway serves one request per phase sample, so recording every
#: one would spend the observability budget on events nothing reads.
EDGE_SAMPLE_RATE = 0.01

_ZERO_TRACE_ID = "0" * 32
_ZERO_SPAN_ID = "0" * 16
_HEX_DIGITS = frozenset("0123456789abcdef")
_SPAN_MASK = (1 << 64) - 1


def _is_hex(text: str) -> bool:
    return bool(text) and all(char in _HEX_DIGITS for char in text)


# --------------------------------------------------------------------------
# ID generation
# --------------------------------------------------------------------------

def new_trace_id() -> str:
    """A fresh 128-bit trace ID (32 lowercase hex chars, never zero)."""
    trace_id = os.urandom(16).hex()
    while trace_id == _ZERO_TRACE_ID:  # pragma: no cover - 2**-128
        trace_id = os.urandom(16).hex()
    return trace_id


# Multiplying an odd base by a counter is a bijection mod 2**64, so
# span IDs are unique per process without per-span entropy; the state
# is keyed on the PID so forked campaign workers re-seed instead of
# replaying the parent's sequence.
_span_state = {
    "pid": os.getpid(),
    "base": int.from_bytes(os.urandom(8), "big") | 1,
    "counter": itertools.count(1),
}


def new_span_id() -> str:
    """A fresh 64-bit span ID (16 lowercase hex chars, never zero)."""
    pid = os.getpid()
    if pid != _span_state["pid"]:
        _span_state.update(
            pid=pid,
            base=int.from_bytes(os.urandom(8), "big") | 1,
            counter=itertools.count(1),
        )
    value = (_span_state["base"] * next(_span_state["counter"])) \
        & _SPAN_MASK
    return format(value or 1, "016x")


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

_rate_cache = (None, 1.0)


def sample_rate(environ: Optional[dict] = None,
                default: float = 1.0) -> float:
    """The head-sampling rate from ``REPRO_TRACE_SAMPLE``.

    ``default`` when the variable is unset or blank.  Clamped to
    [0, 1]; an unparsable value falls back to 1.0 so a typo'd
    deployment records too much rather than nothing.
    """
    global _rate_cache
    raw = (environ if environ is not None else os.environ).get(
        TRACE_SAMPLE_ENV, "").strip()
    if not raw:
        return default
    if raw == _rate_cache[0]:
        return _rate_cache[1]
    try:
        rate = float(raw)
    except ValueError:
        rate = 1.0
    rate = min(max(rate, 0.0), 1.0)
    _rate_cache = (raw, rate)
    return rate


def trace_sampled(trace_id: str, rate: float) -> bool:
    """Deterministic head-sampling decision for ``trace_id``.

    A pure function of (trace ID, rate): the top 64 bits of the trace
    ID are compared against ``rate * 2**64``, so every process that
    sees the same trace agrees without coordination.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return int(trace_id[:16], 16) < int(rate * 2.0 ** 64)


# --------------------------------------------------------------------------
# The context itself
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceContext:
    """One point in a trace: (trace ID, span ID, sampled flag)."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self) -> "TraceContext":
        """A child context: same trace, fresh span ID.

        An unsampled context returns itself — no span will be
        recorded under it, so allocating IDs would be pure overhead.
        """
        if not self.sampled:
            return self
        return TraceContext(self.trace_id, new_span_id(), True)

    def to_traceparent(self) -> str:
        """Serialize as a W3C-style ``traceparent`` value."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"


#: Shared stand-in for "tracing decided no" with no ID allocation.
UNSAMPLED = TraceContext(_ZERO_TRACE_ID, _ZERO_SPAN_ID, sampled=False)


def encode_traceparent(context: TraceContext) -> str:
    """Alias for :meth:`TraceContext.to_traceparent`."""
    return context.to_traceparent()


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Decode a ``traceparent`` header; ``None`` on any malformation.

    Total by contract: hostile input of any shape degrades to a fresh
    root trace at the caller (property-tested in
    ``tests/test_obs_trace.py``) — it never raises.  Per the W3C
    grammar the fields are lowercase hex, version ``ff`` is invalid,
    all-zero trace/span IDs are invalid, and a version-``00`` header
    must have exactly four fields.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[:4]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if len(parts) > 4 and version == "00":
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id) \
            or trace_id == _ZERO_TRACE_ID:
        return None
    if len(span_id) != 16 or not _is_hex(span_id) \
            or span_id == _ZERO_SPAN_ID:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return TraceContext(trace_id, span_id,
                        sampled=bool(int(flags, 16) & 1))


def new_root() -> TraceContext:
    """Root context for a span with no ambient parent.

    At rate 0 this is the shared :data:`UNSAMPLED` sentinel (no ID
    allocation on the hot path); otherwise fresh IDs with the
    deterministic sampling decision applied.
    """
    rate = sample_rate()
    if rate <= 0.0:
        return UNSAMPLED
    trace_id = new_trace_id()
    return TraceContext(trace_id, new_span_id(),
                        sampled=trace_sampled(trace_id, rate))


def request_context(remote: Optional[TraceContext] = None
                    ) -> TraceContext:
    """Per-request context at a transport edge (always real IDs).

    The gateway echoes the trace ID on every response, so even an
    unsampled request needs genuine IDs here — unlike
    :func:`new_root`, rate 0 still allocates.  A remote parent's
    sampling decision is honored (head sampling: whoever started the
    trace decided); a root minted here is sampled at
    ``REPRO_TRACE_SAMPLE``, else at :data:`EDGE_SAMPLE_RATE`.
    """
    if remote is not None:
        return remote.child() if remote.sampled else remote
    trace_id = new_trace_id()
    rate = sample_rate(default=EDGE_SAMPLE_RATE)
    return TraceContext(trace_id, new_span_id(),
                        sampled=trace_sampled(trace_id, rate))


# --------------------------------------------------------------------------
# Ambient propagation
# --------------------------------------------------------------------------

_current: "ContextVar[Optional[TraceContext]]" = ContextVar(
    "repro_trace_context", default=None)


def current_context() -> Optional[TraceContext]:
    """The ambient trace context of this task/thread, if any."""
    return _current.get()


def set_context(context: Optional[TraceContext]):
    """Make ``context`` current; returns the reset token."""
    return _current.set(context)


def reset_context(token) -> None:
    """Undo a :func:`set_context` (restores the previous context)."""
    _current.reset(token)


@contextmanager
def use_context(context: Optional[TraceContext]
                ) -> Iterator[Optional[TraceContext]]:
    """Scope ``context`` as the ambient parent for a ``with`` body.

    ``None`` is a no-op scope, so deserialized maybe-absent contexts
    (``parse_traceparent`` results) thread through without a branch
    at the call site.
    """
    if context is None:
        yield None
        return
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def current_traceparent() -> str:
    """The ambient context as a ``traceparent`` value ("" when none)."""
    context = _current.get()
    return context.to_traceparent() if context is not None else ""


# --------------------------------------------------------------------------
# Waterfall rendering (``repro trace show``)
# --------------------------------------------------------------------------

#: Span-event keys that are structure, not user attributes.
_EVENT_KEYS = frozenset((
    "span", "duration_s", "status", "error", "error_message",
    "trace_id", "span_id", "parent_span_id", "start_unix", "links",
))


def _span_line(event: dict, origin: float, depth: int) -> str:
    offset_ms = (float(event.get("start_unix") or origin) - origin) * 1e3
    duration_ms = float(event.get("duration_s") or 0.0) * 1e3
    status = str(event.get("status") or "ok")
    parts = [f"{'  ' * depth}[{offset_ms:9.2f}ms +{duration_ms:8.2f}ms]",
             f"{status:<5}", str(event.get("span", "?"))]
    attrs = {key: value for key, value in event.items()
             if key not in _EVENT_KEYS}
    if attrs:
        parts.append(" ".join(f"{key}={value}"
                              for key, value in sorted(attrs.items())))
    links = event.get("links") or ()
    if links:
        parts.append(f"links={len(links)}")
    if event.get("error"):
        message = event.get("error_message", "")
        parts.append(f"!{event['error']}"
                     + (f": {message}" if message else ""))
    return "  " + " ".join(parts)


def render_waterfall(events, trace_id: str) -> str:
    """Render span events matching a trace-ID prefix as a waterfall.

    ``events`` is an iterable of span-event dicts (the JSONL rows a
    :class:`~repro.obs.instruments.JsonlSink` exports).  Spans are
    grouped per trace, nested by ``parent_span_id``, and ordered by
    start time; offsets are milliseconds from the trace's earliest
    span.  Returns ``""`` when nothing matches.
    """
    spans = [event for event in events
             if isinstance(event, dict) and "span" in event
             and "span_id" in event
             and str(event.get("trace_id", "")).startswith(trace_id)]
    if not spans:
        return ""
    by_trace: dict = {}
    for event in spans:
        by_trace.setdefault(event["trace_id"], []).append(event)
    blocks = []
    for tid in sorted(by_trace):
        group = sorted(by_trace[tid],
                       key=lambda e: float(e.get("start_unix") or 0.0))
        origin = float(group[0].get("start_unix") or 0.0)
        known = {event["span_id"] for event in group}
        children: dict = {}
        roots = []
        for event in group:
            parent = event.get("parent_span_id")
            if parent and parent in known:
                children.setdefault(parent, []).append(event)
            else:
                roots.append(event)
        lines = [f"trace {tid} ({len(group)} span"
                 f"{'s' if len(group) != 1 else ''})"]
        stack = [(event, 0) for event in reversed(roots)]
        while stack:
            event, depth = stack.pop()
            lines.append(_span_line(event, origin, depth))
            for child in reversed(children.get(event["span_id"], ())):
                stack.append((child, depth + 1))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
