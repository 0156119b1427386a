"""Adaptive micro-batch scheduling over ``invert_batch``.

Many concurrent sessions await estimates; one estimator inversion over
N stacked samples costs far less than N scalar inversions (see
``benchmarks/results/BENCH_estimator.json``).  The scheduler exploits
that: requests for the same estimator are parked in a per-estimator
group and flushed as one :meth:`ForceLocationEstimator.invert_batch`
call when either

* the group reaches ``max_batch`` requests (size flush), or
* the oldest request has waited ``max_delay_s`` (deadline flush),

whichever comes first — small batches under light load keep latency
bounded, large batches under heavy load keep throughput high.

Robustness:

* **Backpressure** — admission is bounded by ``max_queue`` pending
  requests; beyond it :class:`repro.errors.QueueFullError` is raised
  instead of growing the queue without bound.
* **Graceful degradation** — with batching disabled
  (``enabled=False``) every request runs the scalar
  :meth:`ForceLocationEstimator.invert` path directly; if a batched
  flush raises, the scheduler falls back to per-request scalar
  inversion so one poisoned sample only fails its own future.

Parity: ``invert_batch`` is element-wise identical to ``invert``
(property-tested in ``tests/test_serve_service.py``), so batching is
purely a throughput optimisation — results never depend on which
requests happened to share a micro-batch.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.estimator import ForceLocationEstimate, ForceLocationEstimator
from repro.errors import QueueFullError, ServeError
from repro.faults.inject import FaultEvent, armed as fault_armed
from repro.faults.retry import CircuitBreaker
from repro.obs import trace
from repro.obs.instruments import BATCH_BUCKETS
from repro.obs.registry import Registry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs.

    Attributes:
        max_batch: Flush a group at this many pending requests.
        max_delay_s: Flush a group when its oldest request has waited
            this long [s] (the latency budget spent on coalescing).
        max_queue: Total pending requests admitted before
            :class:`QueueFullError` backpressure kicks in.
        enabled: ``False`` short-circuits every request to the scalar
            ``invert`` path (no queueing, batch size 1).
    """

    max_batch: int = 32
    max_delay_s: float = 0.002
    max_queue: int = 1024
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_s < 0.0:
            raise ServeError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")


@dataclass(frozen=True)
class ScheduledEstimate:
    """One scheduler result: the estimate plus batching telemetry.

    Attributes:
        estimate: The inverted reading.
        batch_size: How many requests shared the flushed micro-batch
            (1 on the scalar path).
        queue_seconds: Time spent parked waiting for the flush [s].
        quality: ``"ok"`` on the nominal path; ``"degraded"`` when the
            result rode a degraded path (injected stall, batch-flush
            fallback, or an open circuit forcing scalar inversion) —
            the estimate is still real, but its latency/coalescing
            guarantees were not met.
    """

    estimate: ForceLocationEstimate
    batch_size: int
    queue_seconds: float
    quality: str = "ok"


@dataclass
class _Pending:
    """One parked request."""

    phi1: float
    phi2: float
    location_hint: Optional[float]
    future: "asyncio.Future[ScheduledEstimate]"
    enqueued: float
    quality: str = "ok"
    #: The submitter's trace context: the flush span parents on the
    #: first sampled member's and links every sampled member's, so a
    #: batch shared by many requests is reachable from each sampled
    #: request's trace.
    trace_ctx: Optional[trace.TraceContext] = None


@dataclass
class _Group:
    """Per-estimator batch group."""

    estimator: ForceLocationEstimator
    entries: List[_Pending] = field(default_factory=list)
    timer: Optional[asyncio.TimerHandle] = None


class MicroBatchScheduler:
    """Coalesces concurrent estimate requests into micro-batches.

    Requests are grouped by ``key`` (one calibrated estimator per key —
    samples from different sensor models can never share an
    ``invert_batch`` call).  Single event-loop use only; the service
    owns exactly one scheduler.

    Args:
        policy: Batching knobs (see :class:`BatchPolicy`).
        telemetry: Instrument registry; a private one is created when
            not given.
        breaker: Circuit breaker over the batched-flush path.  After
            ``failure_threshold`` consecutive flush failures the
            scheduler stops batching and serves every request on the
            scalar path (flagged ``quality="degraded"``) until the
            breaker's half-open probe sees a flush succeed.  A default
            breaker is created when not given.
    """

    def __init__(self, policy: Optional[BatchPolicy] = None,
                 telemetry: Optional[Registry] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.policy = policy if policy is not None else BatchPolicy()
        self.telemetry = telemetry if telemetry is not None else Registry()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=5, recovery_timeout_s=1.0,
            name="serve.batch")
        self._groups: Dict[Hashable, _Group] = {}
        self._pending_total = 0

    @property
    def pending(self) -> int:
        """Requests currently parked awaiting a flush."""
        return self._pending_total

    async def submit(self, estimator: ForceLocationEstimator,
                     phi1: float, phi2: float,
                     location_hint: Optional[float] = None,
                     key: Optional[Hashable] = None) -> ScheduledEstimate:
        """Schedule one inversion; resolves when its batch flushes.

        Args:
            estimator: The calibrated estimator to invert with.
            phi1 / phi2: Measured differential phases [rad].
            location_hint: Optional prior location [m].
            key: Batch-group key; requests sharing a key must share the
                estimator.  Defaults to the estimator's identity.

        Raises:
            QueueFullError: The bounded queue is full (backpressure).
        """
        loop = asyncio.get_running_loop()
        self.telemetry.counter("serve.requests").increment()
        quality = "ok"
        inj = fault_armed()
        if inj is not None:
            fault = inj.draw("serve.scheduler")
            if fault is not None:
                quality = await self._apply_fault(fault)
        if not self.policy.enabled:
            return self._scalar(estimator, phi1, phi2, location_hint,
                                loop.time(), quality=quality)
        if not self.breaker.allow():
            # Open circuit: the batched path has been failing, so stop
            # feeding it and serve degraded-but-correct scalar results.
            self.telemetry.counter("serve.breaker_scalar").increment()
            return self._scalar(estimator, phi1, phi2, location_hint,
                                loop.time(), quality="degraded")
        if self._pending_total >= self.policy.max_queue:
            self.telemetry.counter("serve.rejected").increment()
            raise QueueFullError(
                f"micro-batch queue is full ({self.policy.max_queue} "
                f"pending); retry later or shed load"
            )
        if key is None:
            key = id(estimator)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(estimator)
        elif group.estimator is not estimator:
            raise ServeError(
                f"batch group {key!r} is bound to a different estimator"
            )
        entry = _Pending(phi1=float(phi1), phi2=float(phi2),
                         location_hint=location_hint,
                         future=loop.create_future(),
                         enqueued=loop.time(),
                         quality=quality,
                         trace_ctx=trace.current_context())
        group.entries.append(entry)
        self._pending_total += 1
        if len(group.entries) >= self.policy.max_batch:
            self._flush(key)
        elif group.timer is None:
            group.timer = loop.call_later(self.policy.max_delay_s,
                                          self._flush, key)
        return await entry.future

    async def _apply_fault(self, fault: FaultEvent) -> str:
        """Apply one injected scheduler fault; returns the quality tag.

        ``reject`` raises synthetic backpressure (exercising the
        retry path); ``stall`` / ``slow_consumer`` sleep for the
        fault's magnitude [s] and tag the eventual result
        ``"degraded"`` so consumers know the latency budget was blown.
        """
        if fault.kind == "reject":
            self.telemetry.counter("serve.rejected").increment()
            raise QueueFullError(
                "injected backpressure fault (serve.scheduler/reject); "
                "retry later or shed load")
        await asyncio.sleep(fault.magnitude)
        return "degraded"

    def _scalar(self, estimator: ForceLocationEstimator, phi1: float,
                phi2: float, location_hint: Optional[float],
                start: float, quality: str = "ok") -> ScheduledEstimate:
        """The degraded (batching-off) path: immediate scalar invert."""
        self.telemetry.counter("serve.scalar_direct").increment()
        estimate = estimator.invert(float(phi1), float(phi2),
                                    location_hint=location_hint)
        loop = asyncio.get_running_loop()
        self.telemetry.histogram("serve.batch_size",
                                 BATCH_BUCKETS).observe(1)
        return ScheduledEstimate(estimate=estimate, batch_size=1,
                                 queue_seconds=loop.time() - start,
                                 quality=quality)

    def flush_all(self) -> None:
        """Flush every group now (shutdown / end-of-load drain)."""
        for key in list(self._groups):
            self._flush(key)

    def _flush(self, key: Hashable) -> None:
        """Flush one group: invert the coalesced batch, fan out."""
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        entries = group.entries
        self._pending_total -= len(entries)
        if not entries:
            return
        loop = asyncio.get_running_loop()
        size = len(entries)
        self.telemetry.counter("serve.batches").increment()
        self.telemetry.histogram("serve.batch_size",
                                 BATCH_BUCKETS).observe(size)
        # Parent on the first sampled member and link every sampled
        # one; with members but none sampled, parenting on any member
        # makes the flush (and the inversion under it) a stage timer.
        members = [entry.trace_ctx for entry in entries
                   if entry.trace_ctx is not None]
        sampled = [context for context in members if context.sampled]
        parent = sampled[0] if sampled else (members[0] if members
                                             else None)
        with self.telemetry.span(
                "serve.flush", {"batch_size": size},
                parent=parent, links=sampled) as span:
            try:
                with self.telemetry.span("estimator.invert_batch",
                                         {"batch_size": size}):
                    estimates = self._invert_batched(group.estimator,
                                                     entries)
            except Exception as exc:
                # Batcher failure: degrade to per-request scalar
                # inversion so one poisoned sample fails alone.
                span.set("fallback", type(exc).__name__)
                logger.warning(
                    "micro-batch flush of %d requests failed (%s: %s); "
                    "degrading to per-request scalar inversion",
                    size, type(exc).__name__, exc)
                self.telemetry.counter("serve.batch_fallbacks").increment()
                self.breaker.record_failure()
                self._resolve_scalar(group.estimator, entries, loop)
                return
        self.breaker.record_success()
        now = loop.time()
        queue_hist = self.telemetry.histogram("serve.queue_seconds")
        for entry, estimate in zip(entries, estimates):
            waited = now - entry.enqueued
            queue_hist.observe(waited)
            if not entry.future.done():
                entry.future.set_result(ScheduledEstimate(
                    estimate=estimate, batch_size=size,
                    queue_seconds=waited, quality=entry.quality))

    @staticmethod
    def _invert_batched(estimator: ForceLocationEstimator,
                        entries: List[_Pending],
                        ) -> List[ForceLocationEstimate]:
        """One coalesced inversion, aligned back to ``entries``.

        ``invert_batch`` takes either no hints or a full hint array,
        so hinted and hint-free requests batch separately; both halves
        still amortise the grid search across their members.
        """
        results: Dict[int, ForceLocationEstimate] = {}
        plain = [e for e in entries if e.location_hint is None]
        hinted = [e for e in entries if e.location_hint is not None]
        for subset, with_hints in ((plain, False), (hinted, True)):
            if not subset:
                continue
            phi1 = np.array([e.phi1 for e in subset])
            phi2 = np.array([e.phi2 for e in subset])
            hints = (np.array([e.location_hint for e in subset])
                     if with_hints else None)
            batch = estimator.invert_batch(phi1, phi2,
                                           location_hint=hints)
            for entry, estimate in zip(subset, batch):
                results[id(entry)] = estimate
        return [results[id(entry)] for entry in entries]

    def _resolve_scalar(self, estimator: ForceLocationEstimator,
                        entries: List[_Pending], loop) -> None:
        """Per-request scalar fallback after a failed batch flush."""
        for entry in entries:
            if entry.future.done():
                continue
            try:
                estimate = estimator.invert(
                    entry.phi1, entry.phi2,
                    location_hint=entry.location_hint)
            except Exception as exc:
                entry.future.set_exception(exc)
                continue
            entry.future.set_result(ScheduledEstimate(
                estimate=estimate, batch_size=1,
                queue_seconds=loop.time() - entry.enqueued,
                quality="degraded"))
