"""The network-facing gateway: sockets in, wire protocol out.

:class:`Gateway` is an ``asyncio.start_server`` front end over the
in-process :class:`repro.serve.service.InferenceService`.  Routes:

* ``POST /v1/estimate`` — one :class:`EstimateRequest` JSON body in,
  one :class:`EstimateResponse` JSON body out.
* ``GET /v1/stream`` — WebSocket upgrade to the streaming session:
  JSON text messages ``{"type": "estimate", "request": {...}}`` are
  answered with ``{"type": "estimate", "response": {...}}``, and
  ``{"type": "subscribe", "sensor_id": ...}`` opens a per-sensor
  touch-event subscription that pushes
  ``{"type": "touch_event", ...}`` messages as presses complete.
* ``GET /v1/touch_events?sensor_id=...`` — the session's segmented
  touch events so far.
* ``GET /healthz`` / ``GET /metrics`` — liveness and the shared
  registry in Prometheus text format (unauthenticated; everything
  else requires a tenant credential).

Failure taxonomy, by construction: a malformed payload is a
:class:`ProtocolError` and answers 400 (HTTP) or an ``"error"``
envelope / close code 1002 (WebSocket); a missing or unknown
credential answers 401; an exhausted tenant quota or scheduler
backpressure answers 429 with ``quality="rejected"``.  No client
input path raises anything else — the fuzz suite
(``tests/test_gateway_fuzz.py``) drives hostile bytes at every layer
and asserts the connection is the only casualty.

Touch-event streaming contract: an event is pushed once it is
*closed* — an untouched sample has ended the press, so its
onset/release/peak are final.  Pushes are read from the session's
closed-segment log (:meth:`SensorSession.closed_events`), and each
event's ``index`` is its position in a post-hoc ``touch_events``
query over the same samples, which the pushed stream equals
bit-for-bit minus the still-open press.  When the sensor's session is
evicted and reopened, the subscription follows the new session and
its indices restart at 0.
"""

from __future__ import annotations

import asyncio
import json
import logging
import weakref
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.tracking import TouchEvent
from repro.errors import (
    AuthError,
    ProtocolError,
    QueueFullError,
    ServeError,
)
from repro.gateway import http, websocket
from repro.gateway.auth import Tenant, TenantTable
from repro.gateway.http import GatewayLimits, HttpRequest
from repro.obs import trace
from repro.obs.recorder import flight_recorder
from repro.obs.slo import SloMonitor, default_slos
from repro.serve.protocol import EstimateRequest
from repro.serve.service import InferenceService
from repro.serve.session import SensorSession

logger = logging.getLogger(__name__)

#: Read chunk size for the WebSocket frame loop.
_WS_CHUNK = 1 << 16

#: Bound on waiting for in-flight estimate tasks at connection close.
_DRAIN_TIMEOUT_S = 5.0


def _parse_min_groups(value: Any, query: bool = False) -> int:
    """Validate a ``min_groups`` value: an integer >= 1.

    With ``query``, a string of ASCII digits (a query-string value)
    counts as its integer.  Anything else, bools included, raises
    :class:`ProtocolError`.
    """
    if query and isinstance(value, str) and value.isascii() \
            and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # past the int-from-string digit limit
            pass
    if type(value) is not int or value < 1:
        raise ProtocolError("min_groups must be an integer >= 1")
    return value


@dataclass
class _Subscription:
    """One sensor subscription on one connection: a cursor into the
    closed-segment log of the session it last read."""

    min_groups: int = 1
    session: Optional["weakref.ref[SensorSession]"] = None
    cursor: int = 0
    emitted: int = 0

    def _reads(self, session: SensorSession) -> bool:
        return self.session is not None and self.session() is session

    def pending(self, session: SensorSession) -> bool:
        """Whether ``session`` may hold events not yet taken."""
        return (not self._reads(session)
                or self.cursor < len(session.segments))

    def take(self, session: SensorSession
             ) -> Tuple[int, List[TouchEvent]]:
        """The index of the first new event and the new events.

        A session other than the one last read (the sensor's session
        was evicted and reopened) restarts the cursor and indices.
        """
        if not self._reads(session):
            self.session = weakref.ref(session)
            self.cursor = self.emitted = 0
        events = session.closed_events(self.min_groups,
                                       start=self.cursor)
        self.cursor = len(session.segments)
        base = self.emitted
        self.emitted += len(events)
        return base, events


class _WsConnection:
    """Per-connection WebSocket state (write lock, subs, tasks)."""

    def __init__(self, writer: asyncio.StreamWriter, tenant: Tenant):
        self.writer = writer
        self.tenant = tenant
        self.lock = asyncio.Lock()
        self.subscriptions: Dict[str, _Subscription] = {}
        self.tasks: Set["asyncio.Task"] = set()
        self.closing = False
        self.closed = False

    async def send_frame(self, opcode: int, payload: bytes) -> None:
        """Write one frame under the connection's write lock."""
        async with self.lock:
            if self.closed:
                return
            self.writer.write(websocket.encode_frame(opcode, payload))
            try:
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True

    async def send_json(self, payload: dict) -> None:
        """Send one JSON text message."""
        await self.send_frame(
            websocket.OP_TEXT,
            json.dumps(payload, sort_keys=True).encode("utf-8"))

    def spawn(self, coro) -> None:
        """Track a per-message task until it finishes."""
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)


class Gateway:
    """Asyncio HTTP/WebSocket gateway over one inference service.

    Args:
        service: The inference service to expose; a default one is
            built when omitted (``policy`` / ``model_factory`` are
            only consulted in that case).
        tenants: Auth table; default allows anonymous access (demo /
            loopback use).
        host / port: Bind address; port 0 picks an ephemeral port
            (reported by :meth:`start`).
        limits: Input caps (head/body/frame sizes, connection count).
        policy / model_factory: Forwarded to the default service.
        touch_min_groups: Default ``min_groups`` for touch-event
            queries and subscriptions that do not specify one.
    """

    def __init__(self, service: Optional[InferenceService] = None,
                 tenants: Optional[TenantTable] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 limits: Optional[GatewayLimits] = None,
                 policy=None, model_factory=None,
                 touch_min_groups: int = 1):
        if service is None:
            service = InferenceService(policy=policy,
                                       model_factory=model_factory)
        self.service = service
        self.telemetry = service.telemetry
        self.tenants = (tenants if tenants is not None
                        else TenantTable(allow_anonymous=True))
        self.limits = limits if limits is not None else GatewayLimits()
        self.host = host
        self.port = port
        self.touch_min_groups = int(touch_min_groups)
        self.slo_monitor = SloMonitor(default_slos())
        self._server: Optional[asyncio.AbstractServer] = None
        self._open = 0
        self._subscribers: Dict[str, Set[_WsConnection]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self.host, self.port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=max(1 << 16, self.limits.max_head_bytes + 1024))
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        logger.info("gateway listening on %s:%d", self.host, self.port)
        return self.address

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.telemetry.counter(name).increment()

    def _apply_tenant_backend(self, request: EstimateRequest,
                              tenant: Tenant) -> EstimateRequest:
        """Force the tenant's estimator backend onto a request.

        A tenant configured with ``backend=""`` (the default) leaves
        requests untouched; otherwise the sensor config's backend is
        rewritten before the request reaches the inference service,
        so per-tenant backend choice composes with the session
        manager's config-keyed estimator cache and the scheduler's
        config-keyed micro-batch groups.
        """
        if not tenant.backend or request.config.backend == tenant.backend:
            return request
        self._count("gateway.backend_overrides")
        return replace(request,
                       config=replace(request.config,
                                      backend=tenant.backend))

    def _internal_error(self, where: str) -> None:
        """The zero-crash boundary tripped: count it and dump the
        flight recorder so the events leading up to it survive."""
        self._count("gateway.internal_errors")
        flight_recorder().trigger("gateway.internal_errors",
                                  where=where)

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 payload: dict, context: trace.TraceContext,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False) -> None:
        """One JSON response, always echoing ``X-Repro-Trace-Id``."""
        merged = {"x-repro-trace-id": context.trace_id}
        if headers:
            merged.update(headers)
        writer.write(http.json_response(status, payload,
                                        headers=merged, close=close))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One TCP connection: HTTP request loop, maybe WS upgrade."""
        if self._open >= self.limits.max_connections:
            self._count("gateway.connections_refused")
            self._respond(
                writer, 503,
                {"error": "gateway connection limit reached"},
                trace.request_context(), close=True)
            await self._close_writer(writer)
            return
        self._open += 1
        self._count("gateway.connections")
        self.telemetry.gauge("gateway.open_connections").set(self._open)
        try:
            await self._request_loop(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # peer went away; nothing to answer
        except Exception:  # noqa: BLE001 - the zero-crash boundary
            self._internal_error("connection")
            logger.exception("unhandled error on gateway connection")
        finally:
            self._open -= 1
            self.telemetry.gauge("gateway.open_connections").set(
                self._open)
            await self._close_writer(writer)

    async def _request_loop(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Serve HTTP requests until EOF, upgrade, or a framing error."""
        while True:
            try:
                request = await http.read_request(reader, self.limits)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                self._respond(writer, 400, {"error": str(exc)},
                              trace.request_context(), close=True)
                await self._drain(writer)
                return
            if request is None:
                return
            keep_alive = await self._dispatch(request, reader, writer)
            if not keep_alive:
                return

    async def _dispatch(self, request: HttpRequest,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection.

        Every request gets a :class:`repro.obs.trace.TraceContext` —
        continuing the caller's trace when a valid ``traceparent``
        header arrived, starting a fresh root otherwise — and every
        response echoes its trace ID in ``X-Repro-Trace-Id``.
        """
        self._count("gateway.http_requests")
        path = request.path
        wants_close = request.header("connection").lower() == "close"
        remote = trace.parse_traceparent(
            request.header("traceparent") or None)
        context = trace.request_context(remote)
        with self.telemetry.span(
                "gateway.request",
                {"path": path, "method": request.method},
                context=context, parent=remote):
            if path == "/healthz":
                statuses = self.slo_monitor.observe(
                    self.telemetry.snapshot())
                healthy = all(status["ok"] and not status["alerting"]
                              for status in statuses)
                self._respond(writer, 200, {
                    "status": "ok" if healthy else "degraded",
                    "sessions": len(self.service.sessions),
                    "slo": statuses,
                }, context, close=wants_close)
            elif path == "/metrics":
                from repro.obs.exporters import to_prometheus

                body = to_prometheus(self.telemetry.snapshot()).encode()
                writer.write(http.render_response(
                    200, body,
                    content_type="text/plain; version=0.0.4",
                    headers={"x-repro-trace-id": context.trace_id},
                    close=wants_close))
            else:
                try:
                    tenant = self.tenants.authenticate(
                        request.header("authorization") or None)
                except AuthError as exc:
                    self._count("gateway.auth_failures")
                    self._respond(writer, 401, {"error": str(exc)},
                                  context, close=wants_close)
                    await self._drain(writer)
                    return not wants_close
                if path == "/v1/stream":
                    await self._upgrade(request, reader, writer,
                                        tenant, context)
                    return False
                await self._serve_http(request, writer, tenant,
                                       wants_close, context)
        await self._drain(writer)
        return not wants_close

    async def _serve_http(self, request: HttpRequest,
                          writer: asyncio.StreamWriter,
                          tenant: Tenant, wants_close: bool,
                          context: trace.TraceContext) -> None:
        """The plain request/response endpoints."""
        loop = asyncio.get_running_loop()
        path = request.path
        if path == "/v1/estimate":
            if request.method != "POST":
                self._respond(writer, 405, {"error": "use POST"},
                              context, close=wants_close)
                return
            if not self.tenants.admit(tenant, loop.time()):
                self._count("gateway.rate_limited")
                self._respond(writer, 429, {
                    "error": f"tenant {tenant.name!r} exceeded its "
                             "request quota",
                    "quality": "rejected",
                }, context, headers={"retry-after": "1"},
                    close=wants_close)
                return
            start = loop.time()
            try:
                estimate_request = self._apply_tenant_backend(
                    EstimateRequest.from_json(
                        request.body.decode("utf-8", errors="replace")),
                    tenant)
                response = await self.service.estimate(
                    estimate_request)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                self._respond(writer, 400, {"error": str(exc)},
                              context, close=wants_close)
                return
            except QueueFullError as exc:
                self._count("gateway.rejected")
                self._respond(writer, 429, {
                    "error": str(exc), "quality": "rejected",
                }, context, headers={"retry-after": "1"},
                    close=wants_close)
                return
            except ServeError as exc:
                self._respond(writer, 400, {"error": str(exc)},
                              context, close=wants_close)
                return
            except Exception:  # noqa: BLE001 - zero-crash boundary
                self._internal_error("/v1/estimate")
                logger.exception("estimate failed on /v1/estimate")
                self._respond(writer, 500,
                              {"error": "internal gateway error"},
                              context, close=wants_close)
                return
            self.telemetry.histogram(
                "gateway.request_seconds").observe(loop.time() - start)
            self._count("gateway.responses")
            self._respond(writer, 200, response.to_dict(), context,
                          close=wants_close)
        elif path == "/v1/touch_events":
            sensor_id = request.query.get("sensor_id", "")
            if not sensor_id:
                self._respond(writer, 400,
                              {"error": "sensor_id query parameter "
                                        "is required"},
                              context, close=wants_close)
                return
            try:
                min_groups = _parse_min_groups(request.query.get(
                    "min_groups", self.touch_min_groups), query=True)
                events = self.service.touch_events(
                    sensor_id, min_groups=min_groups)
            except ProtocolError as exc:
                self._respond(writer, 400, {"error": str(exc)},
                              context, close=wants_close)
                return
            except ServeError as exc:
                self._respond(writer, 404, {"error": str(exc)},
                              context, close=wants_close)
                return
            self._respond(writer, 200, {
                "sensor_id": sensor_id,
                "events": [event.to_dict() for event in events],
            }, context, close=wants_close)
        else:
            self._respond(writer, 404,
                          {"error": f"no route for {path[:80]!r}"},
                          context, close=wants_close)

    # ------------------------------------------------------------------
    # WebSocket path
    # ------------------------------------------------------------------

    async def _upgrade(self, request: HttpRequest,
                       reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       tenant: Tenant,
                       context: trace.TraceContext) -> None:
        """Validate the handshake and run the streaming session."""
        key = request.header("sec-websocket-key")
        upgrade_ok = (
            request.method == "GET"
            and "websocket" in request.header("upgrade").lower()
            and "upgrade" in request.header("connection").lower()
            and bool(key)
            and request.header("sec-websocket-version", "13") == "13")
        if not upgrade_ok:
            self._count("gateway.protocol_errors")
            self._respond(writer, 426,
                          {"error": "/v1/stream requires a WebSocket "
                                    "upgrade (version 13)"},
                          context, headers={"upgrade": "websocket"},
                          close=True)
            await self._drain(writer)
            return
        if not self.tenants.acquire_connection(tenant):
            self._count("gateway.rate_limited")
            self._respond(writer, 429, {
                "error": f"tenant {tenant.name!r} reached its "
                         "connection quota",
                "quality": "rejected",
            }, context, close=True)
            await self._drain(writer)
            return
        conn = _WsConnection(writer, tenant)
        try:
            writer.write(http.render_response(101, headers={
                "upgrade": "websocket",
                "connection": "Upgrade",
                "sec-websocket-accept": websocket.accept_key(key),
                "x-repro-trace-id": context.trace_id,
            }))
            await self._drain(writer)
            self._count("gateway.ws_sessions")
            await self._ws_loop(conn, reader)
        finally:
            conn.closing = True
            if conn.tasks:
                _, pending = await asyncio.wait(
                    set(conn.tasks), timeout=_DRAIN_TIMEOUT_S)
                for task in pending:
                    task.cancel()
            async with conn.lock:
                conn.closed = True
            for sensor_id in list(conn.subscriptions):
                self._unsubscribe(conn, sensor_id)
            self.tenants.release_connection(tenant)

    async def _ws_loop(self, conn: _WsConnection,
                       reader: asyncio.StreamReader) -> None:
        """Frame loop: parse, dispatch, close cleanly on violation."""
        buffer = bytearray()
        while not conn.closing:
            try:
                parsed = websocket.parse_frame(
                    bytes(buffer), self.limits.max_ws_payload)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await self._ws_close(
                    conn, websocket.CLOSE_PROTOCOL_ERROR, str(exc))
                return
            if parsed is None:
                chunk = await reader.read(_WS_CHUNK)
                if not chunk:
                    return  # peer vanished without a close frame
                buffer += chunk
                continue
            frame, consumed = parsed
            del buffer[:consumed]
            try:
                await self._handle_frame(conn, frame)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await self._ws_close(
                    conn, websocket.CLOSE_PROTOCOL_ERROR, str(exc))
                return

    async def _ws_close(self, conn: _WsConnection, code: int,
                        reason: str = "") -> None:
        """Best-effort close frame; marks the connection closing."""
        conn.closing = True
        await conn.send_frame(websocket.OP_CLOSE,
                              websocket.close_payload(code, reason))

    async def _handle_frame(self, conn: _WsConnection,
                            frame) -> None:
        """Dispatch one parsed frame.

        Raises:
            ProtocolError: RFC violations the parser cannot see —
                unmasked client frames, fragmentation, binary data.
        """
        if not frame.masked:
            raise ProtocolError("client frames must be masked")
        if frame.opcode == websocket.OP_PING:
            await conn.send_frame(websocket.OP_PONG, frame.payload)
            return
        if frame.opcode == websocket.OP_PONG:
            return
        if frame.opcode == websocket.OP_CLOSE:
            websocket.parse_close(frame.payload)  # validate
            await self._ws_close(conn, websocket.CLOSE_NORMAL)
            return
        if frame.opcode != websocket.OP_TEXT or not frame.fin:
            raise ProtocolError(
                "only unfragmented text frames are supported")
        await self._handle_message(conn, frame.text())

    async def _handle_message(self, conn: _WsConnection,
                              text: str) -> None:
        """One JSON wire message (bad JSON is answered, not fatal)."""
        self._count("gateway.ws_messages")
        try:
            message = json.loads(text)
        except ValueError as exc:
            self._count("gateway.protocol_errors")
            await conn.send_json({
                "type": "error", "code": "protocol",
                "error": f"message is not valid JSON: {exc}"})
            return
        if not isinstance(message, dict) \
                or not isinstance(message.get("type"), str):
            self._count("gateway.protocol_errors")
            await conn.send_json({
                "type": "error", "code": "protocol",
                "error": "message must be an object with a string "
                         "'type'"})
            return
        kind = message["type"]
        if kind == "estimate":
            conn.spawn(self._serve_ws_estimate(conn, message))
        elif kind == "subscribe":
            await self._serve_subscribe(conn, message)
        elif kind == "unsubscribe":
            sensor_id = message.get("sensor_id")
            if isinstance(sensor_id, str):
                self._unsubscribe(conn, sensor_id)
            await conn.send_json({"type": "unsubscribed",
                                  "sensor_id": sensor_id})
        elif kind == "ping":
            await conn.send_json({"type": "pong"})
        else:
            self._count("gateway.protocol_errors")
            await conn.send_json({
                "type": "error", "code": "protocol",
                "error": f"unknown message type {kind[:40]!r}"})

    async def _serve_ws_estimate(self, conn: _WsConnection,
                                 message: dict) -> None:
        """One estimate message (runs as its own task).

        Each message gets its own trace context — continuing the
        caller's when the message carries a valid ``"traceparent"``
        value, a fresh root otherwise — and every reply (estimate or
        error envelope) echoes its ``trace_id``.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        remote = trace.parse_traceparent(message.get("traceparent"))
        context = trace.request_context(remote)
        payload = message.get("request")
        echo = {"trace_id": context.trace_id}
        if isinstance(payload, dict):
            for key in ("sensor_id", "sequence"):
                if key in payload:
                    echo[key] = payload[key]
        if not self.tenants.admit(conn.tenant, start):
            self._count("gateway.rate_limited")
            await conn.send_json(dict(echo, **{
                "type": "error", "code": "quota",
                "quality": "rejected",
                "error": f"tenant {conn.tenant.name!r} exceeded its "
                         "request quota"}))
            return
        with self.telemetry.span(
                "gateway.request",
                {"path": "/v1/stream", "method": "WS"},
                context=context, parent=remote):
            try:
                request = self._apply_tenant_backend(
                    EstimateRequest.from_dict(payload), conn.tenant)
            except ProtocolError as exc:
                self._count("gateway.protocol_errors")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "protocol",
                    "error": str(exc)}))
                return
            try:
                response = await self.service.estimate(request)
            except QueueFullError as exc:
                self._count("gateway.rejected")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "backpressure",
                    "quality": "rejected", "error": str(exc)}))
                return
            except ServeError as exc:
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "serve",
                    "error": str(exc)}))
                return
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - zero-crash boundary
                self._internal_error("/v1/stream")
                logger.exception("estimate failed on /v1/stream")
                await conn.send_json(dict(echo, **{
                    "type": "error", "code": "internal",
                    "error": "internal gateway error"}))
                return
        self.telemetry.histogram("gateway.request_seconds").observe(
            loop.time() - start)
        self._count("gateway.responses")
        await conn.send_json({"type": "estimate",
                              "trace_id": context.trace_id,
                              "response": response.to_dict()})
        await self._push_touch_events(request.sensor_id)

    # ------------------------------------------------------------------
    # Touch-event subscriptions
    # ------------------------------------------------------------------

    async def _serve_subscribe(self, conn: _WsConnection,
                               message: dict) -> None:
        sensor_id = message.get("sensor_id")
        try:
            min_groups = _parse_min_groups(
                message.get("min_groups", self.touch_min_groups))
        except ProtocolError:
            min_groups = None
        if not isinstance(sensor_id, str) or not sensor_id \
                or min_groups is None:
            self._count("gateway.protocol_errors")
            await conn.send_json({
                "type": "error", "code": "protocol",
                "error": "subscribe needs a sensor_id string and an "
                         "integer min_groups >= 1"})
            return
        conn.subscriptions[sensor_id] = _Subscription(
            min_groups=min_groups)
        self._subscribers.setdefault(sensor_id, set()).add(conn)
        self._count("gateway.subscriptions")
        await conn.send_json({"type": "subscribed",
                              "sensor_id": sensor_id})
        # Catch up on presses that completed before the subscription.
        await self._push_touch_events(sensor_id, only=conn)

    def _unsubscribe(self, conn: _WsConnection,
                     sensor_id: str) -> None:
        conn.subscriptions.pop(sensor_id, None)
        remaining = self._subscribers.get(sensor_id)
        if remaining is not None:
            remaining.discard(conn)
            if not remaining:
                self._subscribers.pop(sensor_id, None)

    async def _push_touch_events(
            self, sensor_id: str,
            only: Optional[_WsConnection] = None) -> None:
        """Push newly *closed* events to this sensor's subscribers."""
        conns = self._subscribers.get(sensor_id)
        if not conns:
            return
        session = self.service.sessions.get(sensor_id)
        if session is None:
            return
        targets = [only] if only is not None else list(conns)
        for conn in targets:
            subscription = conn.subscriptions.get(sensor_id)
            if subscription is None or conn.closed \
                    or not subscription.pending(session):
                continue
            async with conn.lock:
                # Take + send under the write lock so concurrent
                # estimates for the same sensor cannot interleave
                # event pushes out of order on one connection.  The
                # session is looked up again: it may have been
                # replaced while this push waited for the lock.
                session = self.service.sessions.get(sensor_id)
                if session is None:
                    return
                base, fresh = subscription.take(session)
                if not fresh:
                    continue
                for index, event in enumerate(fresh):
                    if conn.closed:
                        break
                    self._count("gateway.touch_events_pushed")
                    conn.writer.write(websocket.encode_frame(
                        websocket.OP_TEXT,
                        json.dumps({
                            "type": "touch_event",
                            "sensor_id": sensor_id,
                            "index": base + index,
                            "event": event.to_dict(),
                        }, sort_keys=True).encode("utf-8")))
                try:
                    await conn.writer.drain()
                except (ConnectionError, RuntimeError):
                    conn.closed = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
