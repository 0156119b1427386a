"""Gateway end-to-end over real sockets: parity, auth, quotas.

The load-bearing guarantee is *network parity*: whatever the framing
layer, the micro-batch scheduler, and the per-tenant fan-in do, every
estimate served over a socket must be bit-identical to the direct
in-process :class:`InferenceService` answer for the same requests —
and the touch events pushed over a streaming subscription must be
bit-identical to a post-hoc ``touch_events`` query.

Every test here binds an ephemeral loopback port and drives it with
the honest clients from :mod:`repro.gateway.client`; hostile bytes
live in ``tests/test_gateway_fuzz.py``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.tracking import StreamingTracker
from repro.errors import ProtocolError
from repro.faults.retry import RetryPolicy
from repro.gateway import (
    Gateway,
    GatewayLimits,
    HandshakeRejected,
    Tenant,
    TenantTable,
    WebSocketClient,
    estimate_over_ws,
    http_request,
)
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)
from repro.obs import MemorySink
from repro.obs import trace
from repro.obs.recorder import recording
from repro.serve.loadgen import LoadProfile, generate_requests

#: Concurrent tenants for the e2e stream test (acceptance bar: >= 8).
N_TENANTS = 8


def _service(model, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8,
                                            max_delay_s=0.001))
    return InferenceService(model_factory=lambda config: model,
                            **kwargs)


def _tenants(count, **kwargs):
    return [Tenant(name=f"tenant-{index}", token=f"token-{index}",
                   rate_per_s=kwargs.pop("rate_per_s", 1e6),
                   burst=kwargs.pop("burst", 1 << 16), **kwargs)
            for index in range(count)]


def _request(sensor_id, sequence, phi1=0.5, phi2=0.4, time=None):
    return EstimateRequest(
        sensor_id=sensor_id, sequence=sequence,
        time=0.01 * sequence if time is None else time,
        phi1=phi1, phi2=phi2, config=SensorConfig())


class TestStreamingParity:
    """The acceptance e2e: N concurrent tenants, bit-exact parity."""

    def test_concurrent_tenants_match_inprocess_service(self,
                                                        model_900):
        profile = LoadProfile(sensors=N_TENANTS,
                              requests_per_sensor=12,
                              max_batch=8, max_delay_s=0.001)
        requests = generate_requests(model_900, profile)
        by_sensor = {}
        for request in requests:
            by_sensor.setdefault(request.sensor_id, []).append(request)
        tenants = _tenants(N_TENANTS)
        tokens = dict(zip(sorted(by_sensor), (t.token
                                              for t in tenants)))

        async def drive_tenant(host, port, sensor_id):
            """One tenant: subscribe, then stream sequentially."""
            client = await WebSocketClient.connect(
                host, port, token=tokens[sensor_id])
            await client.send_json({"type": "subscribe",
                                    "sensor_id": sensor_id})
            assert (await client.recv_json())["type"] == "subscribed"
            replies, pushed = [], []
            for request in by_sensor[sensor_id]:
                reply, events = await estimate_over_ws(
                    client, request.to_dict())
                replies.append(reply)
                pushed.extend(events)
            # Unsubscribe drains any push emitted after the last
            # reply was already read.
            await client.send_json({"type": "unsubscribe",
                                    "sensor_id": sensor_id})
            while True:
                message = await client.recv_json()
                if message["type"] == "touch_event":
                    pushed.append(message)
                    continue
                assert message["type"] == "unsubscribed"
                break
            await client.close()
            return replies, pushed

        async def networked():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(tenants))
            async with gateway:
                host, port = gateway.address
                return await asyncio.gather(*(
                    drive_tenant(host, port, sensor_id)
                    for sensor_id in sorted(by_sensor)))

        async def inprocess():
            direct = _service(model_900)

            async def one_sensor(sensor_id):
                responses = []
                for request in by_sensor[sensor_id]:
                    responses.append(await direct.estimate(request))
                return responses

            responses = await asyncio.gather(*(
                one_sensor(sensor_id)
                for sensor_id in sorted(by_sensor)))
            return direct, responses

        outcome = asyncio.run(networked())
        direct, expected = asyncio.run(inprocess())

        for sensor_id, (replies, pushed), direct_responses in zip(
                sorted(by_sensor), outcome, expected):
            assert len(replies) == len(direct_responses)
            for reply, response in zip(replies, direct_responses):
                assert reply["type"] == "estimate"
                wire = reply["response"]
                assert wire == response.to_dict() | {
                    "batch_size": wire["batch_size"],
                    "latency_s": wire["latency_s"],
                }
                assert wire["estimate"] == response.to_dict()[
                    "estimate"]
            # Pushed touch events == the post-hoc query, bit-exact.
            # The direct session history may end mid-press; the push
            # contract only emits closed events.
            session = direct.sessions.get(sensor_id)
            events = session.touch_events()
            if session.samples and session.samples[-1].touched:
                events = events[:-1]
            assert [push["event"] for push in pushed] \
                == [event.to_dict() for event in events]
            assert [push["index"] for push in pushed] \
                == list(range(len(events)))

    def test_http_estimate_matches_inprocess(self, model_900):
        request = _request("sensor-http", 0)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=request.to_dict(), token="token-0")

        response = asyncio.run(scenario())
        direct = asyncio.run(_service(model_900).estimate(request))
        assert response.status == 200
        wire = response.json()
        assert wire["estimate"] == direct.to_dict()["estimate"]
        assert wire["quality"] == direct.quality == "ok"

    def test_touch_events_endpoint_matches_pushes(self, model_900):
        pattern = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0),
                   (0.4, 0.3), (0.0, 0.0)]

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                for sequence, (phi1, phi2) in enumerate(pattern):
                    await estimate_over_ws(client, _request(
                        "s", sequence, phi1, phi2).to_dict())
                # Subscribing late catches up on closed events.
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "s"})
                assert (await client.recv_json())["type"] \
                    == "subscribed"
                catchup = []
                while True:
                    message = await client.recv_json(timeout=5.0)
                    if message["type"] == "touch_event":
                        catchup.append(message)
                        if len(catchup) == 2:
                            break
                await client.close()
                queried = await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=s", token="token-0")
                return catchup, queried

        catchup, queried = asyncio.run(scenario())
        events = queried.json()["events"]
        assert len(events) == 2  # both presses closed by (0, 0)
        assert [push["event"] for push in catchup] == events

    def test_touch_events_unknown_sensor_404(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=ghost",
                    token="token-0")

        assert asyncio.run(scenario()).status == 404


#: One press of two touched groups, closed by an untouched one.
_PRESS = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0)]


async def _subscribe(client, sensor_id, **fields):
    await client.send_json(dict(type="subscribe", sensor_id=sensor_id,
                                **fields))
    return await client.recv_json()


async def _barrier(client):
    """Ping and collect every message that arrives before the pong."""
    await client.send_json({"type": "ping"})
    seen = []
    while True:
        message = await client.recv_json(timeout=30.0)
        if message["type"] == "pong":
            return seen
        seen.append(message)


async def _stream(client, sensor_id, pattern, first=0):
    """Estimates for ``pattern`` (phase pairs) one at a time; returns
    the touch events pushed up to a barrier after the last reply."""
    pushed = []
    for offset, (phi1, phi2) in enumerate(pattern):
        _, events = await estimate_over_ws(client, _request(
            sensor_id, first + offset, phi1, phi2).to_dict())
        pushed += events
    return pushed + await _barrier(client)


class TestTouchEventLog:
    """Pushes come from the session's closed-segment log."""

    def test_reopened_session_restarts_indices(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900, max_sessions=1),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                assert (await _subscribe(client, "a"))["type"] \
                    == "subscribed"
                before = await _stream(client, "a", _PRESS)
                await _stream(client, "b", _PRESS)  # evicts a
                assert gateway.service.sessions.get("a") is None
                after = await _stream(client, "a", _PRESS + _PRESS,
                                      first=len(_PRESS))
                await client.close()
                queried = await http_request(
                    host, port, "GET", "/v1/touch_events?sensor_id=a",
                    token="token-0")
                return before, after, queried.json()["events"]

        before, after, queried = asyncio.run(scenario())
        assert [push["index"] for push in before] == [0]
        assert [push["index"] for push in after] == [0, 1]
        assert [push["event"] for push in after] == queried

    def test_late_subscribe_mid_press_catches_up(self, model_900):
        # A closed two-group press, then a one-group press still open:
        # the closed one is pushed at once, not held until the open
        # one ends.
        pattern = _PRESS + [(0.5, 0.4)]

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await _stream(client, "s", pattern)
                assert (await _subscribe(client, "s", min_groups=2))[
                    "type"] == "subscribed"
                catchup = await _barrier(client)
                await client.close()
                queried = await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=s&min_groups=2",
                    token="token-0")
                return catchup, queried.json()["events"]

        catchup, queried = asyncio.run(scenario())
        assert [push["index"] for push in catchup] == [0]
        assert [push["event"] for push in catchup] == queried

    def test_min_groups_is_validated_alike_on_both_paths(self,
                                                         model_900):
        queries = ("0", "-3", "abc", "1.5", "true", "", "2")
        messages = (0, -3, True, False, "2", 1.5, None, 2)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await _stream(client, "s", _PRESS)
                statuses = []
                for raw in queries:
                    response = await http_request(
                        host, port, "GET",
                        f"/v1/touch_events?sensor_id=s&min_groups={raw}",
                        token="token-0")
                    statuses.append(response.status)
                replies = []
                for value in messages:
                    replies.append(await _subscribe(client, "s",
                                                    min_groups=value))
                    replies += await _barrier(client)
                await client.close()
                return statuses, replies, gateway.telemetry.snapshot()

        statuses, replies, snapshot = asyncio.run(scenario())
        assert statuses == [400] * 6 + [200]
        assert [(reply["type"], reply.get("code")) for reply in replies] \
            == [("error", "protocol")] * 7 + [("subscribed", None),
                                              ("touch_event", None)]
        assert "gateway.internal_errors" not in snapshot["counters"]

    def test_long_stream_pushes_from_the_log(self, model_900,
                                             monkeypatch):
        """10,000 samples: exactly the closed events are pushed, the
        whole history is never re-segmented, each closed segment is
        summarized once, and an unsubscribed session summarizes
        nothing."""
        calls = {"touch_events": 0, "event_from": 0}
        segment = StreamingTracker.touch_events
        summarize = StreamingTracker.event_from

        def counting_touch_events(samples, min_groups=1):
            calls["touch_events"] += 1
            return segment(samples, min_groups=min_groups)

        def counting_event_from(samples):
            calls["event_from"] += 1
            return summarize(samples)

        monkeypatch.setattr(StreamingTracker, "touch_events",
                            staticmethod(counting_touch_events))
        monkeypatch.setattr(StreamingTracker, "event_from",
                            staticmethod(counting_event_from))
        rng = np.random.default_rng(7)
        pattern = []
        while len(pattern) < 10_000:
            pattern += [(0.0, 0.0)] * int(rng.integers(1, 5))
            pattern += [(float(rng.uniform(0.3, 0.7)),
                         float(rng.uniform(0.2, 0.6)))] \
                * int(rng.integers(1, 7))
        pattern = pattern[:10_000]
        window = 64

        async def pipelined(client, sensor_id, phases):
            """Send in windows, collecting pushes until every reply
            of the window has arrived."""
            pushed = []
            for first in range(0, len(phases), window):
                chunk = phases[first:first + window]
                for offset, (phi1, phi2) in enumerate(chunk):
                    await client.send_json({
                        "type": "estimate",
                        "request": _request(sensor_id, first + offset,
                                            phi1, phi2).to_dict()})
                replies = 0
                while replies < len(chunk):
                    message = await client.recv_json(timeout=30.0)
                    if message["type"] == "touch_event":
                        pushed.append(message)
                    else:
                        assert message["type"] == "estimate"
                        replies += 1
            return pushed + await _barrier(client)

        async def scenario():
            service = _service(model_900, policy=BatchPolicy(
                max_batch=64, max_delay_s=0.001))
            gateway = Gateway(service, tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                assert (await _subscribe(client, "s"))["type"] \
                    == "subscribed"
                pushed = await pipelined(client, "s", pattern)
                await pipelined(client, "quiet", pattern[:500])
                await client.close()
                return pushed, service.sessions.get("s"), \
                    service.sessions.get("quiet")

        pushed, session, quiet = asyncio.run(scenario())
        streamed = dict(calls)
        assert len(session.samples) == 10_000
        assert streamed["touch_events"] == 0
        assert quiet.segments
        assert streamed["event_from"] == len(session.segments)
        closed = session.touch_events()[:len(session.segments)]
        assert [push["event"] for push in pushed] \
            == [event.to_dict() for event in closed]
        assert [push["index"] for push in pushed] \
            == list(range(len(closed)))


class TestAuthAndQuotas:
    def test_missing_and_unknown_tokens_401(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                payload = _request("s", 0).to_dict()
                missing = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload)
                unknown = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="wrong")
                with pytest.raises(HandshakeRejected) as excinfo:
                    await WebSocketClient.connect(host, port,
                                                  token="wrong")
                return missing, unknown, excinfo.value

        missing, unknown, rejected = asyncio.run(scenario())
        assert missing.status == 401
        assert unknown.status == 401
        assert rejected.response.status == 401
        # The token itself must never be echoed back.
        assert b"wrong" not in unknown.body

    def test_anonymous_table_serves_without_credentials(self,
                                                        model_900):
        async def scenario():
            gateway = Gateway(_service(model_900))  # anonymous default
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict())

        assert asyncio.run(scenario()).status == 200

    def test_request_quota_sheds_with_rejected_quality(self,
                                                       model_900):
        tenant = Tenant(name="small", token="small-token",
                        rate_per_s=0.001, burst=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                payload = _request("s", 0).to_dict()
                first = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="small-token")
                second = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="small-token")
                telemetry = gateway.telemetry.snapshot()
                return first, second, telemetry

        first, second, telemetry = asyncio.run(scenario())
        assert first.status == 200
        assert second.status == 429
        assert second.json()["quality"] == "rejected"
        assert telemetry["counters"]["gateway.rate_limited"] == 1

    def test_ws_quota_sheds_with_rejected_quality(self, model_900):
        tenant = Tenant(name="small", token="small-token",
                        rate_per_s=0.001, burst=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="small-token")
                ok, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                shed, _ = await estimate_over_ws(
                    client, _request("s", 1).to_dict())
                await client.close()
                return ok, shed

        ok, shed = asyncio.run(scenario())
        assert ok["type"] == "estimate"
        assert shed["type"] == "error"
        assert shed["code"] == "quota"
        assert shed["quality"] == "rejected"
        assert shed["sequence"] == 1  # request identity echoed back

    def test_connection_quota_rejects_second_socket(self, model_900):
        tenant = Tenant(name="single", token="single-token",
                        max_connections=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                first = await WebSocketClient.connect(
                    host, port, token="single-token")
                with pytest.raises(HandshakeRejected) as excinfo:
                    await WebSocketClient.connect(
                        host, port, token="single-token")
                status = excinfo.value.response.status
                await first.close()
                # The slot is released on close; a new connection
                # succeeds.
                again = await WebSocketClient.connect(
                    host, port, token="single-token")
                await again.close()
                return status

        assert asyncio.run(scenario()) == 429

    def test_global_connection_cap_answers_503(self, model_900):
        async def scenario():
            gateway = Gateway(
                _service(model_900),
                tenants=TenantTable(_tenants(2)),
                limits=GatewayLimits(max_connections=1))
            async with gateway:
                host, port = gateway.address
                held = await WebSocketClient.connect(
                    host, port, token="token-0")
                overflow = await http_request(
                    host, port, "GET", "/healthz")
                await held.close()
                return overflow

        assert asyncio.run(scenario()).status == 503

    def test_backpressure_sheds_gracefully_and_recovers(self,
                                                        model_900):
        """Scheduler overload surfaces as rejected, never a crash."""
        service = _service(
            model_900,
            policy=BatchPolicy(max_batch=64, max_delay_s=0.05,
                               max_queue=1),
            retry_policy=RetryPolicy(attempts=1))
        flood = 12

        async def scenario():
            gateway = Gateway(service,
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                for sequence in range(flood):
                    await client.send_json({
                        "type": "estimate",
                        "request": _request("s", sequence).to_dict()})
                outcomes = [await client.recv_json(timeout=10.0)
                            for _ in range(flood)]
                await client.close()
                # The connection (and service) survive: a fresh
                # request afterwards is served.
                followup = await estimate_over_ws(
                    await WebSocketClient.connect(
                        host, port, token="token-0"),
                    _request("s", flood).to_dict())
                return outcomes, followup[0]

        outcomes, followup = asyncio.run(scenario())
        served = [o for o in outcomes if o["type"] == "estimate"]
        shed = [o for o in outcomes if o["type"] == "error"]
        assert len(served) + len(shed) == flood
        assert served, "the queued request should still be served"
        assert shed, "max_queue=1 under a 12-deep flood must shed"
        for outcome in shed:
            assert outcome["code"] == "backpressure"
            assert outcome["quality"] == "rejected"
        assert followup["type"] == "estimate"


class TestHttpSurface:
    def test_healthz_and_metrics_are_unauthenticated(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                health = await http_request(host, port, "GET",
                                            "/healthz")
                metrics = await http_request(host, port, "GET",
                                             "/metrics")
                return health, metrics

        health, metrics = asyncio.run(scenario())
        assert health.status == 200
        assert health.json()["status"] == "ok"
        assert metrics.status == 200
        text = metrics.body.decode("utf-8")
        assert "gateway_responses" in text.replace(".", "_")

    def test_unknown_route_404_and_wrong_method_405(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                lost = await http_request(host, port, "GET",
                                          "/v2/nothing",
                                          token="token-0")
                wrong = await http_request(host, port, "GET",
                                           "/v1/estimate",
                                           token="token-0")
                return lost, wrong

        lost, wrong = asyncio.run(scenario())
        assert lost.status == 404
        assert wrong.status == 405

    def test_malformed_estimate_body_400(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload={"sensor_id": "s"}, token="token-0")

        response = asyncio.run(scenario())
        assert response.status == 400
        assert "error" in response.json()

    def test_stream_without_upgrade_headers_426(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(host, port, "GET",
                                          "/v1/stream",
                                          token="token-0")

        assert asyncio.run(scenario()).status == 426

    def test_keep_alive_serves_multiple_requests(self, model_900):
        """Two requests on one connection (no ``connection: close``)."""

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(
                    host, port)
                from repro.gateway import http as gw_http

                statuses = []
                for _ in range(2):
                    writer.write(gw_http.render_request(
                        "GET", "/healthz"))
                    await writer.drain()
                    response = await gw_http.read_response(
                        reader, GatewayLimits())
                    statuses.append(response.status)
                writer.close()
                await writer.wait_closed()
                return statuses

        assert asyncio.run(scenario()) == [200, 200]


class TestWsProtocolSurface:
    def test_bad_json_message_is_answered_not_fatal(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                from repro.gateway import websocket

                await client.send_frame(websocket.OP_TEXT,
                                        b"{not json")
                error = await client.recv_json()
                # The connection survives the malformed message.
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.close()
                return error, reply

        error, reply = asyncio.run(scenario())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert reply["type"] == "estimate"

    def test_ws_ping_message_and_frame_are_answered(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({"type": "ping"})
                pong_message = await client.recv_json()
                from repro.gateway import websocket

                # A protocol-level ping is answered transparently by
                # the server; recv_json answers ours, so exercise the
                # server side with a raw ping and read the pong frame.
                await client.send_frame(websocket.OP_PING, b"abc")
                frame = await client._recv_frame()
                await client.close()
                return pong_message, frame

        pong_message, frame = asyncio.run(scenario())
        assert pong_message["type"] == "pong"
        from repro.gateway import websocket

        assert frame.opcode == websocket.OP_PONG
        assert frame.payload == b"abc"

    def test_malformed_estimate_payload_keeps_connection(self,
                                                         model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                error, _ = await estimate_over_ws(
                    client, {"sensor_id": "s"})
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.close()
                return error, reply

        error, reply = asyncio.run(scenario())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert reply["type"] == "estimate"

    def test_clean_close_handshake(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.close()
                snapshot = gateway.telemetry.snapshot()
                return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["gateway.ws_sessions"] == 1
        assert "gateway.internal_errors" \
            not in snapshot["counters"]


#: The span stages one WS estimate passes through.
_STAGES = ("gateway.request", "serve.estimate", "serve.session",
           "serve.flush", "estimator.invert_batch")


def _ws_estimate(model, traceparent=None):
    """One WS estimate: its reply, span events, per-stage histogram
    counts and the flight recorder's span records.

    All are read before the socket closes, so the upgrade request's
    own ``gateway.request`` span (open for the connection's life) is
    not among them.
    """
    message = {"type": "estimate", "request": _request("s", 0).to_dict()}
    if traceparent is not None:
        message["traceparent"] = traceparent
    service = _service(model, sink=MemorySink())

    async def scenario(recorder):
        gateway = Gateway(service, tenants=TenantTable(_tenants(1)))
        async with gateway:
            host, port = gateway.address
            client = await WebSocketClient.connect(host, port,
                                                   token="token-0")
            await client.send_json(message)
            reply = await client.recv_json()
            histograms = service.telemetry.snapshot()["histograms"]
            events = list(service.telemetry.sink.events)
            records = [event for event in recorder.snapshot()
                       if event["kind"] == "span"]
            await client.close()
        counts = {name: histograms[f"span.{name}.seconds"]["count"]
                  for name in _STAGES
                  if f"span.{name}.seconds" in histograms}
        return reply, events, counts, records

    with recording() as recorder:
        return asyncio.run(scenario(recorder))


class TestHeadSampling:
    """Edge roots are head-sampled at 1% by default: an unsampled
    request is timed per stage but records no span; a sampled one
    (remote flags ``01`` or a set ``REPRO_TRACE_SAMPLE``) records
    the full tree."""

    @pytest.fixture(autouse=True)
    def _edge_default(self, monkeypatch):
        monkeypatch.delenv(trace.TRACE_SAMPLE_ENV, raising=False)

    def test_unsampled_estimate_times_stages_only(self, model_900,
                                                  monkeypatch):
        monkeypatch.setattr(trace, "new_trace_id", lambda: "f" * 32)
        reply, events, counts, records = _ws_estimate(model_900)
        assert reply["type"] == "estimate"
        assert reply["trace_id"] == "f" * 32
        assert counts == {name: 1 for name in _STAGES}
        assert events == []
        assert records == []

    def _assert_full_tree(self, events, records, trace_id, parent):
        spans = {}
        for event in events:
            assert event["trace_id"] == trace_id
            spans.setdefault(event["span"], []).append(event)
        assert {name: len(group) for name, group in spans.items()} \
            == {name: 1 for name in _STAGES}
        (edge,), (estimate,) = spans["gateway.request"], \
            spans["serve.estimate"]
        (session,), (flush,) = spans["serve.session"], \
            spans["serve.flush"]
        (invert,) = spans["estimator.invert_batch"]
        assert edge["parent_span_id"] == parent
        assert estimate["parent_span_id"] == edge["span_id"]
        assert session["parent_span_id"] == estimate["span_id"]
        assert flush["parent_span_id"] == estimate["span_id"]
        assert invert["parent_span_id"] == flush["span_id"]
        assert flush["links"] == [{"trace_id": trace_id,
                                   "span_id": estimate["span_id"]}]
        assert sorted(record["span"] for record in records) \
            == sorted(_STAGES)

    def test_remote_flags_01_records_the_full_tree(self, model_900,
                                                   monkeypatch):
        # The upgrade request mints its own (unsampled) edge root.
        monkeypatch.setattr(trace, "new_trace_id", lambda: "e" * 32)
        sent_trace = "f" * 32
        reply, events, counts, records = _ws_estimate(
            model_900, f"00-{sent_trace}-{'34' * 8}-01")
        assert reply["trace_id"] == sent_trace
        assert counts == {name: 1 for name in _STAGES}
        self._assert_full_tree(events, records, sent_trace, "34" * 8)

    def test_remote_flags_00_stays_unsampled(self, model_900):
        sent_trace = "0" * 31 + "1"
        reply, events, counts, records = _ws_estimate(
            model_900, f"00-{sent_trace}-{'34' * 8}-00")
        assert reply["trace_id"] == sent_trace
        assert counts == {name: 1 for name in _STAGES}
        assert events == [] and records == []

    def test_set_rate_governs_the_edge(self, model_900, monkeypatch):
        monkeypatch.setenv(trace.TRACE_SAMPLE_ENV, "1")
        monkeypatch.setattr(trace, "new_trace_id", lambda: "f" * 32)
        reply, events, counts, records = _ws_estimate(model_900)
        assert reply["trace_id"] == "f" * 32
        self._assert_full_tree(events, records, "f" * 32, None)
        monkeypatch.setenv(trace.TRACE_SAMPLE_ENV, "0")
        monkeypatch.setattr(trace, "new_trace_id",
                            lambda: "0" * 31 + "1")
        _, events, counts, records = _ws_estimate(model_900)
        assert counts == {name: 1 for name in _STAGES}
        assert events == [] and records == []

class TestClientContracts:
    def test_client_rejects_bad_accept_key(self):
        async def handshake(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 101 Switching Protocols\r\n"
                b"upgrade: websocket\r\n"
                b"connection: Upgrade\r\n"
                b"sec-websocket-accept: bogus\r\n\r\n")
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(handshake,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(ProtocolError):
                    await WebSocketClient.connect(host, port)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_http_request_speaks_wire_json(self, model_900):
        """The one-shot client round-trips through raw sockets."""

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                response = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 3).to_dict(),
                    token="token-0")
                return response

        response = asyncio.run(scenario())
        payload = json.loads(response.body.decode("utf-8"))
        assert payload["sequence"] == 3
        assert payload["sensor_id"] == "s"


class TestTraceSurface:
    """Trace propagation at the network edge (W3C traceparent).

    Every HTTP response carries ``x-repro-trace-id``; every WS reply
    (estimate or error envelope) carries ``trace_id``; a caller-sent
    traceparent — HTTP header or WS message key — continues the
    caller's trace so the echoed ID matches the one they minted.
    """

    def test_every_http_response_carries_trace_id(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                ok = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                health = await http_request(host, port, "GET",
                                            "/healthz")
                lost = await http_request(host, port, "GET",
                                          "/v2/nothing",
                                          token="token-0")
                bad = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload={"sensor_id": "s"}, token="token-0")
                denied = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 1).to_dict())
                return ok, health, lost, bad, denied

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] \
            == [200, 200, 404, 400, 401]
        trace_ids = [r.headers["x-repro-trace-id"] for r in responses]
        for trace_id in trace_ids:
            assert len(trace_id) == 32
            int(trace_id, 16)
        assert len(set(trace_ids)) == len(trace_ids)

    def test_http_traceparent_continues_the_trace(self, model_900):
        sent_trace = "ab" * 16
        traceparent = f"00-{sent_trace}-{'cd' * 8}-01"

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(
                    host, port)
                from repro.gateway import http as gw_http

                body = json.dumps(
                    _request("s", 0).to_dict()).encode("utf-8")
                writer.write(gw_http.render_request(
                    "POST", "/v1/estimate",
                    headers={"authorization": "Bearer token-0",
                             "content-type": "application/json",
                             "traceparent": traceparent},
                    body=body))
                await writer.drain()
                response = await gw_http.read_response(
                    reader, GatewayLimits())
                writer.close()
                await writer.wait_closed()
                return response

        response = asyncio.run(scenario())
        assert response.status == 200
        assert response.headers["x-repro-trace-id"] == sent_trace

    def test_ws_replies_carry_trace_id(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.send_json({"type": "estimate",
                                        "request": {"sensor_id": "s"}})
                error = await client.recv_json()
                await client.close()
                return reply, error

        reply, error = asyncio.run(scenario())
        assert reply["type"] == "estimate"
        assert len(reply["trace_id"]) == 32
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert len(error["trace_id"]) == 32
        assert error["trace_id"] != reply["trace_id"]

    def test_ws_traceparent_continues_the_trace(self, model_900):
        sent_trace = "12" * 16
        traceparent = f"00-{sent_trace}-{'34' * 8}-01"

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({
                    "type": "estimate",
                    "traceparent": traceparent,
                    "request": _request("s", 0).to_dict()})
                reply = await client.recv_json()
                await client.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["type"] == "estimate"
        assert reply["trace_id"] == sent_trace

    def test_healthz_reports_slo_detail(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                return await http_request(host, port, "GET",
                                          "/healthz")

        health = asyncio.run(scenario()).json()
        assert health["status"] in ("ok", "degraded")
        names = {status["name"] for status in health["slo"]}
        assert names == {"gateway-availability", "serve-latency"}
        for status in health["slo"]:
            assert "alerting" in status and "burn" in status
