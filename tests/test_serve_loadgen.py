"""Load generation: arrival patterns, pacing and the two transports.

The heavy-tailed arrival option must change *when* requests are
submitted, never *what* is requested — the request list is seeded
independently of the gap draws — and the Pareto gaps must keep the
configured mean rate while being visibly burstier than uniform.  Both
transports return outcomes in request order and map failures onto
the survival taxonomy instead of aborting the load.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import GatewayError, QueueFullError, ServeError
from repro.serve import EstimateRequest, InferenceService, SensorConfig
from repro.serve.loadgen import (
    LoadProfile,
    generate_arrival_offsets,
    generate_requests,
    run_benchmark,
    run_gateway_load,
    run_service_load,
)


class TestArrivalOffsets:
    def test_closed_loop_default_has_no_offsets(self):
        assert generate_arrival_offsets(LoadProfile()) is None

    def test_uniform_offsets_are_evenly_spaced(self):
        profile = LoadProfile(sensors=2, requests_per_sensor=8,
                              arrival_rate_rps=100.0)
        offsets = generate_arrival_offsets(profile)
        assert offsets is not None
        assert offsets[0] == 0.0
        gaps = np.diff(offsets)
        assert np.allclose(gaps, 0.01)

    def test_pareto_offsets_keep_the_mean_rate(self):
        profile = LoadProfile(sensors=25, requests_per_sensor=400,
                              arrival="pareto",
                              arrival_rate_rps=1000.0,
                              pareto_alpha=2.5)
        offsets = generate_arrival_offsets(profile)
        gaps = np.diff(offsets)
        # Mean gap within 10% of 1/rate for a 10k-draw sample.
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.1)
        # Minimum possible gap is mean * (alpha-1)/alpha.
        assert gaps.min() >= 1e-3 * (2.5 - 1.0) / 2.5 - 1e-12

    def test_pareto_is_burstier_than_uniform(self):
        kwargs = dict(sensors=25, requests_per_sensor=400,
                      arrival_rate_rps=1000.0)
        uniform = np.diff(generate_arrival_offsets(
            LoadProfile(arrival="uniform", **kwargs)))
        pareto = np.diff(generate_arrival_offsets(
            LoadProfile(arrival="pareto", **kwargs)))
        assert np.std(pareto) > 10 * np.std(uniform)
        # Heavy tail: the largest gap dwarfs the mean.
        assert pareto.max() > 5 * np.mean(pareto)

    def test_offsets_are_deterministic_per_seed(self):
        profile = LoadProfile(arrival="pareto", arrival_rate_rps=50.0,
                              seed=3)
        first = generate_arrival_offsets(profile)
        second = generate_arrival_offsets(profile)
        np.testing.assert_array_equal(first, second)
        reseeded = generate_arrival_offsets(
            LoadProfile(arrival="pareto", arrival_rate_rps=50.0,
                        seed=4))
        assert not np.array_equal(first, reseeded)

    def test_arrival_shape_never_changes_the_requests(self, model_900):
        burst = LoadProfile(sensors=2, requests_per_sensor=4,
                            arrival="pareto", arrival_rate_rps=10.0)
        closed = LoadProfile(sensors=2, requests_per_sensor=4)
        assert generate_requests(model_900, burst) \
            == generate_requests(model_900, closed)

    def test_validation(self):
        with pytest.raises(ServeError):
            LoadProfile(arrival="poisson")
        with pytest.raises(ServeError):
            LoadProfile(arrival_rate_rps=-1.0)
        with pytest.raises(ServeError):
            LoadProfile(arrival="pareto", pareto_alpha=1.0)


class TestPacedServiceLoad:
    def test_paced_submission_serves_everything(self, model_900):
        service = InferenceService(
            model_factory=lambda config: model_900)
        config = SensorConfig()
        requests = [
            EstimateRequest(sensor_id="s", sequence=index,
                            time=0.01 * index, phi1=0.2, phi2=0.1,
                            config=config)
            for index in range(6)
        ]
        offsets = np.linspace(0.0, 5e-3, len(requests))
        responses, latencies, wall = asyncio.run(
            run_service_load(service, requests, offsets))
        assert [r.sequence for r in responses] == list(range(6))
        assert all(r.quality == "ok" for r in responses)
        assert wall >= 5e-3
        assert all(0.0 < latency <= wall for latency in latencies)


class TestTransports:
    @pytest.fixture(scope="class")
    def tape(self, model_900):
        return generate_requests(
            model_900, LoadProfile(sensors=3, requests_per_sensor=4))

    def test_gateway_matches_inprocess_in_request_order(self, model_900,
                                                        tape):
        def service():
            return InferenceService(model_factory=lambda config: model_900)

        direct, _, _ = asyncio.run(run_service_load(service(), tape))
        wired, latencies, wall = asyncio.run(
            run_gateway_load(service(), tape))
        assert [(r.sensor_id, r.sequence) for r in wired] == \
            [(r.sensor_id, r.sequence) for r in tape]
        for ours, theirs in zip(wired, direct):
            assert ours.estimate.force == theirs.estimate.force
            assert ours.estimate.location == theirs.estimate.location
            assert ours.estimate.touched == theirs.estimate.touched
        assert all(0.0 < latency <= wall for latency in latencies)

    @pytest.mark.parametrize("transport", ["inprocess", "gateway"])
    def test_failures_map_to_the_survival_taxonomy(self, model_900, tape,
                                                   transport):
        """Shed requests are QueueFullError, other failures are their
        exception in-process and GatewayError through the gateway."""
        from repro.serve.loadgen import TRANSPORTS

        class Failing(InferenceService):
            async def estimate(self, request):
                if request.sensor_id == "sensor-000":
                    raise QueueFullError("shed")
                if request.sensor_id == "sensor-001":
                    raise RuntimeError("boom")
                return await super().estimate(request)

        service = Failing(model_factory=lambda config: model_900)
        outcomes, _, _ = asyncio.run(TRANSPORTS[transport](service, tape))
        crash = RuntimeError if transport == "inprocess" else GatewayError
        for request, outcome in zip(tape, outcomes):
            if request.sensor_id == "sensor-000":
                assert isinstance(outcome, QueueFullError)
            elif request.sensor_id == "sensor-001":
                assert isinstance(outcome, crash)
            else:
                assert outcome.sequence == request.sequence

    def test_failed_connect_fails_its_stream_only(self, model_900, tape,
                                                  monkeypatch):
        """A stream whose handshake fails owes GatewayError for every
        request; the other streams are still served."""
        from repro.gateway.client import WebSocketClient

        connect = WebSocketClient.connect

        async def flaky(host, port, token=None, **kwargs):
            if token == "bench-token-001":
                raise ConnectionRefusedError("refused")
            return await connect(host, port, token=token, **kwargs)

        monkeypatch.setattr(WebSocketClient, "connect", flaky)
        service = InferenceService(model_factory=lambda config: model_900)
        outcomes, _, _ = asyncio.run(run_gateway_load(service, tape))
        for request, outcome in zip(tape, outcomes):
            if request.sensor_id == "sensor-001":
                assert isinstance(outcome, GatewayError)
            else:
                assert outcome.sequence == request.sequence

    def test_transport_validation(self):
        with pytest.raises(ServeError):
            run_benchmark(LoadProfile(), transport="carrier-pigeon")
        with pytest.raises(ServeError):
            run_benchmark(LoadProfile(shards=2), transport="gateway")
        with pytest.raises(ServeError):
            LoadProfile(shards=0)
