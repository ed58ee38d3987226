"""The HTTP front end: ingest, health, stats, backpressure, shutdown."""

from __future__ import annotations

import asyncio

from repro.devices import BatchExecution, Device
from repro.live import LiveGateway, LiveServer, http_json, stream_trace
from repro.serving import FixedSizeBatcher


class FakeDevice(Device):
    name = "fake"
    backend = "fake"

    def __init__(self, latency=0.02, **kwargs):
        self.latency = latency
        super().__init__(**kwargs)

    def execute(self, lengths):
        return BatchExecution(
            device=self.name,
            lengths=list(lengths),
            latency_seconds=self.latency,
            completion_offsets=[self.latency] * len(lengths),
            admit_seconds=self.latency,
        )


async def _server(**gateway_kwargs) -> LiveServer:
    gateway_kwargs.setdefault("batch_policy", FixedSizeBatcher(batch_size=2))
    latency = gateway_kwargs.pop("latency", 0.02)
    gateway = LiveGateway([FakeDevice(latency=latency)], "mrpc", **gateway_kwargs)
    server = LiveServer(gateway, host="127.0.0.1", port=0)
    await server.start()
    return server


class TestEndpoints:
    def test_healthz_stats_and_waited_request(self):
        # batch_size=2 holds a lone request until the batch fills, so drive
        # two concurrent waited requests: both unblock when the batch runs.
        async def scenario():
            server = await _server()
            host, port = server.host, server.port
            status, health = await http_json(host, port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["devices"] == 1

            results = await asyncio.gather(
                http_json(host, port, "POST", "/v1/requests", {"length": 48, "wait": True}),
                http_json(host, port, "POST", "/v1/requests", {"length": 48, "wait": True}),
            )
            for status, payload in results:
                assert status == 200
                assert payload["status"] == "completed"
                assert payload["latency_ms"] > 0
            status, stats = await http_json(host, port, "GET", "/stats")
            assert status == 200
            assert stats["num_completed"] == 2
            assert stats["live"]["queue_depth"] == 0
            status, final = await http_json(host, port, "POST", "/shutdown")
            assert status == 200
            assert final["num_completed"] == 2
            assert final["live"]["stopped"] is True
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_streaming_ingest(self):
        async def scenario():
            server = await _server(batch_policy=FixedSizeBatcher(batch_size=4))
            host, port = server.host, server.port
            entries = [{"length": 32} for _ in range(8)]
            summary = await stream_trace(host, port, entries)
            assert summary == {"submitted": 8, "queued": 8, "shed": 0, "draining": 0}
            status, final = await http_json(host, port, "POST", "/shutdown")
            assert final["num_completed"] == 8
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_backpressure_returns_429(self):
        async def scenario():
            server = await _server(
                batch_policy=FixedSizeBatcher(batch_size=16),
                max_queue_depth=2,
                latency=0.2,
            )
            host, port = server.host, server.port
            statuses = []
            for _ in range(6):
                status, payload = await http_json(
                    host, port, "POST", "/v1/requests", {"length": 32}
                )
                statuses.append((status, payload["status"]))
            await http_json(host, port, "POST", "/shutdown")
            await server.serve_until_shutdown()
            return statuses

        statuses = asyncio.run(scenario())
        assert statuses.count((200, "queued")) == 2
        assert statuses.count((429, "shed")) == 4

    def test_bad_request_fields_are_400(self):
        """Malformed fields get a 400 naming the field; the server keeps serving."""
        bad_bodies = [
            ({"length": 8, "output_len": "x"}, "output_len"),
            ({"length": 8, "output_len": 0}, "output_len"),
            ({"length": 8, "output_len": 2.5}, "output_len"),
            ({"length": 8, "slo_ms": "abc"}, "slo_ms"),
            ({"length": 8, "slo_ms": float("nan")}, "slo_ms"),
            ({"length": 8, "slo_ms": float("inf")}, "slo_ms"),
            ({"length": 8, "slo_ms": -1.0}, "slo_ms"),
            ({"length": float("inf")}, "length"),
        ]

        async def scenario():
            server = await _server(batch_policy=FixedSizeBatcher(batch_size=1))
            host, port = server.host, server.port
            replies = [
                await http_json(host, port, "POST", "/v1/requests", body)
                for body, _ in bad_bodies
            ]
            good = await http_json(
                host, port, "POST", "/v1/requests", {"length": 8, "slo_ms": 500, "wait": True}
            )
            _, final = await http_json(host, port, "POST", "/shutdown")
            await server.serve_until_shutdown()
            return replies, good, final

        replies, good, final = asyncio.run(scenario())
        for (status, payload), (body, field) in zip(replies, bad_bodies):
            assert status == 400, body
            assert field in payload["error"], (body, payload)
        assert good[0] == 200 and good[1]["status"] == "completed"
        assert final["num_requests"] == 1

    def test_draining_returns_503_and_errors_are_4xx(self):
        async def scenario():
            server = await _server()
            host, port = server.host, server.port
            status, _ = await http_json(host, port, "GET", "/nope")
            assert status == 404
            status, _ = await http_json(host, port, "DELETE", "/stats")
            assert status == 405
            status, payload = await http_json(host, port, "POST", "/v1/requests", {})
            assert status == 400 and "length" in payload["error"]
            status, _ = await http_json(
                host, port, "POST", "/v1/requests", {"length": "not-a-number"}
            )
            assert status == 400

            shutdown = asyncio.create_task(http_json(host, port, "POST", "/shutdown"))
            await asyncio.sleep(0.01)
            status, payload = await http_json(
                host, port, "POST", "/v1/requests", {"length": 32}
            )
            assert (status, payload["status"]) == (503, "draining")
            status, health = await http_json(host, port, "GET", "/healthz")
            assert (status, health["status"]) == (200, "draining")
            await shutdown
            await server.serve_until_shutdown()

        asyncio.run(scenario())
