"""Live gateway behavior: dispatch, backpressure, supervision, KV accounting.

These tests drive :class:`repro.live.LiveGateway` directly (no HTTP) with a
deterministic fake device, so every timing decision is controlled by the
test rather than a catalog cost model.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.devices import BatchExecution, Device
from repro.live import LiveGateway
from repro.serving import FixedSizeBatcher, TimeoutBatcher


class FakeDevice(Device):
    """Constant-latency device with an optional decode cost model."""

    name = "fake"
    backend = "fake"

    def __init__(self, latency=0.05, decode_step=None, **kwargs):
        self.latency = latency
        self.decode_step = decode_step
        super().__init__(**kwargs)

    def execute(self, lengths):
        return BatchExecution(
            device=self.name,
            lengths=list(lengths),
            latency_seconds=self.latency,
            completion_offsets=[self.latency] * len(lengths),
            admit_seconds=self.latency,
        )

    def kv_bytes_per_token(self):
        return 1024 if self.decode_step is not None else None

    def kv_read_bandwidth(self):
        return 1e9 if self.decode_step is not None else None

    def decode_step_latency_seconds(self, context_lengths):
        if self.decode_step is None:
            raise NotImplementedError
        return self.decode_step


def run(coro):
    return asyncio.run(coro)


def _ids(stats_or_records):
    return sorted(r.request.request_id for r in stats_or_records)


class TestGatewayDispatch:
    def test_serves_submitted_requests_and_resolves_waiters(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.01)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
            )
            await gateway.start()
            results = [gateway.submit(length=32) for _ in range(8)]
            assert all(r.status == "queued" for r in results)
            records = await asyncio.gather(
                *(gateway.wait_for(r.request.request_id) for r in results)
            )
            assert sorted(r.request.request_id for r in records) == list(range(8))
            stats = await gateway.shutdown()
            assert stats["num_completed"] == 8
            assert stats["num_requests"] == 8
            assert stats["num_batches"] == 2
            assert stats["live"]["stopped"] is True
            return gateway

        gateway = run(scenario())
        assert _ids(gateway.report.records) == list(range(8))

    def test_partial_batch_flushes_on_drain(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.01)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=16),
            )
            await gateway.start()
            for _ in range(3):
                gateway.submit(length=32)
            # A fixed-size policy holds the partial batch; graceful shutdown
            # pumps with draining=True, exactly like the simulator's
            # end-of-stream flush.
            stats = await gateway.shutdown()
            assert stats["num_completed"] == 3
            assert stats["num_batches"] == 1
            return stats

        run(scenario())

    def test_wall_clock_timestamps_start_near_zero(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.01)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=1),
            )
            await gateway.start()
            await asyncio.sleep(0.05)  # startup delay the rebase must hide
            result = gateway.submit(length=32)
            assert result.request.arrival_time == pytest.approx(0.0, abs=5e-3)
            return await gateway.shutdown()

        stats = run(scenario())
        assert stats["makespan_seconds"] < 0.1

    def test_submit_after_shutdown_reports_draining(self):
        async def scenario():
            gateway = LiveGateway([FakeDevice(latency=0.01)], "mrpc")
            await gateway.start()
            shutdown = asyncio.create_task(gateway.shutdown())
            await asyncio.sleep(0)
            refused = gateway.submit(length=32)
            await shutdown
            return refused

        refused = run(scenario())
        assert refused.status == "draining"
        assert refused.request is None


class TestBackpressure:
    def test_bounded_queue_sheds_past_depth(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.5)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=16),
                max_queue_depth=4,
            )
            await gateway.start()
            verdicts = [gateway.submit(length=32).status for _ in range(10)]
            stats = await gateway.shutdown()
            return verdicts, stats

        verdicts, stats = run(scenario())
        assert verdicts.count("queued") == 4
        assert verdicts.count("shed") == 6
        assert stats["num_shed"] == 6
        assert stats["num_completed"] == 4

    def test_predicted_miss_shedding_at_arrival(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.5)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
                shed_on_predicted_miss=True,
            )
            await gateway.start()
            # 1 ms budget against a 500 ms service estimate: provably late.
            doomed = gateway.submit(length=32, slo_ms=1.0)
            viable = gateway.submit(length=32, slo_ms=5000.0)
            stats = await gateway.shutdown()
            return doomed, viable, stats

        doomed, viable, stats = run(scenario())
        assert doomed.status == "shed-predicted"
        assert viable.status == "queued"
        assert stats["num_shed_predicted"] == 1
        assert stats["num_completed"] == 1


class TestSupervision:
    def test_worker_crash_requeues_batch_exactly_once(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.02)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
            )
            await gateway.start()
            gateway.actors[0].fail_next_batches = 1
            results = [gateway.submit(length=32) for _ in range(4)]
            records = await asyncio.gather(
                *(gateway.wait_for(r.request.request_id) for r in results)
            )
            stats = await gateway.shutdown()
            return gateway, records, stats

        gateway, records, stats = run(scenario())
        assert gateway.actors[0].restarts == 1
        assert stats["live"]["worker_restarts"] == [1]
        # Every request completed exactly once: requeued, never duplicated.
        assert sorted(r.request.request_id for r in records) == list(range(4))
        assert _ids(gateway.report.records) == list(range(4))
        assert stats["num_completed"] == 4

    def test_shutdown_mid_batch_requeues_exactly_once(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.4)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
            )
            await gateway.start()
            for _ in range(4):
                gateway.submit(length=32)
            # Let the batch reach the actor and start its 400 ms sleep.
            for _ in range(50):
                await asyncio.sleep(0.002)
                if gateway.actors[0].in_flight is not None:
                    break
            assert gateway.actors[0].in_flight is not None
            stats = await gateway.shutdown(abort_in_flight=True)
            return gateway, stats

        gateway, stats = run(scenario())
        # The aborted batch never finalized; its requeued requests were cut
        # into a fresh batch during the drain and recorded exactly once.
        assert stats["num_completed"] == 4
        assert _ids(gateway.report.records) == list(range(4))
        assert stats["live"]["stopped"] is True

    def test_crash_during_decode_releases_kv_reservation(self):
        async def scenario():
            device = FakeDevice(latency=0.01, decode_step=0.005, kv_cache_bytes=1 << 30)
            gateway = LiveGateway(
                [device],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=1),
            )
            await gateway.start()
            gateway.actors[0].fail_after_decode_steps = 2
            result = gateway.submit(length=32, output_len=8)
            assert result.status == "queued"
            reserved_seen = 0
            for _ in range(200):
                await asyncio.sleep(0.002)
                reserved_seen = max(reserved_seen, gateway.kv_reserved_bytes[0])
                if gateway.actors[0].restarts:
                    break
            record = await gateway.wait_for(result.request.request_id)
            stats = await gateway.shutdown()
            return gateway, reserved_seen, record, stats

        gateway, reserved_seen, record, stats = run(scenario())
        assert gateway.actors[0].restarts == 1
        # (32 prompt + 8 output) tokens * 1024 bytes were held in flight...
        assert reserved_seen == 40 * 1024
        # ...and the crash released them (the retry re-reserved, then
        # finalize released again).
        assert gateway.kv_reserved_bytes == [0]
        assert stats["live"]["kv_reserved_bytes"] == [0]
        # Decode extended the completion past prefill: 7 post-prefill tokens.
        assert record.completion_time - record.start_time == pytest.approx(
            0.01 + 7 * 0.005, abs=1e-6
        )
        assert stats["num_completed"] == 1

    def test_stats_during_flight_counts_in_flight_batches(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.2)],
                "mrpc",
                batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.005),
            )
            await gateway.start()
            gateway.submit(length=32)
            for _ in range(100):
                await asyncio.sleep(0.002)
                if gateway.actors[0].in_flight is not None:
                    break
            mid = gateway.stats()
            stats = await gateway.shutdown()
            return mid, stats

        mid, stats = run(scenario())
        assert mid["live"]["in_flight_batches"] == 1
        assert mid["num_completed"] == 0  # nothing finalizes before it finishes
        assert stats["num_completed"] == 1

    def test_stats_key_set_is_the_same_before_the_first_completion(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.01)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=1),
            )
            await gateway.start()
            before = gateway.stats()
            result = gateway.submit(length=32)
            await gateway.wait_for(result.request.request_id)
            after = gateway.stats()
            await gateway.shutdown()
            return before, after

        before, after = run(scenario())
        assert before["num_completed"] == 0 and after["num_completed"] == 1
        assert set(before) == set(after)
        assert {"num_retries", "num_limit_splits", "slo", "devices"} <= set(before)


class TestFaultRemedies:
    """Chaos semantics of the live gateway: double-crash shedding, hedging,
    and KV-cache accounting when crashes interrupt a hedged pair."""

    def test_double_crash_sheds_instead_of_looping(self):
        """Requeue-exactly-once: the first crash replays the batch, the
        second sheds its requests (waiters get the error) -- never an
        infinite supervisor loop."""

        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.02)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
            )
            await gateway.start()
            gateway.actors[0].fail_next_batches = 2
            results = [gateway.submit(length=32) for _ in range(4)]
            outcomes = await asyncio.gather(
                *(gateway.wait_for(r.request.request_id) for r in results),
                return_exceptions=True,
            )
            stats = await gateway.shutdown()
            return gateway, outcomes, stats

        gateway, outcomes, stats = run(scenario())
        assert gateway.actors[0].restarts == 2
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert stats["num_crashes"] == 2
        assert stats["num_replayed"] == 4
        assert stats["num_shed_crashed"] == 4
        assert stats["num_completed"] == 0
        assert stats["live"]["worker_restarts"] == [2]

    def test_hedged_batch_completes_exactly_once(self):
        async def scenario():
            gateway = LiveGateway(
                [FakeDevice(latency=0.05), FakeDevice(latency=0.05)],
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
                hedging=True,
            )
            await gateway.start()
            results = [gateway.submit(length=32) for _ in range(8)]
            records = await asyncio.gather(
                *(gateway.wait_for(r.request.request_id) for r in results)
            )
            stats = await gateway.shutdown()
            return gateway, records, stats

        gateway, records, stats = run(scenario())
        assert stats["num_completed"] == 8
        assert stats["num_hedged"] > 0
        # First completion won; the loser was cancelled, never finalized:
        # every request appears exactly once.
        assert _ids(gateway.report.records) == list(range(8))

    def test_crash_during_hedge_mirror_wins_and_kv_released(self):
        """A crashed primary must not strand its requests (the live mirror
        finishes them) nor leak its KV-cache reservation."""

        async def scenario():
            devices = [
                FakeDevice(latency=0.05, decode_step=0.001, kv_cache_bytes=1 << 30),
                FakeDevice(latency=0.05, decode_step=0.001, kv_cache_bytes=1 << 30),
            ]
            gateway = LiveGateway(
                devices,
                "mrpc",
                batch_policy=FixedSizeBatcher(batch_size=4),
                hedging=True,
            )
            await gateway.start()
            # Crash whichever copy device 0 picks up first; its hedge twin
            # on device 1 survives and wins the pair.
            gateway.actors[0].fail_next_batches = 1
            results = [gateway.submit(length=32) for _ in range(4)]
            records = await asyncio.gather(
                *(gateway.wait_for(r.request.request_id) for r in results)
            )
            stats = await gateway.shutdown()
            return gateway, records, stats

        gateway, records, stats = run(scenario())
        assert gateway.actors[0].restarts == 1
        assert stats["num_crashes"] == 1
        assert stats["num_completed"] == 4
        assert stats["num_hedged"] >= 1
        assert stats["num_hedge_wins"] >= 1
        # No request was shed or duplicated, and no KV bytes leaked.
        assert stats["num_shed_crashed"] == 0
        assert _ids(gateway.report.records) == list(range(4))
        assert gateway.kv_reserved_bytes == [0, 0]
        assert stats["live"]["kv_reserved_bytes"] == [0, 0]
