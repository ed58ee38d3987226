"""Tests for the event-driven online serving engine, open- and closed-loop."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import warnings

import pytest

from repro.datasets.batching import sorted_batches
from repro.datasets.length_distributions import sample_lengths
from repro.hardware.accelerator import build_sparse_accelerator
from repro.scheduling.baselines import PaddedScheduler
from repro.scheduling.length_aware import LengthAwareScheduler
from repro.serving import (
    ClosedLoopArrivals,
    FixedSizeBatcher,
    LeastLoadedRouter,
    LengthBucketedBatcher,
    LengthShardedRouter,
    PoissonArrivals,
    RoundRobinRouter,
    TimeoutBatcher,
    TraceArrivals,
    simulate_online,
)
from repro.serving.core import ServingSession
from repro.transformer.configs import DATASET_ZOO, MRPC, RTE, ModelConfig


@contextlib.contextmanager
def warnings_none():
    """Assert the block emits no warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


_SMALL_MODEL = ModelConfig(name="serve-2L", num_layers=2, hidden_dim=768, num_heads=12)


def _build(dataset):
    return build_sparse_accelerator(
        _SMALL_MODEL, top_k=30, avg_seq=dataset.avg_length, max_seq=dataset.max_length
    )


@pytest.fixture(scope="module")
def accelerator():
    return _build(MRPC)


def _drain(accelerator, dataset, num_requests, scheduler=None, sort_by_length=True):
    """Closed-loop batch drain: every request queued at t=0, fixed batches of 16."""
    return simulate_online(
        accelerator,
        dataset,
        ClosedLoopArrivals(sort_by_length=sort_by_length),
        num_requests=num_requests,
        batch_policy=FixedSizeBatcher(batch_size=16),
        scheduler=scheduler,
    )


@pytest.fixture(scope="module")
def capacity_qps(accelerator):
    """Closed-loop drain rate of the single-device setup (sequences/second)."""
    return _drain(accelerator, MRPC, 64).sustained_qps


class TestEngineBasics:
    def test_every_request_is_served_exactly_once(self, accelerator):
        report = simulate_online(
            accelerator, MRPC, PoissonArrivals(rate_qps=300), num_requests=48
        )
        assert report.num_requests == 48
        assert sorted(r.request.request_id for r in report.records) == list(range(48))
        assert sum(len(b.request_ids) for b in report.batches) == 48

    def test_timestamps_are_causally_ordered(self, accelerator):
        report = simulate_online(
            accelerator,
            MRPC,
            PoissonArrivals(rate_qps=300),
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.01),
        )
        for record in report.records:
            assert record.request.arrival_time <= record.dispatch_time
            assert record.dispatch_time <= record.start_time
            assert record.start_time < record.completion_time
            assert record.latency > 0

    def test_deterministic_given_seed(self, accelerator):
        kwargs = dict(num_requests=48, batch_policy=TimeoutBatcher(16, timeout_s=0.01))
        a = simulate_online(accelerator, MRPC, PoissonArrivals(400), seed=9, **kwargs)
        b = simulate_online(accelerator, MRPC, PoissonArrivals(400), seed=9, **kwargs)
        assert a.latencies_seconds == b.latencies_seconds
        assert [x.device_index for x in a.records] == [x.device_index for x in b.records]

    def test_seed_changes_the_run(self, accelerator):
        a = simulate_online(accelerator, MRPC, PoissonArrivals(400), num_requests=48, seed=9)
        b = simulate_online(accelerator, MRPC, PoissonArrivals(400), num_requests=48, seed=10)
        assert a.latencies_seconds != b.latencies_seconds

    def test_queue_depth_timeline_and_summaries(self, accelerator):
        report = simulate_online(
            accelerator, MRPC, PoissonArrivals(rate_qps=500), num_requests=48
        )
        times = [t for t, _ in report.queue_depth_timeline]
        assert times == sorted(times)
        assert report.max_queue_depth >= 1
        assert 0.0 < report.average_device_utilization <= 1.0
        assert report.devices[0].num_requests == 48

    def test_rejects_empty_fleet_and_empty_stream(self, accelerator):
        with pytest.raises(ValueError):
            simulate_online([], MRPC, PoissonArrivals(100), num_requests=8)
        with pytest.raises(ValueError):
            simulate_online(accelerator, MRPC, [], num_requests=0)

    def test_generative_process_requires_num_requests(self, accelerator):
        with pytest.raises(ValueError, match="num_requests"):
            simulate_online(accelerator, MRPC, PoissonArrivals(100))

    def test_trace_replays_in_full_by_default(self, accelerator):
        trace = TraceArrivals(trace=tuple(i * 0.01 for i in range(20)))
        report = simulate_online(accelerator, MRPC, trace)
        assert report.num_requests == 20

    def test_reused_round_robin_router_is_deterministic(self):
        fleet = [_build(MRPC), _build(MRPC)]
        router = RoundRobinRouter()
        kwargs = dict(
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
            router=router,
            seed=9,
        )
        a = simulate_online(fleet, MRPC, PoissonArrivals(400), **kwargs)
        b = simulate_online(fleet, MRPC, PoissonArrivals(400), **kwargs)
        assert [r.device_index for r in a.records] == [r.device_index for r in b.records]

    def test_length_sharded_fifo_pairing_warns(self):
        fleet = [_build(MRPC), _build(MRPC)]
        with pytest.warns(UserWarning, match="length-sharded"):
            simulate_online(
                fleet,
                MRPC,
                PoissonArrivals(300),
                num_requests=32,
                batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
                router=LengthShardedRouter(),
            )
        # The supported pairing is silent and uses more than one shard.
        with warnings_none():
            report = simulate_online(
                fleet,
                MRPC,
                PoissonArrivals(300),
                num_requests=64,
                batch_policy=LengthBucketedBatcher(batch_size=16, timeout_s=0.01, num_buckets=2),
                router=LengthShardedRouter(),
            )
        assert sum(1 for device in report.devices if device.num_batches > 0) == 2


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("dataset_key", sorted(DATASET_ZOO))
    def test_matches_legacy_batch_drain_on_every_dataset(self, dataset_key):
        """Acceptance: closed-loop throughput within 1% of the legacy formula."""
        dataset = DATASET_ZOO[dataset_key]
        accelerator = _build(dataset)
        # The legacy implementation, restated independently: globally sorted
        # batches drained back to back.
        scheduler = LengthAwareScheduler()
        lengths = [int(x) for x in sample_lengths(dataset, 64, seed=2022)]
        batches = sorted_batches(lengths, batch_size=16)
        legacy_seconds = sum(
            scheduler.schedule(accelerator, batch).makespan_seconds for batch in batches
        )
        legacy_qps = 64 / legacy_seconds

        assert _drain(accelerator, dataset, 64).sustained_qps == pytest.approx(
            legacy_qps, rel=0.01
        )

    @pytest.mark.parametrize("num_requests, num_batches", [(48, 3), (50, 4)])
    def test_drain_serves_every_request_once(self, accelerator, num_requests, num_batches):
        report = _drain(accelerator, MRPC, num_requests)
        assert sorted(r.request.request_id for r in report.records) == list(range(num_requests))
        assert len(report.batches) == num_batches
        assert report.sustained_qps > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50) > 0

    @pytest.mark.parametrize("dataset", [RTE, MRPC], ids=lambda d: d.name)
    def test_length_aware_beats_padded_throughput(self, dataset):
        accelerator = _build(dataset)
        ours = _drain(accelerator, dataset, 64)
        padded = _drain(accelerator, dataset, 64, scheduler=PaddedScheduler())
        assert ours.sustained_qps > padded.sustained_qps

    @pytest.mark.parametrize("scheduler", [None, PaddedScheduler()], ids=["ours", "padded"])
    def test_global_length_sort_helps_or_ties(self, scheduler):
        accelerator = _build(RTE)
        bucketed = _drain(accelerator, RTE, 64, scheduler, sort_by_length=True)
        unbucketed = _drain(accelerator, RTE, 64, scheduler, sort_by_length=False)
        assert bucketed.sustained_qps >= 0.95 * unbucketed.sustained_qps

    @pytest.mark.parametrize("dataset", [RTE, MRPC], ids=lambda d: d.name)
    def test_stage_utilization_stays_high(self, dataset):
        report = _drain(_build(dataset), dataset, 64)
        assert report.average_pipeline_utilization > 0.9

    @pytest.mark.parametrize("sort_by_length", [True, False])
    def test_drain_rejects_zero_requests(self, accelerator, sort_by_length):
        with pytest.raises(ValueError, match="num_requests"):
            _drain(accelerator, MRPC, 0, sort_by_length=sort_by_length)

    @pytest.mark.parametrize("scheduler", [None, PaddedScheduler()], ids=["ours", "padded"])
    def test_throughput_and_latency_are_positive(self, accelerator, scheduler):
        report = _drain(accelerator, MRPC, 32, scheduler)
        assert report.sustained_qps > 0
        assert report.latency_percentile(50) > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50)
        # Every request is queued at t=0, so the slowest one ends the drain.
        assert report.latency_percentile(100) == pytest.approx(report.makespan_seconds)

    def test_summary_row_fields(self, accelerator):
        report = _drain(accelerator, MRPC, 32)
        row = report.as_row()
        assert {"sustained_qps", "p50_ms", "p99_ms"} <= set(row)
        assert row["requests"] == 32
        assert row["sustained_qps"] == round(report.sustained_qps, 1)
        assert row["p99_ms"] >= row["p50_ms"] > 0


class TestOpenLoopBehaviour:
    def test_p99_latency_rises_with_offered_load(self, accelerator, capacity_qps):
        p99s = []
        for fraction in (0.2, 0.6, 1.5):
            report = simulate_online(
                accelerator,
                MRPC,
                PoissonArrivals(rate_qps=fraction * capacity_qps),
                num_requests=96,
                batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
            )
            p99s.append(report.latency_percentile(99))
        assert p99s[0] < p99s[1] < p99s[2]

    def test_overload_diverges(self, accelerator, capacity_qps):
        def p99_at(fraction, n):
            return simulate_online(
                accelerator,
                MRPC,
                PoissonArrivals(rate_qps=fraction * capacity_qps),
                num_requests=n,
                batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
            ).latency_percentile(99)

        # Past saturation the tail keeps growing with the stream length
        # (queues build without bound); below saturation it stays put.
        assert p99_at(2.0, 192) > 1.5 * p99_at(2.0, 48)
        assert p99_at(0.2, 192) < 1.5 * p99_at(0.2, 48)

    def test_second_accelerator_increases_sustained_throughput(self, capacity_qps):
        one = _build(MRPC)
        two = [_build(MRPC), _build(MRPC)]
        load = PoissonArrivals(rate_qps=1.6 * capacity_qps)
        kwargs = dict(
            num_requests=96, batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005)
        )
        single = simulate_online(one, MRPC, load, **kwargs)
        fleet = simulate_online(two, MRPC, load, router=LeastLoadedRouter(), **kwargs)
        assert fleet.sustained_qps > single.sustained_qps
        assert fleet.latency_percentile(99) < single.latency_percentile(99)

    def test_round_robin_and_least_loaded_use_all_devices(self, capacity_qps):
        fleet = [_build(MRPC), _build(MRPC)]
        for router in (RoundRobinRouter(), LeastLoadedRouter()):
            report = simulate_online(
                fleet,
                MRPC,
                PoissonArrivals(rate_qps=capacity_qps),
                num_requests=64,
                batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
                router=router,
            )
            assert all(device.num_batches > 0 for device in report.devices)

    def test_length_bucketed_batches_have_narrow_length_bands(self, accelerator, capacity_qps):
        report = simulate_online(
            accelerator,
            MRPC,
            PoissonArrivals(rate_qps=0.8 * capacity_qps),
            num_requests=96,
            batch_policy=LengthBucketedBatcher(batch_size=16, timeout_s=0.02, num_buckets=3),
        )
        assert report.num_requests == 96
        full_batches = [b for b in report.batches if len(b.request_ids) == 16]
        band = (MRPC.max_length - MRPC.min_length) / 3
        for batch in full_batches:
            lengths = batch.execution.lengths
            assert max(lengths) - min(lengths) <= band + 1


class TestFleetNormalization:
    def test_large_fleet_builds_in_linear_time(self):
        """Regression: _as_fleet used an O(n^2) identity scan over the fleet."""
        from repro.devices import CycleAccurateDevice

        accelerator = _build(MRPC)
        scheduler = LengthAwareScheduler()
        fleet = [
            CycleAccurateDevice(accelerator, scheduler=scheduler, name=f"dev-{i}")
            for i in range(512)
        ]
        from repro.serving.core import _as_fleet

        import time

        start = time.perf_counter()
        normalized = _as_fleet(fleet, None)
        elapsed = time.perf_counter() - start
        assert len(normalized) == 512
        # The old quadratic scan took ~0.5s at this size; the id()-set is
        # effectively instant.  Generous bound to stay CI-safe.
        assert elapsed < 0.25

    def test_duplicate_device_instance_still_rejected(self):
        from repro.devices import CycleAccurateDevice

        device = CycleAccurateDevice(_build(MRPC), scheduler=LengthAwareScheduler())
        with pytest.raises(ValueError, match="appears twice"):
            simulate_online(
                [device, device],
                MRPC,
                ClosedLoopArrivals(),
                num_requests=8,
                batch_policy=FixedSizeBatcher(batch_size=4),
            )


class TestScheduleCacheReporting:
    def test_simulate_online_reports_cache_hit_rate(self, accelerator):
        report = simulate_online(
            accelerator,
            MRPC,
            ClosedLoopArrivals(sort_by_length=True),
            num_requests=64,
            batch_policy=FixedSizeBatcher(batch_size=8),
        )
        cache = report.schedule_cache
        assert cache is not None
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        payload = report.to_dict()
        assert payload["schedule_cache"] == cache
        assert all("schedule_cache" in device for device in payload["devices"])
        assert "cache_hit" in report.as_row()

    def test_a_run_without_a_journal_keeps_no_per_lookup_record(self, accelerator):
        """Only an open cache journal records lookups: after a plain run, no
        container on the devices or the cache grows with the lookup count."""
        from repro.devices import CycleAccurateDevice, ScheduleCache
        from repro.serving import Request

        cache = ScheduleCache()
        fleet = [
            CycleAccurateDevice(accelerator, name=f"dev-{i}", schedule_cache=cache)
            for i in range(2)
        ]
        # One length, so one key and one stage row however many lookups.
        requests = [Request(request_id=i, length=40, arrival_time=1e-3 * i) for i in range(128)]
        report = simulate_online(
            fleet, MRPC, requests, batch_policy=FixedSizeBatcher(batch_size=8)
        )
        lookups = report.schedule_cache["hits"] + report.schedule_cache["misses"]
        assert lookups == 16 and cache._journal is None

        def sized(obj) -> dict:
            return {
                name: len(value)
                for name, value in vars(obj).items()
                if isinstance(value, (list, tuple, dict, set))
            }

        assert all(size <= 1 for size in sized(cache).values()), sized(cache)
        for device in fleet:
            own = device.cache_hits + device.cache_misses
            assert own == 8
            assert all(size < own for size in sized(device).values()), sized(device)

    def test_cache_disabled_reports_none(self, accelerator, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        report = simulate_online(
            accelerator,
            MRPC,
            ClosedLoopArrivals(),
            num_requests=16,
            batch_policy=FixedSizeBatcher(batch_size=8),
        )
        assert report.schedule_cache is None
        assert "cache_hit" not in report.as_row()


class TestReportMemo:
    def test_makespan_follows_appended_records(self, accelerator):
        report = simulate_online(
            accelerator, MRPC, PoissonArrivals(rate_qps=300), num_requests=48
        )
        makespan = report.makespan_seconds
        assert report.to_dict()["makespan_seconds"] == makespan
        assert makespan == max(r.completion_time for r in report.records)
        last = report.records[-1]
        later = dataclasses.replace(last.request, request_id=48)
        ledger = report.ledger
        row = ledger.add_batch(last.dispatch_time, last.start_time, 0, last.batch_id + 1)
        ledger.extend(row, [later], [makespan + 1.0])
        # The memos key on the ledger's version: a growing report (the live
        # gateway's mid-run /stats) never serves a stale value, nor a stale view.
        assert report.makespan_seconds == makespan + 1.0
        assert report.to_dict()["makespan_seconds"] == makespan + 1.0
        assert report.records[-1].request is later
        assert report.records[-1].completion_time == makespan + 1.0

    def test_to_dict_unchanged_across_finish(self, accelerator, monkeypatch):
        def run():
            return simulate_online(
                accelerator,
                MRPC,
                PoissonArrivals(rate_qps=500),
                num_requests=64,
                batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.005),
            )

        # Both runs must start cold: a warm shared cache changes hit counts.
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        untouched = run().to_dict()
        snapshots = []
        finish = ServingSession.finish

        def snapshot_then_finish(session):
            session.refresh()  # what the live /stats path reads mid-run
            snapshots.append(session.report.to_dict())
            finish(session)

        monkeypatch.setattr(ServingSession, "finish", snapshot_then_finish)
        report = run()
        # finish() re-sorts the ledger rows: order-free values carry over,
        # and the final payload is exactly the one a report never read
        # before finish() produces.
        assert snapshots[0]["makespan_seconds"] == report.makespan_seconds
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            untouched, sort_keys=True
        )
