"""Shared schedule cache: correctness, sharing, quantization, and reporting."""

from __future__ import annotations

import hashlib
import pickle
import threading

import numpy as np
import pytest

from repro.devices import CycleAccurateDevice, ScheduleCache, build_device
from repro.devices.schedule_cache import (
    GLOBAL_SCHEDULE_CACHE,
    quantize_lengths,
    schedule_cache_enabled,
)
from repro.hardware.accelerator import build_sparse_accelerator
from repro.scheduling.baselines import PaddedScheduler
from repro.scheduling.length_aware import LengthAwareScheduler
from repro.transformer.configs import ModelConfig

_MODEL = ModelConfig(name="cache-2L", num_layers=2, hidden_dim=768, num_heads=12)


@pytest.fixture(scope="module")
def accelerator():
    return build_sparse_accelerator(_MODEL, top_k=30, avg_seq=64, max_seq=128)


def _device(accelerator, **kwargs) -> CycleAccurateDevice:
    kwargs.setdefault("schedule_cache", ScheduleCache())
    return CycleAccurateDevice(accelerator, scheduler=LengthAwareScheduler(), **kwargs)


def _execution_fields(execution) -> tuple:
    return (
        execution.latency_seconds,
        execution.admit_seconds,
        execution.utilization,
        execution.energy_joules,
        tuple(execution.completion_offsets),
        tuple(execution.lengths),
    )


class TestCacheCorrectness:
    def test_cache_off_matches_cached_exactly(self, accelerator, monkeypatch):
        """Quantization off => cached results identical to uncached re-simulation."""
        rng = np.random.default_rng(3)
        batches = [
            [int(x) for x in rng.integers(16, 129, size=int(rng.integers(1, 7)))]
            for _ in range(12)
        ]
        batches += [list(reversed(batches[0])), sorted(batches[1]), batches[2]]

        cached_device = _device(accelerator)
        cached = [_execution_fields(cached_device.execute(batch)) for batch in batches]
        assert cached_device.cache_hits > 0  # permutations / repeats shared

        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        assert not schedule_cache_enabled()
        uncached_device = _device(accelerator)
        uncached = [_execution_fields(uncached_device.execute(batch)) for batch in batches]
        assert uncached_device.cache_hits == 0
        assert uncached_device.schedule_cache_stats() is None

        assert cached == uncached

    def test_permutations_share_one_entry(self, accelerator):
        cache = ScheduleCache()
        device = _device(accelerator, schedule_cache=cache)
        device.execute([100, 40, 70])
        device.execute([40, 70, 100])
        device.execute([70, 100, 40])
        assert len(cache) == 1
        assert device.cache_hits == 2

    def test_identical_designs_share_but_different_designs_do_not(self):
        acc_a = build_sparse_accelerator(_MODEL, top_k=30, avg_seq=64, max_seq=128)
        acc_b = build_sparse_accelerator(_MODEL, top_k=30, avg_seq=64, max_seq=128)
        acc_other = build_sparse_accelerator(_MODEL, top_k=16, avg_seq=64, max_seq=128)
        cache = ScheduleCache()
        first = CycleAccurateDevice(acc_a, name="a", schedule_cache=cache)
        twin = CycleAccurateDevice(acc_b, name="b", schedule_cache=cache)
        other = CycleAccurateDevice(acc_other, name="c", schedule_cache=cache)
        first.execute([90, 60])
        twin.execute([90, 60])
        assert twin.cache_hits == 1  # value-identical design shares
        other.execute([90, 60])
        assert other.cache_hits == 0  # different top_k => different latencies
        assert len(cache) == 2

    def test_different_schedulers_never_collide(self, accelerator):
        cache = ScheduleCache()
        aware = CycleAccurateDevice(
            accelerator, scheduler=LengthAwareScheduler(), schedule_cache=cache
        )
        padded = CycleAccurateDevice(
            accelerator, scheduler=PaddedScheduler(), schedule_cache=cache
        )
        a = aware.execute([100, 40])
        b = padded.execute([100, 40])
        assert padded.cache_hits == 0
        assert b.latency_seconds >= a.latency_seconds  # padding can't be faster

    def test_plugin_scheduler_without_value_repr_never_shares(self, accelerator):
        """Address-based reprs must not key the shared cache (stale-hit risk)."""

        class Plugin:
            name = "plugin"

            def __init__(self, factor):
                self.factor = factor

            def schedule(self, acc, lengths):
                return LengthAwareScheduler().schedule(acc, lengths)

        cache = ScheduleCache()
        first = CycleAccurateDevice(accelerator, scheduler=Plugin(1), schedule_cache=cache)
        second = CycleAccurateDevice(accelerator, scheduler=Plugin(2), schedule_cache=cache)
        first.execute([60, 40])
        second.execute([60, 40])
        assert second.cache_hits == 0
        assert len(cache) == 2
        # Same device re-probing its own key still hits.
        first.execute([60, 40])
        assert first.cache_hits == 1

    def test_padded_scheduler_offsets_follow_call_order(self, accelerator):
        device = CycleAccurateDevice(
            accelerator, scheduler=PaddedScheduler(), schedule_cache=ScheduleCache()
        )
        first = device.execute([40, 100])
        second = device.execute([100, 40])
        assert device.cache_hits == 1
        # Uniform billing: completion offsets depend on the slot, not the length.
        assert first.completion_offsets == second.completion_offsets


class TestQuantization:
    def test_quantize_lengths_rounds_up(self):
        assert quantize_lengths((1, 16, 17, 33), 16) == (16, 16, 32, 48)
        assert quantize_lengths((5, 7), 1) == (5, 7)
        with pytest.raises(ValueError):
            quantize_lengths((5,), 0)

    def test_bucketed_lengths_share_and_stay_conservative(self, accelerator):
        exact = _device(accelerator)
        bucketed = _device(accelerator, cache_length_bucket=16)
        a = bucketed.execute([50, 60])
        b = bucketed.execute([54, 52])  # same buckets (64, 64)
        assert bucketed.cache_hits == 1
        assert a.latency_seconds == b.latency_seconds
        # Rounding up never undercharges relative to exact billing.
        assert a.latency_seconds >= exact.execute([50, 60]).latency_seconds

    def test_invalid_bucket_rejected(self, accelerator):
        with pytest.raises(ValueError, match="cache_length_bucket"):
            CycleAccurateDevice(accelerator, cache_length_bucket=0)

    def test_quantization_never_rounds_past_a_fixed_pad_target(self, accelerator):
        """Regression: 115 -> 128 > pad_to=120 crashed the padded scheduler."""
        device = CycleAccurateDevice(
            accelerator,
            scheduler=PaddedScheduler(pad_to=120),
            cache_length_bucket=16,
            schedule_cache=ScheduleCache(),
        )
        execution = device.execute([115])
        assert execution.latency_seconds > 0
        # Lengths beyond pad_to still fail exactly like the unquantized call.
        with pytest.raises(ValueError, match="pad_to"):
            device.execute([121])


class TestCacheMechanics:
    def test_lru_eviction_caps_entries(self, accelerator):
        cache = ScheduleCache(max_entries=2)
        device = _device(accelerator, schedule_cache=cache)
        device.execute([10])
        device.execute([20])
        device.execute([30])
        assert len(cache) == 2
        device.execute([10])  # evicted -> simulated again
        assert device.cache_misses == 4

    def test_stats_and_describe(self, accelerator):
        cache = ScheduleCache()
        device = _device(accelerator, schedule_cache=cache)
        device.execute([80, 40])
        device.execute([40, 80])
        stats = device.schedule_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        description = device.describe()
        assert description["schedule_cache"]["hits"] == 1
        assert description["schedule_cache"]["shared"]["entries"] == 1

    def test_reset_clears_run_counters_not_shared_entries(self, accelerator):
        cache = ScheduleCache()
        device = _device(accelerator, schedule_cache=cache)
        device.execute([80, 40])
        device.reset()
        assert device.cache_hits == 0 and device.cache_misses == 0
        assert len(cache) == 1  # shared entries survive across runs
        device.execute([80, 40])
        assert device.cache_hits == 1


class TestJournal:
    """An open journal records every key the cache is asked for, in LRU order."""

    def test_records_lookups_and_counted_twin_runs_in_order(self):
        cache = ScheduleCache()
        cache.store("a", 1)
        with cache.journal() as keys:
            cache.lookup("a")
            cache.lookup("b")
            cache.count_hits(["a", "b"], 2)
            cache.lookup("a")
        assert keys == ["a", "b", "a", "b", "a", "b", "a"]
        assert (cache.hits, cache.misses) == (6, 1)

    def test_closed_journal_records_nothing(self):
        cache = ScheduleCache()
        with cache.journal() as keys:
            cache.lookup("a")
        cache.lookup("b")
        cache.count_hits(["b"], 3)
        assert keys == ["a"]
        assert cache._journal is None

    def test_one_journal_at_a_time_and_closed_on_error(self):
        cache = ScheduleCache()
        with pytest.raises(RuntimeError, match="already open"):
            with cache.journal():
                with cache.journal():
                    pass
        assert cache._journal is None
        with cache.journal() as keys:
            cache.lookup("a")
        assert keys == ["a"]

    @pytest.mark.parametrize(
        "spec, knobs",
        [
            ("sparse-fpga", {}),
            ("sparse-fpga", {"cache_length_bucket": 16}),
            ("baseline-fpga", {}),
        ],
    )
    def test_digests_name_keys_one_to_one(self, spec, knobs):
        """The sweep's digests are ``blake2b(repr(key))``, one per distinct key."""
        from types import SimpleNamespace

        from repro.evaluation.serving_sweep import _probe_digests

        device = build_device(spec, model="bert-base", dataset="mrpc", **knobs)
        device._schedule_cache = ScheduleCache()
        batches = ([57], [40, 40, 40], [100, 57, 57, 23], [23, 100, 57], [90, 31, 18, 64, 77])
        with device._schedule_cache.journal() as keys:
            for batch in batches:
                device.execute(batch)
        report = SimpleNamespace(schedule_cache=device.schedule_cache_stats())
        digests = _probe_digests(report, keys)
        assert len(digests) == len(keys) == len(batches)
        for key, digest in zip(keys, digests):
            assert digest == hashlib.blake2b(repr(key).encode(), digest_size=12).hexdigest()
        assert len(set(digests)) == len(set(keys)) == len(device._schedule_cache)
        assert _probe_digests(SimpleNamespace(schedule_cache=None), keys) is None


class TestInProcessOnly:
    """The cache lives in one process: it reads and writes no files."""

    def test_leftover_cache_dir_variable_is_ignored(self, accelerator, monkeypatch, tmp_path):
        batches = [[64, 48, 128], [32], [128, 64, 48]]
        monkeypatch.delenv("REPRO_SCHEDULE_CACHE_DIR", raising=False)
        expected = [_execution_fields(_device(accelerator).execute(b)) for b in batches]

        stale = tmp_path / "stale-cache"
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE_DIR", str(stale))
        device = _device(accelerator)
        device.reset()
        assert [_execution_fields(device.execute(b)) for b in batches] == expected
        assert (device.cache_hits, device.cache_misses) == (1, 2)
        assert not stale.exists()

    def test_reset_leaves_an_old_snapshot_unread(self, accelerator, monkeypatch, tmp_path):
        snapshot = tmp_path / "schedule-cache-1.pkl"
        snapshot.write_bytes(pickle.dumps([]))
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE_DIR", str(tmp_path))
        before = len(GLOBAL_SCHEDULE_CACHE)
        CycleAccurateDevice(accelerator, scheduler=LengthAwareScheduler()).reset()
        assert len(GLOBAL_SCHEDULE_CACHE) == before
        assert list(tmp_path.iterdir()) == [snapshot]
        assert pickle.loads(snapshot.read_bytes()) == []

    def test_every_hit_carries_the_offsets(self, accelerator):
        device = _device(accelerator)
        miss = device.execute([64, 48])
        hit = device.execute([48, 64])
        assert (device.cache_hits, device.cache_misses) == (1, 1)
        assert hit.latency_seconds == miss.latency_seconds
        assert hit.completion_offsets == miss.completion_offsets[::-1]


class TestEvictionAccounting:
    def test_num_evictions_counter(self):
        cache = ScheduleCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.num_evictions == 0
        cache.store("c", 3)
        assert cache.num_evictions == 1
        assert cache.stats()["num_evictions"] == 1
        cache.clear()
        assert cache.num_evictions == 0

    @pytest.mark.parametrize("read", ["stats", "hit_rate"])
    def test_counter_reads_wait_for_the_lock(self, read):
        """``stats()`` / ``hit_rate`` read the counters in one lock hold, so
        a lookup in flight on another thread cannot tear the snapshot."""
        cache = ScheduleCache()
        cache.store("a", 1)
        results = []
        readers = {"stats": cache.stats, "hit_rate": lambda: cache.hit_rate}
        with cache._lock:  # a lookup, store or counted twin hit in flight
            reader = threading.Thread(target=lambda: results.append(readers[read]()))
            reader.start()
            reader.join(timeout=0.05)
            assert reader.is_alive() and not results
            cache.hits += 1
        reader.join()
        assert results == [{**cache.stats(), "hit_rate": 1.0} if read == "stats" else 1.0]

    def test_journal_recorded_in_order(self, accelerator):
        cache = ScheduleCache()
        device = _device(accelerator, schedule_cache=cache)
        with cache.journal() as keys:
            device.execute([80, 40])
            device.execute([40, 80])
            device.execute([32])
        assert len(keys) == device.cache_hits + device.cache_misses == 3
        assert keys[0] == keys[1] != keys[2]  # permutation shares a key

    def test_replay_is_exact_past_capacity(self):
        """Sequence replay must count re-misses after eviction; set replay can't."""
        from types import SimpleNamespace

        from repro.evaluation.serving_sweep import _replay_cache_accounting

        # Stream A B C A against a 2-entry LRU: storing C evicts A, so the
        # second A probe is a miss again (4 misses, 2 evictions, 0 hits).
        probes = ["A", "B", "C", "A"]
        point = SimpleNamespace(cache_stats=None)
        result = SimpleNamespace(points=[point], schedule_cache=None)
        _replay_cache_accounting(result, [], [probes], max_entries=2)
        assert point.cache_stats == {
            "hits": 0,
            "misses": 4,
            "hit_rate": 0.0,
            "num_evictions": 2,
        }
        assert result.schedule_cache == {
            "hits": 0,
            "misses": 4,
            "hit_rate": 0.0,
            "num_evictions": 2,
        }

    def test_replay_matches_live_cache_counters(self, accelerator):
        """Replaying a run's journal reproduces the live hit/miss split."""
        from types import SimpleNamespace

        from repro.evaluation.serving_sweep import _probe_digests, _replay_cache_accounting

        cache = ScheduleCache(max_entries=2)
        device = _device(accelerator, schedule_cache=cache)
        with cache.journal() as keys:
            for batch in ([10], [20], [30], [10], [30], [20]):
                device.execute(batch)
        probes = _probe_digests(SimpleNamespace(schedule_cache=device.schedule_cache_stats()), keys)
        point = SimpleNamespace(cache_stats=None)
        result = SimpleNamespace(points=[point], schedule_cache=None)
        _replay_cache_accounting(result, [], [probes], max_entries=2)
        assert point.cache_stats["hits"] == device.cache_hits
        assert point.cache_stats["misses"] == device.cache_misses
        assert point.cache_stats.get("num_evictions", 0) == cache.num_evictions
