"""The cheap cost-model queries answer exactly what the full paths answer.

* ``batch_latency_seconds`` / ``energy_joules`` on a cycle-accurate device
  read the cached canonical schedule without building a ``BatchExecution``;
  they must agree with ``execute`` and leave the same cache accounting.
* A query whose key provably equals the cache's last hit or store replays
  that record instead of looking the key up; results, counters, probe
  stream and LRU order must equal those of the full lookups.
* ``decode_step_latency_seconds`` uses per-device roofline constants; it must
  equal the step formula written out in full, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config as global_config
from repro.devices import AnalyticalDevice, CycleAccurateDevice, ScheduleCache, build_device
from repro.hardware.accelerator import build_sparse_accelerator
from repro.platforms.devices import RTX_6000
from repro.scheduling.baselines import PaddedScheduler
from repro.scheduling.length_aware import LengthAwareScheduler
from repro.transformer.configs import ModelConfig, get_model_config

_MODEL = ModelConfig(name="queries-2L", num_layers=2, hidden_dim=768, num_heads=12)
_MAX_LENGTH = 128
_BERT = get_model_config("bert-base")


@dataclass
class _ExactScheduler:
    """A plug-in scheduler whose batches the cache may not canonicalize."""

    name: str = "exact-plugin"
    cache_canonicalization = "exact"

    def schedule(self, accelerator, lengths):
        return LengthAwareScheduler().schedule(accelerator, lengths)


_SCHEDULERS = {
    "sort-desc": LengthAwareScheduler,
    "sort-asc": lambda: LengthAwareScheduler(sort_descending=False),
    "uniform": lambda: PaddedScheduler(pad_to=_MAX_LENGTH),
    "exact": _ExactScheduler,
}


@pytest.fixture(scope="module")
def accelerator():
    return build_sparse_accelerator(_MODEL, top_k=30, avg_seq=64, max_seq=_MAX_LENGTH)


def _fleet(accelerator, mode: str, bucket: int | None) -> tuple[list, ScheduleCache]:
    """Two identical devices sharing one fresh cache (replicas share hits)."""
    cache = ScheduleCache()
    fleet = [
        CycleAccurateDevice(
            accelerator,
            scheduler=_SCHEDULERS[mode](),
            cache_length_bucket=bucket,
            schedule_cache=cache,
        )
        for _ in range(2)
    ]
    return fleet, cache


def _accounting(fleet, cache) -> tuple:
    return (
        [
            (
                device.cache_hits,
                device.cache_misses,
                device.cache_probe_total,
                # Stamps are process-wide serials; the key digests replay.
                [digest for _, digest in device.cache_probe_sequence],
            )
            for device in fleet
        ],
        cache.stats(),
    )


@st.composite
def _query_streams(draw) -> list[tuple[int, list[int]]]:
    """Queries over a few length multisets, permuted, on either device."""
    pool = draw(
        st.lists(
            st.lists(st.integers(1, _MAX_LENGTH), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    queries = []
    for _ in range(draw(st.integers(1, 10))):
        batch = draw(st.permutations(draw(st.sampled_from(pool))))
        queries.append((draw(st.integers(0, 1)), list(batch)))
    return queries


class TestLatencyOnlyPath:
    @pytest.mark.parametrize("bucket", [None, 16])
    @pytest.mark.parametrize("mode", sorted(_SCHEDULERS))
    @given(queries=_query_streams())
    @settings(max_examples=12, deadline=None)
    def test_matches_execute_with_identical_cache_accounting(
        self, accelerator, mode, bucket, queries
    ):
        executed, executed_cache = _fleet(accelerator, mode, bucket)
        queried, queried_cache = _fleet(accelerator, mode, bucket)
        for index, batch in queries:
            execution = executed[index].execute(batch)
            assert execution.latency_seconds == queried[index].batch_latency_seconds(batch)
            # One more lookup on each fleet, so the accounting stays paired.
            assert executed[index].execute(batch).energy_joules == queried[
                index
            ].energy_joules(batch)
        assert _accounting(executed, executed_cache) == _accounting(
            queried, queried_cache
        )

    @pytest.mark.parametrize("query", ["execute", "batch_latency_seconds", "energy_joules"])
    def test_empty_batch_is_rejected_before_the_cache(self, accelerator, query):
        fleet, cache = _fleet(accelerator, "sort-desc", None)
        device = fleet[0]
        device.execute([64, 32])
        device.execute([32, 64])
        before = _accounting(fleet, cache)
        with pytest.raises(ValueError, match="at least one request"):
            getattr(device, query)([])
        assert _accounting(fleet, cache) == before
        assert device.cache_hits + device.cache_misses == device.cache_probe_total


_TOP_K_B = 8


@pytest.fixture(scope="module")
def accelerator_b():
    """Same stage structure as ``accelerator`` (one signature), other rows."""
    return build_sparse_accelerator(_MODEL, top_k=_TOP_K_B, avg_seq=64, max_seq=_MAX_LENGTH)


#: Fleets by id: ((design, length bucket) per device, cache size).
_REPLAY_FLEETS = {
    "replicated": ([("a", 16)] * 3, None),
    "mixed-top-k": ([("a", None), ("b", None)] * 2, None),
    "mixed-bucket": ([("a", 16), ("a", None)] * 2, None),
    "evicting": ([("a", None)] * 3, 2),
}

#: ``[16, 112, 32]`` is ``[17, 100, 5]`` billed at a length bucket of 16.
_BATCH_POOL = ([64, 32], [32, 64], [17, 100, 5], [128], [5, 100, 17, 64], [1], [16, 112, 32])


def _replay_fleet(accelerators, fleet_id: str) -> tuple[list, ScheduleCache]:
    devices, max_entries = _REPLAY_FLEETS[fleet_id]
    cache = ScheduleCache() if max_entries is None else ScheduleCache(max_entries)
    fleet = [
        CycleAccurateDevice(
            accelerators[design], cache_length_bucket=bucket, schedule_cache=cache
        )
        for design, bucket in devices
    ]
    for device in fleet:
        device.reset()
    return fleet, cache


@st.composite
def _replay_streams(draw) -> list[tuple]:
    """Queries on pooled batches, on one device, again on another, or on the
    whole fleet in a row (as EDF asks it), with interleaved ``clear()``
    calls."""
    ops = []
    batch = list(_BATCH_POOL[0])
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(
            st.sampled_from(["query"] * 4 + ["again"] * 3 + ["fleet"] * 2 + ["clear"])
        )
        if kind == "clear":
            ops.append((kind,))
            continue
        if kind != "again":
            batch = list(draw(st.permutations(draw(st.sampled_from(_BATCH_POOL)))))
        method = draw(st.sampled_from(["execute", "batch_latency_seconds", "energy_joules"]))
        devices = range(4) if kind == "fleet" else [draw(st.integers(0, 3))]
        ops.extend(("query", index, method, batch) for index in devices)
    return ops


def _outcome(result) -> tuple:
    if not hasattr(result, "completion_offsets"):
        return (result,)
    return (
        result.device,
        result.lengths,
        result.latency_seconds,
        result.completion_offsets,
        result.admit_seconds,
        result.utilization,
        result.energy_joules,
        result.schedule is None,
    )


def _run_stream(accelerators, fleet_id, ops) -> tuple:
    fleet, cache = _replay_fleet(accelerators, fleet_id)
    results = []
    for op in ops:
        if op[0] == "clear":
            cache.clear()
        else:
            _, index, method, batch = op
            device = fleet[index % len(fleet)]
            results.append(_outcome(getattr(device, method)(batch)))
    probes = sorted(
        probe for device in fleet for probe in device.cache_probe_sequence
    )
    return (
        results,
        [
            (device.cache_hits, device.cache_misses, device.cache_probe_total)
            for device in fleet
        ],
        # Stamps are process-wide serials; their order and digests replay.
        [digest for _, digest in probes],
        (cache.hits, cache.misses, cache.num_evictions, len(cache)),
        list(cache._entries),
    )


def _refuse_replay(self, query) -> bool:
    return False


class TestProbeReplay:
    @pytest.mark.parametrize("fleet_id", sorted(_REPLAY_FLEETS))
    @given(ops=_replay_streams())
    @settings(max_examples=25, deadline=None)
    def test_replay_equals_full_lookups(self, accelerator, accelerator_b, fleet_id, ops):
        accelerators = {"a": accelerator, "b": accelerator_b}
        replayed = _run_stream(accelerators, fleet_id, ops)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScheduleCache, "replay", _refuse_replay)
            full = _run_stream(accelerators, fleet_id, ops)
        assert replayed == full

    def test_replicas_replay_and_other_designs_do_not(self, accelerator, accelerator_b):
        """The fleets above do replay, and only where the key is the same."""
        accelerators = {"a": accelerator, "b": accelerator_b}
        counts = {}
        for fleet_id in ("replicated", "mixed-top-k", "mixed-bucket"):
            fleet, cache = _replay_fleet(accelerators, fleet_id)
            # First pass: every device memoizes its rows for the billed
            # lengths of both buckets (a device replays only against rows it
            # has computed itself).
            for device in fleet:
                device.batch_latency_seconds([16, 112, 32])
                device.batch_latency_seconds([100, 17, 5])
            lookups = []
            full_lookup = ScheduleCache.lookup
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    ScheduleCache,
                    "lookup",
                    lambda self, *args: lookups.append(1) or full_lookup(self, *args),
                )
                hits = cache.hits
                latencies = [device.batch_latency_seconds([5, 100, 17]) for device in fleet]
            counts[fleet_id] = (len(lookups), cache.hits - hits, len(set(latencies)))
            assert [d.cache_probe_total for d in fleet] == [3] * len(fleet)
        # Replicas: the first query permutes the recorded call, so it is a
        # full lookup (and hit); the other two replay it.  The mixed fleets
        # share one signature (top-k) or lengths and rows (bucket) across
        # designs that bill the batch differently, so every query is a full
        # lookup.
        assert counts == {
            "replicated": (1, 3, 1),
            "mixed-top-k": (4, 4, 2),
            "mixed-bucket": (4, 4, 2),
        }
        assert fleet[0]._signature is not fleet[1]._signature

    def test_record_tracks_the_most_recent_entry(self):
        cache = ScheduleCache(max_entries=2)
        cache.store("a", 1, context="ctx-a")
        record = cache.last_query
        assert record == ("ctx-a", "a", 1)
        assert cache.lookup("missing", "ctx") is None
        assert cache.last_query is record  # a miss moves nothing
        assert cache.replay(record) and cache.hits == 1
        cache.store("b", 2)
        assert cache.last_query is None  # no context: nothing to replay
        assert not cache.replay(record) and cache.hits == 1
        assert cache.lookup("a", "ctx-a2") == 1
        assert cache.last_query.context == "ctx-a2"
        cache.store("c", 3, context="ctx-c")
        assert cache.num_evictions == 1 and cache.last_query.key == "c"
        cache.clear()
        assert cache.last_query is None and cache.stats()["entries"] == 0


def _reference_step(device, contexts: list[int], top_k: int | None) -> float:
    """The decode step written out: KV reads + weight-side roofline + overhead."""
    if isinstance(device, CycleAccurateDevice):
        model = device.accelerator.model_config
        per_token = 2 * model.num_layers * model.hidden_dim * (
            global_config.KV_BYTES_PER_ELEMENT_FPGA
        )
        bandwidth = device.hbm.effective_bandwidth
        weight_bytes = model.num_parameters * (global_config.MODEL_QUANT_BITS // 8)
        peak_ops = device.accelerator.peak_ops()
    else:
        model = device.model_config
        per_token = 2 * model.num_layers * model.hidden_dim * (
            global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
        )
        bandwidth = float(device.mem_bandwidth_bytes)
        weight_bytes = model.num_parameters * global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
        peak_ops = device.platform.effective_gops * 1e9
    read_tokens = sum(c if top_k is None else min(c, top_k) for c in contexts)
    read_seconds = per_token * read_tokens / bandwidth
    weight_seconds = weight_bytes / bandwidth
    mac_seconds = len(contexts) * 2.0 * model.num_parameters / peak_ops
    return read_seconds + max(weight_seconds, mac_seconds) + (
        global_config.DECODE_STEP_OVERHEAD_S
    )


def _rtx6000(top_k: int | None) -> AnalyticalDevice:
    return AnalyticalDevice(
        RTX_6000, model_config=_BERT, mem_bandwidth_bytes=672e9, decode_top_k=top_k
    )


#: Decode devices by id: (factory, the KV-read cap it should report).
_DECODE_DEVICES = {
    "sparse-fpga-k4": (lambda: build_device("sparse-fpga", model=_BERT, top_k=4), 4),
    "sparse-fpga-k30": (lambda: build_device("sparse-fpga", model=_BERT, top_k=30), 30),
    "baseline-fpga-dense": (lambda: build_device("baseline-fpga", model=_BERT), None),
    "rtx6000-dense": (lambda: _rtx6000(None), None),
    "rtx6000-k16": (lambda: _rtx6000(16), 16),
}


class TestDecodeStep:
    @pytest.mark.parametrize("name", sorted(_DECODE_DEVICES))
    def test_step_equals_the_written_out_formula(self, name):
        factory, top_k = _DECODE_DEVICES[name]
        device = factory()
        assert device.decode_top_k == top_k
        for batch_size in (1, 2, 3, 8, 16, 64):
            for base in (1, 7, 29, 30, 31, 200):
                contexts = [base + (37 * i) % 97 for i in range(batch_size)]
                assert device.decode_step_latency_seconds(contexts) == _reference_step(
                    device, contexts, top_k
                )
        # The grid spans both sides of the roofline: one request is bound by
        # the weight stream, 64 by the MACs.
        weight_seconds = device.decode_compute_seconds(0)
        assert device.decode_compute_seconds(1) == weight_seconds
        assert device.decode_compute_seconds(64) > weight_seconds

    def test_step_rejects_empty_and_non_positive_contexts(self):
        device = build_device("sparse-fpga", model=_BERT)
        with pytest.raises(ValueError, match="at least one running request"):
            device.decode_step_latency_seconds([])
        with pytest.raises(ValueError, match=">= 1"):
            device.decode_step_latency_seconds([12, 0])
