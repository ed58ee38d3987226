"""The cheap cost-model queries answer exactly what the full paths answer.

* ``batch_latency_seconds`` / ``energy_joules`` on a cycle-accurate device
  read the cached canonical schedule without building a ``BatchExecution``;
  they must agree with ``execute`` and leave the same cache accounting.
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
        [(device.cache_hits, device.cache_misses) for device in fleet],
        cache.stats(),
        list(cache._entries),  # LRU order
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
        with executed_cache.journal() as executed_keys, queried_cache.journal() as queried_keys:
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
        assert executed_keys == queried_keys

    @pytest.mark.parametrize("query", ["execute", "batch_latency_seconds", "energy_joules"])
    def test_empty_batch_is_rejected_before_the_cache(self, accelerator, query):
        fleet, cache = _fleet(accelerator, "sort-desc", None)
        device = fleet[0]
        device.execute([64, 32])
        device.execute([32, 64])
        before = _accounting(fleet, cache)
        with cache.journal() as keys, pytest.raises(ValueError, match="at least one request"):
            getattr(device, query)([])
        assert _accounting(fleet, cache) == before
        assert keys == []


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
