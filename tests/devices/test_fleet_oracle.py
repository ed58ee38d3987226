"""The fleet cost oracle answers and accounts exactly like asking every device.

:class:`~repro.devices.fleet.FleetCostOracle` asks each run of twin replicas
adjacent in query order once and counts the other replicas' hits
arithmetically.  A Hypothesis test drives it side by side with the
per-device loop it replaces -- ``[d.batch_latency_seconds(x) for d in
fleet]``, chunked by each device's batch limits where routing splits -- and
after every run compares the results, the per-device counters, the keys
the shared cache's journal records (twin runs included), the cache's
counters and its LRU order.  The remaining tests pin which devices are twins and how many
schedule lookups a query costs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import AnalyticalDevice, CycleAccurateDevice, ScheduleCache, build_fleet
from repro.devices.fleet import FleetCostOracle
from repro.hardware.accelerator import build_sparse_accelerator
from repro.platforms.devices import RTX_6000
from repro.serving import CostModelRouter, DeadlineBatcher, Request
from repro.transformer.configs import ModelConfig

_MODEL = ModelConfig(name="oracle-2L", num_layers=2, hidden_dim=768, num_heads=12)
_MAX_LENGTH = 128

#: Fleets by id: (device specs, cache size).  A spec is (design, length
#: bucket, max_batch_size, max_batch_tokens); design "gpu" is analytical.
_FLEETS = {
    "replicated": ([("a", 16, None, None)] * 3, None),
    "mixed-top-k": ([("a", None, None, None), ("b", None, None, None)] * 2, None),
    "mixed-bucket": ([("a", 16, None, None), ("a", None, None, None)] * 2, None),
    "evicting": ([("a", None, None, None)] * 3, 2),
    # Twins within each limit; a 5-request batch cut into single requests
    # has more chunks than the cache holds.
    "limit-split": ([("a", None, 1, None)] * 2 + [("a", 16, 2, 150)] * 2, 3),
    # Devices 0 and 2 reset with the cache off (REPRO_SCHEDULE_CACHE=off).
    "partly-uncached": ([("a", None, None, None)] * 4, None),
    "interleaved-analytical": (
        [("a", None, None, None), ("gpu", None, None, None)]
        + [("a", None, None, None)] * 2
        + [("gpu", None, None, None)],
        None,
    ),
}

_UNCACHED = {"partly-uncached": (0, 2)}

#: ``[16, 112, 32]`` is ``[17, 100, 5]`` billed at a length bucket of 16.
_BATCH_POOL = ([64, 32], [32, 64], [17, 100, 5], [128], [5, 100, 17, 64], [1], [16, 112, 32])


@pytest.fixture(scope="module")
def designs():
    return {
        "a": build_sparse_accelerator(_MODEL, top_k=30, avg_seq=64, max_seq=_MAX_LENGTH),
        "b": build_sparse_accelerator(_MODEL, top_k=8, avg_seq=64, max_seq=_MAX_LENGTH),
    }


def _build(designs, fleet_id: str) -> tuple[list, ScheduleCache]:
    specs, max_entries = _FLEETS[fleet_id]
    cache = ScheduleCache() if max_entries is None else ScheduleCache(max_entries)
    fleet = []
    for design, bucket, size, tokens in specs:
        if design == "gpu":
            fleet.append(AnalyticalDevice(RTX_6000, model_config=_MODEL))
            continue
        fleet.append(
            CycleAccurateDevice(
                designs[design],
                cache_length_bucket=bucket,
                schedule_cache=cache,
                max_batch_size=size,
                max_batch_tokens=tokens,
            )
        )
    for index in _UNCACHED.get(fleet_id, ()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SCHEDULE_CACHE", "off")
            fleet[index].reset()
    return fleet, cache


def _per_device(fleet, lengths, indices, split) -> list[float]:
    """Ask every queried device in turn (routing's historical scorer)."""
    seconds = []
    for index in indices:
        device = fleet[index]
        if not split:
            seconds.append(device.batch_latency_seconds(list(lengths)))
            continue
        total = 0.0
        remaining = list(lengths)
        while remaining:
            take = device.admissible_prefix(remaining)
            total += device.batch_latency_seconds(remaining[:take])
            remaining = remaining[take:]
        seconds.append(total)
    return seconds


@st.composite
def _op_streams(draw) -> list[tuple]:
    """Fleet estimates, routing over candidate subsets, executes and clears."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kinds = ["estimate"] * 3 + ["route"] * 3 + ["execute"] * 2 + ["clear"]
        kind = draw(st.sampled_from(kinds))
        if kind == "clear":
            ops.append((kind,))
            continue
        batch = list(draw(st.permutations(draw(st.sampled_from(_BATCH_POOL)))))
        if kind == "route":
            ops.append((kind, batch, draw(st.sets(st.integers(0, 4), min_size=1))))
        elif kind == "execute":
            ops.append((kind, batch, draw(st.integers(0, 4))))
        else:
            ops.append((kind, batch))
    return ops


def _run(designs, fleet_id: str, ops, oracle: FleetCostOracle | None) -> tuple:
    fleet, cache = _build(designs, fleet_id)
    results = []
    with cache.journal() as keys:
        for op in ops:
            if op[0] == "clear":
                cache.clear()
            elif op[0] == "execute":
                results.append(fleet[op[2] % len(fleet)].execute(op[1]).latency_seconds)
            else:
                split = op[0] == "route"
                if split:
                    indices = sorted({i % len(fleet) for i in op[2]})
                else:
                    indices = range(len(fleet))
                if oracle is None:
                    results.append(_per_device(fleet, op[1], indices, split))
                elif split:
                    results.append(oracle.service_seconds(fleet, op[1], indices, split=True))
                else:
                    results.append(oracle.service_seconds(fleet, op[1]))
    return (
        results,
        [
            (device.cache_hits, device.cache_misses)
            for device in fleet
            if isinstance(device, CycleAccurateDevice)
        ],
        keys,
        cache.stats(),
        list(cache._entries),
    )


class TestOracleEqualsPerDeviceLoop:
    @pytest.mark.parametrize("fleet_id", sorted(_FLEETS))
    @given(ops=_op_streams())
    @settings(max_examples=25, deadline=None)
    def test_results_and_accounting_match(self, designs, fleet_id, ops):
        expected = _run(designs, fleet_id, ops, oracle=None)
        assert _run(designs, fleet_id, ops, oracle=FleetCostOracle()) == expected


def _counting(monkeypatch) -> list:
    """Count every schedule-cache lookup a cycle-accurate device makes."""
    calls = []
    canonical_entry = CycleAccurateDevice._canonical_entry

    def counted(self, lengths):
        calls.append(self)
        return canonical_entry(self, lengths)

    monkeypatch.setattr(CycleAccurateDevice, "_canonical_entry", counted)
    return calls


class TestTwins:
    def test_catalog_replicas_share_one_design_and_form_one_run(self, monkeypatch):
        fleet = build_fleet("sparse-fpga", model=_MODEL, replicas=3)
        assert fleet[0].accelerator is fleet[1].accelerator is fleet[2].accelerator
        calls = _counting(monkeypatch)
        seconds = FleetCostOracle().service_seconds(fleet, [40, 12, 90])
        assert calls == [fleet[0]]
        assert seconds == [fleet[0].batch_latency_seconds([40, 12, 90])] * 3
        assert [d.cache_hits + d.cache_misses for d in fleet] == [2, 1, 1]

    @pytest.mark.parametrize(
        "knobs", [{"top_k": 8}, {"cache_length_bucket": 16}], ids=["top_k", "bucket"]
    )
    def test_other_top_k_or_bucket_breaks_a_run(self, monkeypatch, knobs):
        plain = build_fleet("sparse-fpga", model=_MODEL, replicas=2)
        other = build_fleet("sparse-fpga", model=_MODEL, **knobs)[0]
        fleet = [plain[0], other, plain[1]]
        oracle = FleetCostOracle()
        assert oracle._twins_of(fleet) == [0, 1, 0]
        calls = _counting(monkeypatch)
        oracle.service_seconds(fleet, [40, 12, 90])
        assert calls == fleet  # the other design sits between the replicas
        calls.clear()
        oracle.service_seconds(fleet, [40, 12, 90], indices=[0, 2])
        assert calls == [fleet[0]]  # skipped, it no longer separates them

    def test_analytical_devices_never_join_a_run(self):
        fleet = build_fleet("gpu-rtx6000", model=_MODEL, replicas=3)
        assert FleetCostOracle()._twins_of(fleet) == [None, None, None]

    def test_different_batch_limits_are_not_merged_for_split_scoring(self, monkeypatch):
        small = build_fleet("sparse-fpga", model=_MODEL, max_batch_size=2)[0]
        large = build_fleet("sparse-fpga", model=_MODEL, max_batch_size=4)[0]
        fleet = [small, large]
        assert small.accelerator is large.accelerator
        oracle = FleetCostOracle()
        assert oracle._twins_of(fleet) == [0, 1]
        calls = _counting(monkeypatch)
        lengths = [40, 12, 90, 33, 64]
        seconds = oracle.service_seconds(fleet, lengths, split=True)
        assert [id(d) for d in calls] == [id(small)] * 3 + [id(large)] * 2
        assert seconds == _per_device(fleet, lengths, range(2), split=True)
        assert seconds[0] != seconds[1]

    def test_a_changed_fleet_is_proven_again(self):
        fleet = build_fleet(("sparse-fpga", "gpu-rtx6000"), model=_MODEL, replicas=2)
        oracle = FleetCostOracle()
        assert oracle._twins_of(fleet[:2]) == [0, None]
        assert oracle._twins_of(fleet) == [0, None, 0, None]
        assert oracle._twins_of(fleet[2:]) == [0, None]


class TestQueryCost:
    """A deterministic count of schedule-cache lookups, not a timing."""

    def test_eight_replica_edf_estimate_is_one_lookup(self, monkeypatch):
        fleet = build_fleet("sparse-fpga", model=_MODEL, replicas=8)
        batcher = DeadlineBatcher(batch_size=8)
        batcher.bind_fleet(fleet)
        calls = _counting(monkeypatch)
        with fleet[0]._schedule_cache.journal() as keys:
            batcher._estimate((40, 12, 90))
        assert len(calls) == 1
        assert [d.cache_hits + d.cache_misses for d in fleet] == [1] * 8
        assert len(keys) == 8 and len(set(keys)) == 1  # one key, once per replica

    def test_routing_costs_one_lookup_per_run_and_chunk(self, monkeypatch):
        fleet = build_fleet(
            ("sparse-fpga", "baseline-fpga"), model=_MODEL, replicas=4, max_batch_size=2
        )
        batch = [Request(request_id=i, length=30 + i, arrival_time=0.0) for i in range(3)]
        calls = _counting(monkeypatch)
        CostModelRouter().select(fleet, batch, now=0.0)
        assert len(calls) == 8 * 2  # interleaved designs: every device, two chunks
        calls.clear()
        router = CostModelRouter(blacklist_s=0.1)
        for index in range(1, len(fleet), 2):
            router.note_failure(index, now=0.0)
        assert router.select(fleet, batch, now=0.0) % 2 == 0
        assert len(calls) == 2  # the sparse replicas are now one run
