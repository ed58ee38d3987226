"""Protocol-conformance suite run against every registered device.

Any backend registered under ``kind="device"`` must satisfy the Device
contract: monotone batch latency in sequence length, non-negative energy (or
None when unsupported), occupancy bounded to [0, 1], per-request completion
offsets inside the batch window, an admission interval no larger than the
batch latency, and a JSON-ready ``describe()``.  Plug-in devices registered
by third parties are picked up automatically.
"""

from __future__ import annotations

import json

import pytest

import repro.devices  # noqa: F401 - imports register the device catalog
from repro.devices import (
    AnalyticalDevice,
    BatchExecution,
    CycleAccurateDevice,
    Device,
    build_device,
)
from repro.registry import REGISTRY
from repro.transformer.configs import MRPC, ModelConfig

#: Small model so cycle-accurate builds stay fast.
_SMALL_MODEL = ModelConfig(name="dev-2L", num_layers=2, hidden_dim=768, num_heads=12)

DEVICE_NAMES = REGISTRY.available("device")


@pytest.fixture(scope="module")
def devices() -> dict[str, Device]:
    return {
        name: build_device(name, model=_SMALL_MODEL, dataset="mrpc")
        for name in DEVICE_NAMES
    }


@pytest.fixture
def device(devices, request) -> Device:
    return devices[request.param]


def pytest_generate_tests(metafunc):
    if "device" in metafunc.fixturenames:
        metafunc.parametrize("device", DEVICE_NAMES, indirect=True, ids=str)


class TestDeviceConformance:
    def test_catalog_covers_both_backend_families(self):
        assert {"sparse-fpga", "baseline-fpga", "gpu-rtx6000", "cpu-xeon"} <= set(DEVICE_NAMES)

    def test_latency_is_positive_and_monotone_in_length(self, device):
        short = device.batch_latency_seconds([MRPC.min_length])
        long = device.batch_latency_seconds([MRPC.max_length])
        assert 0 < short <= long

    def test_latency_is_monotone_in_batch_size(self, device):
        one = device.batch_latency_seconds([MRPC.avg_length])
        four = device.batch_latency_seconds([MRPC.avg_length] * 4)
        assert one <= four

    def test_energy_is_none_or_non_negative(self, device):
        energy = device.energy_joules([MRPC.avg_length] * 4)
        assert energy is None or energy >= 0

    def test_execution_shape(self, device):
        lengths = [MRPC.min_length, MRPC.avg_length, MRPC.max_length]
        execution = device.execute(lengths)
        assert isinstance(execution, BatchExecution)
        assert execution.lengths == lengths
        assert len(execution.completion_offsets) == len(lengths)
        assert all(0 < off <= execution.latency_seconds + 1e-9
                   for off in execution.completion_offsets)
        assert 0 < execution.admit_seconds <= execution.latency_seconds + 1e-9

    def test_occupancy_bounds_across_a_dispatch(self, device):
        device.reset()
        assert device.occupancy(0.0) == 0.0
        execution = device.execute([MRPC.avg_length] * 4)
        device.dispatch(execution, 0.0)
        for instant in (0.0, execution.admit_seconds / 2, execution.admit_seconds,
                        execution.latency_seconds, 2 * execution.latency_seconds):
            assert 0.0 <= device.occupancy(instant) <= 1.0
        assert device.occupancy(0.0) == 1.0
        assert device.occupancy(execution.latency_seconds) == 0.0
        device.reset()
        assert device.occupancy(0.0) == 0.0

    def test_next_start_respects_the_serving_discipline(self, device):
        execution = device.execute([MRPC.avg_length] * 4)
        device.reset(continuous_batching=False)
        device.dispatch(execution, 0.0)
        blocking = device.next_start(0.0)
        device.reset(continuous_batching=True)
        device.dispatch(execution, 0.0)
        continuous = device.next_start(0.0)
        assert blocking == pytest.approx(execution.latency_seconds)
        assert continuous == pytest.approx(execution.admit_seconds)
        assert continuous <= blocking

    def test_busy_seconds_merges_overlapping_admissions(self, device):
        execution = device.execute([MRPC.avg_length] * 4)
        device.reset(continuous_batching=True)
        device.dispatch(execution, 0.0)
        device.dispatch(execution, execution.admit_seconds)
        busy = device.busy_seconds()
        assert busy <= execution.admit_seconds + execution.latency_seconds + 1e-9
        assert busy >= execution.latency_seconds

    def test_describe_is_json_ready(self, device):
        description = device.describe()
        assert description["name"] == device.name
        assert description["backend"] in ("cycle-accurate", "analytical")
        json.dumps(description)


class TestAdapters:
    def test_cycle_accurate_pipeline_admits_before_draining(self):
        device = build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")
        execution = device.execute([MRPC.avg_length] * 4)
        assert execution.admit_seconds < execution.latency_seconds
        assert execution.utilization is not None

    def test_analytical_platform_serializes_batches(self):
        device = build_device("gpu-rtx6000", model=_SMALL_MODEL)
        execution = device.execute([MRPC.avg_length] * 4)
        assert execution.admit_seconds == pytest.approx(execution.latency_seconds)
        assert execution.utilization is None

    def test_execution_cache_returns_identical_results(self):
        device = build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")
        a = device.execute([60, 80, 100])
        before = (device.cache_hits, device.cache_misses)
        b = device.execute([60, 80, 100])
        # The repeat is served from the shared cache, not re-simulated.
        assert (device.cache_hits, device.cache_misses) == (before[0] + 1, before[1])
        assert b == a

    def test_execution_cache_shared_across_permutations_and_devices(self):
        device = build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")
        twin = build_device("sparse-fpga", model=_SMALL_MODEL, dataset="mrpc")
        a = device.execute([60, 80, 100])
        b = twin.execute([100, 60, 80])  # same multiset, different order & device
        assert (twin.cache_hits, twin.cache_misses) == (1, 0)
        assert b.latency_seconds == a.latency_seconds
        assert b.admit_seconds == a.admit_seconds
        # Offsets follow each call's own request order.
        by_length_a = dict(zip(a.lengths, a.completion_offsets))
        by_length_b = dict(zip(b.lengths, b.completion_offsets))
        assert by_length_a == by_length_b

    def test_analytical_device_requires_model_config(self):
        from repro.platforms.devices import RTX_6000

        with pytest.raises(ValueError, match="model_config"):
            AnalyticalDevice(RTX_6000)

    def test_analytical_device_rejects_unknown_workload(self):
        from repro.platforms.devices import RTX_6000

        with pytest.raises(ValueError, match="workload"):
            AnalyticalDevice(RTX_6000, model_config=_SMALL_MODEL, workload="training")

    def test_fpga_platform_wrapper_needs_no_model_config(self):
        from repro.platforms.fpga import build_proposed_fpga

        platform = build_proposed_fpga(_SMALL_MODEL, MRPC)
        device = AnalyticalDevice(platform, name="fpga-platform")
        execution = device.execute([MRPC.avg_length] * 2)
        assert execution.latency_seconds > 0

    def test_wrapping_an_accelerator_directly(self):
        from repro.hardware.accelerator import build_sparse_accelerator

        accelerator = build_sparse_accelerator(
            _SMALL_MODEL, top_k=30, avg_seq=MRPC.avg_length, max_seq=MRPC.max_length
        )
        device = CycleAccurateDevice(accelerator)
        assert device.name == accelerator.name
        assert device.scheduler_name == "length-aware"
