"""Tests for the batch-serving simulation."""

from __future__ import annotations

import pytest

from repro.hardware.accelerator import build_sparse_accelerator
from repro.scheduling.baselines import PaddedScheduler
from repro.serving import simulate_serving
from repro.transformer.configs import MRPC, RTE, ModelConfig

_SMALL_MODEL = ModelConfig(name="serve-2L", num_layers=2, hidden_dim=768, num_heads=12)


@pytest.fixture(scope="module")
def accelerator():
    return build_sparse_accelerator(_SMALL_MODEL, top_k=30, avg_seq=53, max_seq=86)


class TestServingSimulation:
    def test_serves_every_request(self, accelerator):
        report = simulate_serving(accelerator, MRPC, num_requests=48, batch_size=16)
        assert report.num_requests == 48
        assert len(report.sequence_latencies_seconds) == 48
        assert len(report.batch_results) == 3

    def test_throughput_and_latency_are_positive(self, accelerator):
        report = simulate_serving(accelerator, MRPC, num_requests=32, batch_size=16)
        assert report.throughput_sequences_per_second > 0
        assert report.latency_percentile(50) > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50)

    def test_summary_row_fields(self, accelerator):
        row = simulate_serving(accelerator, MRPC, num_requests=32).as_row()
        assert {"throughput_seq_per_s", "p50_latency_ms", "p99_latency_ms"} <= set(row)

    def test_length_aware_serving_beats_padded_serving(self, accelerator):
        rte_accel = build_sparse_accelerator(_SMALL_MODEL, top_k=30, avg_seq=68, max_seq=253)
        ours = simulate_serving(rte_accel, RTE, num_requests=64, batch_size=16)
        padded = simulate_serving(
            rte_accel, RTE, num_requests=64, batch_size=16, scheduler=PaddedScheduler()
        )
        assert ours.throughput_sequences_per_second > padded.throughput_sequences_per_second

    def test_global_sorting_helps_or_ties(self, accelerator):
        rte_accel = build_sparse_accelerator(_SMALL_MODEL, top_k=30, avg_seq=68, max_seq=253)
        bucketed = simulate_serving(rte_accel, RTE, num_requests=64, sort_globally=True)
        unbucketed = simulate_serving(rte_accel, RTE, num_requests=64, sort_globally=False)
        assert (
            bucketed.throughput_sequences_per_second
            >= 0.95 * unbucketed.throughput_sequences_per_second
        )

    def test_invalid_request_count_rejected(self, accelerator):
        with pytest.raises(ValueError):
            simulate_serving(accelerator, MRPC, num_requests=0)

    def test_high_utilization_maintained_across_batches(self, accelerator):
        report = simulate_serving(accelerator, MRPC, num_requests=64, batch_size=16)
        assert report.average_utilization > 0.9
