"""One report type and one record type serve encoder, decode and live runs.

An encoder request is a request that generates one token: its record keeps
no first token, its TTFT is its latency and it has no inter-token latency.
A decode run returns the same report type, whose ``to_dict()`` appends the
decode block after ``devices`` in a pinned key order.
"""

from __future__ import annotations

import pytest

from repro.decode import GeometricOutputLength
from repro.devices import build_fleet
from repro.serving import PoissonArrivals, Request, simulate_online
from repro.serving.engine import OnlineServingReport
from repro.serving.request import CompletionLedger, RequestRecord

#: The decode report's key order, captured from the engine before the
#: encoder and decode reports were one type.
DECODE_KEYS = [
    "dataset", "arrival_process", "batch_policy", "router", "scheduler",
    "continuous_batching", "queue_limit", "slo", "offered_qps", "num_requests",
    "num_completed", "num_shed", "num_shed_late", "num_shed_predicted",
    "num_limit_splits", "shed_rate", "attainment_rate", "goodput_qps", "num_batches",
    "sustained_qps", "makespan_seconds", "latency_ms", "queueing_delay_ms",
    "max_queue_depth", "mean_queue_depth", "mean_waiting_requests",
    "average_device_utilization", "average_pipeline_utilization", "total_energy_joules",
    "joules_per_million_requests", "cost_usd", "average_price_per_hour_usd",
    "attainment_per_dollar_hour", "autoscaler", "provisioning_lag_s", "scaling_timeline",
    "schedule_cache", "faults", "num_crashes", "num_shed_crashed", "num_hedged",
    "num_hedge_wins", "num_retries", "num_replayed", "devices", "iteration_level",
    "output_lengths", "num_kv_stalls", "num_decode_steps", "total_output_tokens",
    "sustained_tokens_per_second", "ttft_ms", "inter_token_ms", "decode_devices",
]
DECODE_BLOCK = DECODE_KEYS[DECODE_KEYS.index("devices") + 1 :]


def _run(**knobs) -> OnlineServingReport:
    fleet = build_fleet(("gpu-rtx6000",), dataset="mrpc", replicas=2)
    return simulate_online(fleet, "mrpc", PoissonArrivals(rate_qps=300.0), 60, **knobs)


def test_an_encoder_record_is_a_one_token_request():
    report = _run()
    assert report.num_completed > 0
    for record in report.records:
        assert type(record) is RequestRecord
        assert record.first_token_time is None
        assert record.num_output_tokens == 1
        assert record.ttft == record.latency
        assert record.inter_token_latency is None


def test_an_encoder_run_reports_ttft_as_latency():
    report = _run()
    assert report.ttft_percentile(50) == report.latency_percentile(50)
    assert report.inter_token_percentile(50) is None
    assert report.total_output_tokens == report.num_completed
    payload = report.to_dict()
    assert not set(DECODE_BLOCK) & set(payload)
    assert not {"mode", "ttft_p50_ms", "itl_p50_ms", "tok_per_s"} & set(report.as_row())


@pytest.mark.parametrize("iteration_level", [True, False])
def test_a_decode_run_returns_the_one_report_with_its_key_order(iteration_level):
    report = _run(
        output_lengths=GeometricOutputLength(mean_output_len=4.0),
        iteration_level=iteration_level,
    )
    assert type(report) is OnlineServingReport
    assert list(report.to_dict()) == DECODE_KEYS
    assert all(type(record) is RequestRecord for record in report.records)


def test_a_multi_token_row_without_its_first_token_has_no_ttft():
    """A ledger that keeps no first tokens (a live run's) makes nothing up."""
    ledger = CompletionLedger()
    row = ledger.add_batch(0.0, 0.1, 0, 0)
    ledger.extend(row, [Request(0, 8, 0.0), Request(1, 8, 0.0, output_len=4)], [0.5, 0.9])
    one, many = ledger.records()
    assert one.ttft == one.latency == 0.5
    assert many.first_token_time is None
    assert many.ttft is None
    assert many.inter_token_latency is None
