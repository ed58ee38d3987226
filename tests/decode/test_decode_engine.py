"""Decode engine properties: encoder reduction, KV admission, gang baseline."""

from __future__ import annotations

import pytest

from repro.decode import (
    DecodeRequest,
    GeometricOutputLength,
    simulate_decode_online,
)
from repro.devices import Device, build_device
from repro.serving.arrivals import PoissonArrivals
from repro.serving.engine import simulate_online
from repro.serving.slo import SLOSpec
from repro.transformer.configs import MRPC, SQUAD_V11 as SQUAD, get_model_config

BERT = get_model_config("bert-base")


def _decode_device(kv_mb: float | None = None, **knobs) -> Device:
    if kv_mb is not None:
        knobs["kv_cache_bytes"] = int(kv_mb * 2**20)
    return build_device("sparse-fpga", model=BERT, dataset=SQUAD, **knobs)


class TestEncoderReduction:
    def test_single_token_outputs_reduce_to_simulate_online(self):
        """output_len == 1 must reproduce the encoder engine record-for-record."""
        arrivals = PoissonArrivals(rate_qps=40.0)
        decode = simulate_decode_online(
            _decode_device(),
            SQUAD,
            arrivals,
            num_requests=120,
            output_lengths=1,
            seed=2022,
        )
        encoder = simulate_online(
            _decode_device(), SQUAD, arrivals, num_requests=120, seed=2022
        )
        assert len(decode.records) == len(encoder.records)
        for d, e in zip(decode.records, encoder.records):
            assert d.request.request_id == e.request.request_id
            assert d.request.length == e.request.length
            assert d.dispatch_time == e.dispatch_time
            assert d.start_time == e.start_time
            assert d.completion_time == e.completion_time
            assert d.batch_id == e.batch_id
            assert d.device_index == e.device_index
            assert d.first_token_time == d.completion_time
        assert decode.queue_depth_timeline == encoder.queue_depth_timeline
        assert [b.execution.latency_seconds for b in decode.batches] == [
            b.execution.latency_seconds for b in encoder.batches
        ]
        assert decode.latency_percentile(95) == encoder.latency_percentile(95)

    def test_reduction_holds_under_kv_cap(self):
        """A KV cap that admits every batch leaves the reduction intact."""
        arrivals = PoissonArrivals(rate_qps=30.0)
        decode = simulate_decode_online(
            _decode_device(kv_mb=512.0),
            SQUAD,
            arrivals,
            num_requests=60,
            output_lengths=1,
            seed=7,
        )
        encoder = simulate_online(
            _decode_device(), SQUAD, arrivals, num_requests=60, seed=7
        )
        assert [r.completion_time for r in decode.records] == [
            r.completion_time for r in encoder.records
        ]


class TestKvAdmission:
    def test_kv_peak_never_exceeds_capacity(self):
        device = _decode_device(kv_mb=24.0)
        report = simulate_decode_online(
            device,
            SQUAD,
            PoissonArrivals(rate_qps=40.0),
            num_requests=150,
            output_lengths=GeometricOutputLength(mean_output_len=32.0),
            seed=2022,
        )
        assert report.num_completed == 150
        (summary,) = report.decode_devices
        assert summary["kv_cache_bytes"] == int(24.0 * 2**20)
        assert summary["kv_peak_bytes"] is not None
        assert summary["kv_peak_bytes"] <= summary["kv_cache_bytes"]
        assert report.num_kv_stalls > 0  # the cap actually gated admission

    def test_uncapped_device_reports_no_peak(self):
        report = simulate_decode_online(
            _decode_device(),
            MRPC,
            PoissonArrivals(rate_qps=20.0),
            num_requests=30,
            output_lengths=4,
            seed=0,
        )
        (summary,) = report.decode_devices
        assert summary["kv_cache_bytes"] is None
        assert summary["kv_peak_bytes"] is None
        assert report.num_kv_stalls == 0

    def test_request_larger_than_cache_is_config_error(self):
        tiny = _decode_device(kv_mb=2.0)  # one long SQuAD prompt exceeds 2 MiB
        with pytest.raises(ValueError, match="kv_cache_bytes"):
            simulate_decode_online(
                tiny,
                SQUAD,
                PoissonArrivals(rate_qps=10.0),
                num_requests=40,
                output_lengths=64,
                seed=2022,
            )


class TestIterationVersusGang:
    def test_iteration_level_sustains_higher_token_goodput(self):
        """The vLLM/Orca result: continuous batching wins on decode-heavy streams."""
        dist = GeometricOutputLength(mean_output_len=192.0, max_output_len=512)

        def run(iteration_level: bool):
            device = build_device(
                "sparse-fpga",
                model=BERT,
                dataset=MRPC,
                kv_cache_bytes=int(32.0 * 2**20),
            )
            return simulate_decode_online(
                device,
                MRPC,
                PoissonArrivals(rate_qps=40.0),
                num_requests=80,
                output_lengths=dist,
                iteration_level=iteration_level,
                seed=2022,
            )

        iteration = run(True)
        gang = run(False)
        assert iteration.iteration_level and not gang.iteration_level
        assert (
            iteration.sustained_tokens_per_second
            > gang.sustained_tokens_per_second
        )
        # Refilling mid-decode also tightens the inter-token tail.
        assert iteration.inter_token_percentile(95) <= gang.inter_token_percentile(95)

    def test_modes_generate_identical_token_totals(self):
        dist = GeometricOutputLength(mean_output_len=48.0)
        reports = [
            simulate_decode_online(
                _decode_device(),
                MRPC,
                PoissonArrivals(rate_qps=25.0),
                num_requests=40,
                output_lengths=dist,
                iteration_level=mode,
                seed=3,
            )
            for mode in (True, False)
        ]
        assert reports[0].total_output_tokens == reports[1].total_output_tokens
        assert reports[0].output_lengths == reports[1].output_lengths


class TestEngineValidation:
    def test_device_without_decode_model_refused(self):
        bare = Device()
        with pytest.raises(ValueError, match="decode cost"):
            simulate_decode_online(
                bare, MRPC, PoissonArrivals(rate_qps=5.0), num_requests=4
            )

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            simulate_decode_online(_decode_device(), MRPC, [])

    @pytest.mark.parametrize("mode", ["no", "yes", 0, 1, None])
    def test_iteration_level_must_be_a_bool(self, mode):
        # A truthy string used to run iteration-level batching and report
        # the string back as the mode.
        with pytest.raises(TypeError, match="iteration_level"):
            simulate_decode_online(
                _decode_device(),
                MRPC,
                PoissonArrivals(rate_qps=5.0),
                num_requests=4,
                iteration_level=mode,
            )

    def test_report_shape(self):
        slo = SLOSpec(base_s=0.5, per_output_token_s=0.005)
        report = simulate_decode_online(
            _decode_device(),
            MRPC,
            PoissonArrivals(rate_qps=20.0),
            num_requests=25,
            output_lengths=GeometricOutputLength(mean_output_len=16.0),
            slo=slo,
            seed=1,
        )
        payload = report.to_dict()
        assert payload["iteration_level"] is True
        assert payload["num_decode_steps"] == report.num_decode_steps > 0
        assert payload["total_output_tokens"] == report.total_output_tokens
        assert set(payload["ttft_ms"]) == {"p50", "p95"}
        assert set(payload["inter_token_ms"]) == {"p50", "p95"}
        assert payload["sustained_tokens_per_second"] > 0
        for record in report.records:
            assert record.first_token_time <= record.completion_time
            assert record.ttft >= 0.0
            if record.num_output_tokens == 1:
                assert record.inter_token_latency is None
            else:
                assert record.inter_token_latency > 0.0

    def test_explicit_request_list_keeps_output_lens(self):
        requests = [
            DecodeRequest(request_id=i, length=32, arrival_time=0.05 * i, output_len=3)
            for i in range(8)
        ]
        report = simulate_decode_online(_decode_device(), MRPC, requests)
        assert report.total_output_tokens == 24
        assert report.output_lengths == "explicit"
