"""Decode engine properties: encoder reduction, KV admission, gang baseline."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decode import GeometricOutputLength, simulate_decode_online
from repro.devices import Device, build_device
from repro.devices.schedule_cache import GLOBAL_SCHEDULE_CACHE
from repro.serving import (
    ClassMixArrivals,
    DeadlineBatcher,
    ServingOptions,
    get_batch_policy,
    get_router,
)
from repro.serving import engine as serving_engine
from repro.serving.arrivals import PoissonArrivals
from repro.serving.engine import OnlineServingReport, simulate_online
from repro.serving.request import Request
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

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        designs=st.lists(st.sampled_from(["sparse-fpga", "baseline-fpga"]), min_size=1, max_size=4),
        max_batch_size=st.sampled_from([None, 3, 8]),
        policy=st.sampled_from(["fixed", "timeout", "bucketed", "deadline", "priority-deadline"]),
        router=st.sampled_from(["round-robin", "least-loaded", "cost-model"]),
        continuous_batching=st.booleans(),
        slo_s=st.sampled_from([None, 0.02, 0.08]),
        class_mix=st.booleans(),
        max_queue_depth=st.sampled_from([None, 4, 12]),
        shed_on_predicted_miss=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_single_token_run_equals_encoder_run(
        self, designs, max_batch_size, policy, router, continuous_batching, slo_s, class_mix,
        max_queue_depth, shed_on_predicted_miss, seed,
    ):
        """``output_lengths=1`` reproduces ``simulate_online`` over the serving knobs."""

        def run(engine, **extra):
            GLOBAL_SCHEDULE_CACHE.clear()
            fleet = [
                build_device(design, model=BERT, dataset=MRPC, max_batch_size=max_batch_size)
                for design in designs
            ]
            arrivals = PoissonArrivals(rate_qps=150.0 * len(designs))
            if class_mix:
                arrivals = ClassMixArrivals(
                    base=arrivals, mix="interactive:0.5,batch:0.3,best-effort:0.2"
                )
            return engine(
                fleet,
                MRPC,
                arrivals,
                num_requests=40,
                batch_policy=get_batch_policy(policy, batch_size=6, timeout_s=0.01),
                router=get_router(router),
                continuous_batching=continuous_batching,
                max_queue_depth=max_queue_depth,
                slo=SLOSpec(base_s=slo_s) if slo_s is not None else None,
                shed_on_predicted_miss=shed_on_predicted_miss,
                seed=seed,
                **extra,
            )

        def trajectory(report, keys):
            # The encoder half of the report; a decode report adds its own keys.
            summary = OnlineServingReport.to_dict(report)
            return {
                "summary": {key: summary[key] for key in keys},
                "records": [
                    (
                        r.request.request_id,
                        r.dispatch_time,
                        r.start_time,
                        r.completion_time,
                        r.device_index,
                        r.batch_id,
                    )
                    for r in report.records
                ],
                "batches": [
                    (b.batch_id, b.device_index, b.dispatch_time, b.start_time,
                     b.execution.latency_seconds, b.request_ids)
                    for b in report.batches
                ],
                "shed": list(report.shed_causes.items()),
                "queue_depth": report.queue_depth_timeline,
            }

        encoder = run(simulate_online)
        keys = [key for key in encoder.to_dict() if key != "schedule_cache"]
        decode = run(simulate_decode_online, output_lengths=1)
        assert trajectory(decode, keys) == trajectory(encoder, keys)


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
            Request(request_id=i, length=32, arrival_time=0.05 * i, output_len=3)
            for i in range(8)
        ]
        report = simulate_decode_online(_decode_device(), MRPC, requests)
        assert report.total_output_tokens == 24
        assert report.output_lengths == "explicit"

    def test_all_shed_run_renders_its_report(self):
        """A decode run that completes nothing still renders to_dict and as_row."""
        report = simulate_decode_online(
            _decode_device(),
            MRPC,
            PoissonArrivals(rate_qps=20.0),
            num_requests=16,
            output_lengths=4,
            batch_policy=DeadlineBatcher(batch_size=8),
            slo=SLOSpec(base_s=0.0, per_token_s=0.0),
        )
        assert report.num_completed == 0 and report.num_shed_late == 16
        payload = report.to_dict()
        assert payload["ttft_ms"] == {"p50": None, "p95": None}
        assert payload["inter_token_ms"] == {"p50": None, "p95": None}
        assert report.as_row()["ttft_p50_ms"] is None


class TestOneCore:
    """The rules of the one simulator core that encoder and decode runs share."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("autoscaler", "queue-depth"),
            ("faults", "crash-restart"),
            ("hedging", True),
        ],
    )
    def test_decode_runs_refuse_unmodelled_knobs(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            simulate_decode_online(
                [_decode_device(), _decode_device()],
                MRPC,
                PoissonArrivals(rate_qps=20.0),
                num_requests=8,
                output_lengths=4,
                **{knob: value},
            )

    def test_options_object_takes_the_default_output_lengths(self):
        fleet = [_decode_device()]
        arrivals = PoissonArrivals(rate_qps=5.0)
        GLOBAL_SCHEDULE_CACHE.clear()
        wrapped = simulate_decode_online(fleet, MRPC, arrivals, 4, options=ServingOptions(seed=3))
        GLOBAL_SCHEDULE_CACHE.clear()
        direct = simulate_online(
            fleet, MRPC, arrivals, 4, options=ServingOptions(seed=3, output_lengths="geometric")
        )
        assert wrapped.to_dict() == direct.to_dict()
        # An options object's own output lengths win over the wrapper's default.
        fixed = simulate_decode_online(
            fleet, MRPC, arrivals, 4, options=ServingOptions(seed=3, output_lengths=2)
        )
        assert fixed.total_output_tokens == 8
        with pytest.raises(TypeError, match="not both"):
            simulate_decode_online(fleet, MRPC, arrivals, 4, options=ServingOptions(), seed=3)

    def test_hedging_refused_on_kv_capped_fleet(self):
        with pytest.raises(ValueError, match="hedging"):
            simulate_online(
                [_decode_device(kv_mb=64.0), _decode_device()],
                MRPC,
                PoissonArrivals(rate_qps=20.0),
                num_requests=8,
                hedging=True,
            )

    def test_kv_cap_gates_encoder_prefills(self):
        """An encoder run on a KV-capped device is a one-token decode run."""
        arrivals = PoissonArrivals(rate_qps=300.0)
        encoder = simulate_online(
            _decode_device(kv_mb=4.0), MRPC, arrivals, num_requests=60, seed=3
        )
        decode = simulate_decode_online(
            _decode_device(kv_mb=4.0), MRPC, arrivals, num_requests=60, output_lengths=1, seed=3
        )
        assert [r.completion_time for r in encoder.records] == [
            r.completion_time for r in decode.records
        ]
        assert decode.num_kv_stalls > 0
        uncapped = simulate_online(_decode_device(), MRPC, arrivals, num_requests=60, seed=3)
        assert uncapped.makespan_seconds < encoder.makespan_seconds

    def test_explicit_multi_token_stream_needs_output_lengths(self):
        requests = [Request(request_id=0, length=16, arrival_time=0.0, output_len=2)]
        with pytest.raises(ValueError, match="output_lengths"):
            simulate_online(_decode_device(), MRPC, requests)

    @pytest.mark.parametrize("output_lengths", [None, 1])
    def test_one_token_run_does_no_decode_work(self, monkeypatch, output_lengths):
        steps, members = [], []
        device = _decode_device()
        costed = device.decode_step_latency_seconds

        def count_steps(contexts):
            steps.append(contexts)
            return costed(contexts)

        class CountedRunningRequest(serving_engine._RunningRequest):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                members.append(self)

        monkeypatch.setattr(device, "decode_step_latency_seconds", count_steps)
        monkeypatch.setattr(serving_engine, "_RunningRequest", CountedRunningRequest)
        report = simulate_online(
            device,
            MRPC,
            PoissonArrivals(rate_qps=40.0),
            num_requests=48,
            output_lengths=output_lengths,
        )
        assert report.num_completed == 48
        assert steps == [] and members == []
        # The spies are live: a multi-token run goes through both.
        simulate_online(
            device, MRPC, PoissonArrivals(rate_qps=40.0), num_requests=8, output_lengths=3
        )
        assert steps and len(members) == 8
