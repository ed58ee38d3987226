"""Trajectory pins for both simulators over a small scenario matrix.

Each scenario runs ``simulate_online`` or ``simulate_decode_online`` at a
reduced size and hashes everything that makes up its trajectory: the
``to_dict()`` summary, every request record, every batch, the shed causes
in shed order and the queue-depth timeline.  The expected digests were
captured from the engines before they shared one event loop (the
attainment-autoscaler scenario's before its decisions counted their window
incrementally, the wide tied-decode scenario's before the decode loop kept
per-device wake times, the mixed-fleet scenario's before replicas shared one
cost query, the long-model scenario's before the cycle solver's per-coordinate
steady-state test), so any change
to when a batch forms, where it routes, what it costs or when a decode step
runs shows up here.

Floats are hashed at 12 significant digits: enough to pin every scheduling
decision, while tolerating last-ulp differences between NumPy builds.

To re-capture after an intended behaviour change, run
``PYTHONPATH=src python tests/serving/test_trajectory_pins.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.decode import DecodeRequest, GeometricOutputLength, simulate_decode_online
from repro.devices import build_device, build_fleet
from repro.devices.schedule_cache import GLOBAL_SCHEDULE_CACHE
from repro.faults import CrashRestartFaults, StragglerFaults
from repro.serving import (
    ClassMixArrivals,
    CostModelRouter,
    DeadlineBatcher,
    FixedSizeBatcher,
    LeastLoadedRouter,
    PoissonArrivals,
    PredictedAttainmentAutoscaler,
    PriorityDeadlineBatcher,
    QueueDepthAutoscaler,
    SLOSpec,
    TimeoutBatcher,
)
from repro.serving.engine import simulate_online
from repro.transformer.configs import MRPC, SQUAD_V11 as SQUAD, get_model_config

BERT = get_model_config("bert-base")
BERT_LARGE = get_model_config("bert-large")
MIB = 2**20


def _fpga(dataset=SQUAD, replicas: int = 1, **knobs):
    return build_fleet("sparse-fpga", model=BERT, dataset=dataset, replicas=replicas, **knobs)


def _decode_kv_iteration():
    return simulate_decode_online(
        _fpga(kv_cache_bytes=24 * MIB, replicas=2),
        SQUAD,
        PoissonArrivals(rate_qps=80.0),
        num_requests=60,
        output_lengths=GeometricOutputLength(mean_output_len=24.0, max_output_len=96),
        batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.01),
        seed=11,
    )


def _decode_kv_gang():
    return simulate_decode_online(
        _fpga(kv_cache_bytes=24 * MIB, replicas=2),
        SQUAD,
        PoissonArrivals(rate_qps=80.0),
        num_requests=60,
        output_lengths=GeometricOutputLength(mean_output_len=24.0, max_output_len=96),
        batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.01),
        iteration_level=False,
        seed=11,
    )


def _decode_limits_queue_depth():
    return simulate_decode_online(
        _fpga(dataset=MRPC, replicas=2, max_batch_size=3, kv_cache_bytes=8 * MIB),
        MRPC,
        PoissonArrivals(rate_qps=400.0),
        num_requests=80,
        output_lengths=GeometricOutputLength(mean_output_len=8.0, max_output_len=32),
        batch_policy=FixedSizeBatcher(batch_size=8),
        max_queue_depth=12,
        seed=5,
    )


def _decode_deadline_predicted_miss():
    return simulate_decode_online(
        _fpga(dataset=MRPC, replicas=2, kv_cache_bytes=8 * MIB),
        MRPC,
        PoissonArrivals(rate_qps=300.0),
        num_requests=80,
        output_lengths=GeometricOutputLength(mean_output_len=8.0, max_output_len=32),
        batch_policy=DeadlineBatcher(batch_size=8),
        router=CostModelRouter(),
        slo=SLOSpec(base_s=0.02, per_output_token_s=0.002),
        shed_on_predicted_miss=True,
        seed=3,
    )


def _decode_classes_queue_limits():
    return simulate_decode_online(
        _fpga(dataset=MRPC, replicas=2),
        MRPC,
        ClassMixArrivals(
            base=PoissonArrivals(rate_qps=600.0),
            mix="interactive:0.5,batch:0.3,best-effort:0.2",
        ),
        num_requests=80,
        output_lengths=GeometricOutputLength(mean_output_len=6.0, max_output_len=24),
        batch_policy=PriorityDeadlineBatcher(batch_size=8),
        class_queue_limits={"best-effort": 3, "batch": 6},
        seed=9,
    )


def _decode_explicit_token_limit():
    # An explicit two-phase stream on a token-capped, KV-capped mixed fleet:
    # limit splits and KV stalls in the same dispatch.
    lengths = [40, 12, 90, 33, 64, 18, 120, 7, 55, 80] * 4
    requests = [
        DecodeRequest(
            request_id=i,
            arrival_time=0.004 * i,
            length=length,
            output_len=1 + (i * 7) % 13,
        )
        for i, length in enumerate(lengths)
    ]
    fleet = [
        build_device(
            "sparse-fpga", model=BERT, dataset=SQUAD, max_batch_tokens=200, kv_cache_bytes=6 * MIB
        ),
        build_device("sparse-fpga", model=BERT, dataset=SQUAD, kv_cache_bytes=4 * MIB),
    ]
    return simulate_decode_online(
        fleet,
        SQUAD,
        requests,
        batch_policy=TimeoutBatcher(batch_size=6, timeout_s=0.005),
        seed=0,
    )


def _decode_wide_tied(iteration_level: bool = True):
    # Six identical replicas receive identical prefill batches at the same
    # instant, so their decode steps end together; more ready joiners than
    # free slots wait at every boundary, and prefills stall on KV.
    prompts = [32, 64, 48, 96]
    outputs = [1, 3, 6, 12]
    requests = [
        DecodeRequest(
            request_id=24 * burst + slot,
            length=prompts[slot % 4],
            arrival_time=0.01 * burst,
            output_len=outputs[(slot + burst) % 4],
        )
        for burst in range(8)
        for slot in range(24)
    ]
    return simulate_decode_online(
        _fpga(dataset=MRPC, replicas=6, max_batch_size=4, kv_cache_bytes=10 * MIB),
        MRPC,
        requests,
        batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.005),
        iteration_level=iteration_level,
        seed=0,
    )


def _encoder_plain():
    return simulate_online(
        _fpga(dataset=MRPC, replicas=2),
        MRPC,
        PoissonArrivals(rate_qps=300.0),
        num_requests=120,
        batch_policy=FixedSizeBatcher(batch_size=8),
        seed=2,
    )


def _encoder_slo():
    return simulate_online(
        _fpga(dataset=MRPC, replicas=2, max_batch_size=6),
        MRPC,
        PoissonArrivals(rate_qps=500.0),
        num_requests=120,
        batch_policy=DeadlineBatcher(batch_size=8),
        router=CostModelRouter(),
        slo=SLOSpec(base_s=0.04),
        shed_on_predicted_miss=True,
        max_queue_depth=10,
        seed=4,
    )


def _encoder_classes():
    return simulate_online(
        _fpga(dataset=MRPC, replicas=2),
        MRPC,
        ClassMixArrivals(
            base=PoissonArrivals(rate_qps=500.0),
            mix="interactive:0.5,batch:0.3,best-effort:0.2",
        ),
        num_requests=120,
        batch_policy=PriorityDeadlineBatcher(batch_size=8),
        router=CostModelRouter(),
        class_queue_limits={"best-effort": 4},
        seed=6,
    )


def _encoder_elastic_chaos():
    return simulate_online(
        _fpga(dataset=MRPC, replicas=4),
        MRPC,
        PoissonArrivals(rate_qps=600.0),
        num_requests=150,
        batch_policy=DeadlineBatcher(batch_size=8),
        router=CostModelRouter(blacklist_s=0.02),
        slo=SLOSpec(base_s=0.08),
        shed_on_predicted_miss=True,
        autoscaler=QueueDepthAutoscaler(scale_up_depth=4.0, scale_down_depth=1.0),
        provisioning_lag_s=0.02,
        autoscale_interval_s=0.01,
        min_devices=1,
        initial_devices=2,
        faults=(
            CrashRestartFaults(mtbf_s=0.08, downtime_s=0.01),
            StragglerFaults(mtbs_s=0.05, duration_s=0.02, multiplier=2.0),
        ),
        hedging=True,
        max_retries=2,
        retry_backoff_s=0.005,
        seed=8,
    )


def _encoder_elastic_attainment():
    # The attainment-feedback autoscaler: every decision reads the window's
    # on-time completions and predicted-miss sheds, so a miscounted window
    # moves the scaling timeline.
    return simulate_online(
        _fpga(dataset=MRPC, replicas=4),
        MRPC,
        PoissonArrivals(rate_qps=300.0),
        num_requests=200,
        batch_policy=DeadlineBatcher(batch_size=8),
        router=CostModelRouter(),
        slo=SLOSpec(base_s=0.12),
        shed_on_predicted_miss=True,
        autoscaler=PredictedAttainmentAutoscaler(target=0.9),
        provisioning_lag_s=0.02,
        autoscale_interval_s=0.01,
        min_devices=1,
        initial_devices=1,
        seed=14,
    )


def _encoder_classes_chaos():
    # Priority EDF under crash requeues: replayed requests go back to the
    # head of the formation queue, so the tiers are rebuilt from a queue
    # that is not an append of the previous one.
    return simulate_online(
        _fpga(dataset=MRPC, replicas=2),
        MRPC,
        ClassMixArrivals(
            base=PoissonArrivals(rate_qps=400.0),
            mix="interactive:0.5,batch:0.3,best-effort:0.2",
        ),
        num_requests=150,
        batch_policy=PriorityDeadlineBatcher(batch_size=8),
        router=CostModelRouter(blacklist_s=0.02),
        faults=CrashRestartFaults(mtbf_s=0.1, downtime_s=0.01),
        max_retries=2,
        retry_backoff_s=0.005,
        seed=12,
    )


def _encoder_mixed_fleet_chaos():
    # An interleaved sparse/baseline fleet: routing scores unlike designs in
    # turn, batches above the devices' size limit split at dispatch, and a
    # blacklisted device drops out of the candidates, so two replicas of one
    # design are scored back to back with the other design's replica between
    # them skipped.
    return simulate_online(
        build_fleet(
            ("sparse-fpga", "baseline-fpga"),
            model=BERT,
            dataset=MRPC,
            replicas=3,
            max_batch_size=8,
        ),
        MRPC,
        ClassMixArrivals(
            base=PoissonArrivals(rate_qps=1500.0),
            mix="interactive:0.5,batch:0.3,best-effort:0.2",
        ),
        num_requests=150,
        batch_policy=PriorityDeadlineBatcher(batch_size=12),
        router=CostModelRouter(blacklist_s=0.1),
        faults=CrashRestartFaults(mtbf_s=0.1, downtime_s=0.01),
        max_retries=2,
        retry_backoff_s=0.005,
        seed=15,
    )


def _encoder_long_model():
    # bert-large's 24 layers: the cycle solver reaches its steady state after
    # a few layers and extrapolates over twenty or more, where every other
    # pin's 12-layer model leaves fewer than ten.
    return simulate_online(
        build_fleet("sparse-fpga", model=BERT_LARGE, dataset=SQUAD, replicas=2),
        SQUAD,
        PoissonArrivals(rate_qps=140.0),
        num_requests=400,
        batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.05),
        router=LeastLoadedRouter(),
        seed=21,
    )


SCENARIOS = {
    "decode-kv-iteration": _decode_kv_iteration,
    "decode-kv-gang": _decode_kv_gang,
    "decode-limits-queue-depth": _decode_limits_queue_depth,
    "decode-deadline-predicted-miss": _decode_deadline_predicted_miss,
    "decode-classes-queue-limits": _decode_classes_queue_limits,
    "decode-explicit-token-limit": _decode_explicit_token_limit,
    "decode-wide-tied": _decode_wide_tied,
    "encoder-plain": _encoder_plain,
    "encoder-slo": _encoder_slo,
    "encoder-classes": _encoder_classes,
    "encoder-elastic-chaos": _encoder_elastic_chaos,
    "encoder-elastic-attainment": _encoder_elastic_attainment,
    "encoder-classes-chaos": _encoder_classes_chaos,
    "encoder-mixed-fleet-chaos": _encoder_mixed_fleet_chaos,
    "encoder-long-model": _encoder_long_model,
}

EXPECTED = {
    "decode-kv-iteration": "784462960b629c559ed24173",
    "decode-kv-gang": "5551cf5046adf584d810e20a",
    "decode-limits-queue-depth": "cf16c8d937ec7976c24c4d06",
    "decode-deadline-predicted-miss": "3a285a3a2f1da6f2d89aa827",
    "decode-classes-queue-limits": "7bb6729f96dafd1c3cf36b7c",
    "decode-explicit-token-limit": "d4a81d81fd035e4307e6d5af",
    "decode-wide-tied": "3e941d4376f88f719b831182",
    "encoder-plain": "2abec58c4dcf2f271546fa20",
    "encoder-slo": "d9f4b7cb162ae8277024c7d7",
    "encoder-classes": "f05361cce90b79f07ae8909f",
    "encoder-elastic-chaos": "52826496e2c827382b64532a",
    "encoder-elastic-attainment": "4811b8b365a903c4870acbae",
    "encoder-classes-chaos": "b30f4719f0465eecc84850a1",
    "encoder-mixed-fleet-chaos": "f8ee2b60eefd9a0948046465",
    "encoder-long-model": "a4c352e8c1c93b2bf55347f5",
}


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "item"):  # NumPy scalars
        return _canonical(value.item())
    return value


def trajectory(report) -> dict:
    """Everything the pin hashes, as plain JSON-ready data."""
    return _canonical(
        {
            "summary": report.to_dict(),
            "records": [
                (
                    r.request.request_id,
                    r.dispatch_time,
                    r.start_time,
                    r.completion_time,
                    r.device_index,
                    r.batch_id,
                    getattr(r, "first_token_time", None),
                )
                for r in report.records
            ],
            "batches": [
                (
                    b.batch_id,
                    b.device_index,
                    b.dispatch_time,
                    b.start_time,
                    b.execution.latency_seconds,
                    b.request_ids,
                )
                for b in report.batches
            ],
            "shed": list(report.shed_causes.items()),
            "queue_depth": report.queue_depth_timeline,
        }
    )


def run(name: str):
    """Run one scenario from an empty schedule cache.

    The report's cache counters count hits in the process-wide cache, so
    they would otherwise depend on which tests ran first.
    """
    GLOBAL_SCHEDULE_CACHE.clear()
    return SCENARIOS[name]()


def digest(report) -> str:
    payload = json.dumps(trajectory(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trajectory_matches_pin(name):
    assert digest(run(name)) == EXPECTED[name]


if __name__ == "__main__":
    for name in SCENARIOS:
        print(f'    "{name}": "{digest(run(name))}",')
