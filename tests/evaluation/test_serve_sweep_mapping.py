"""`serve` without a qps is the one-dataset `serving-sweep`, knob for knob."""

from __future__ import annotations

import json

import pytest

from repro.evaluation.serve import ServeConfig
from repro.experiments import run_experiment

_FAULTY_FLEET = {
    "devices": ("gpu-rtx6000",),
    "num_accelerators": 3,
    "fault_mtbf_s": 0.25,
    "fault_downtime_s": 0.08,
    "slo_ms": 300.0,
}

#: (serve knobs, the same knobs in serving-sweep spelling), keyed by test id.
SCENARIOS = {
    "fault-axis-remedies": (
        {
            **_FAULTY_FLEET,
            "routing": "cost-model",
            "faults": "crash-restart",
            "hedging": True,
            "max_retries": 2,
            "retry_backoff_ms": 30.0,
            "blacklist_ms": 200.0,
        },
        {
            **_FAULTY_FLEET,
            "router": "cost-model",
            "faults": ("crash-restart",),
            "hedging": True,
            "max_retries": 2,
            "retry_backoff_ms": 30.0,
            "blacklist_ms": 200.0,
        },
    ),
    "class-mix": (
        {
            "batch_policy": "priority-deadline",
            "classes": "interactive:0.5,batch:0.3,best-effort:0.2",
            "slo_ms": 50.0,
            "devices": ("gpu-rtx6000",),
            "num_accelerators": 2,
        },
        {
            "batch_policies": ("priority-deadline",),
            "classes": ("interactive:0.5,batch:0.3,best-effort:0.2",),
            "slo_ms": 50.0,
            "devices": ("gpu-rtx6000",),
            "num_accelerators": 2,
        },
    ),
    "every-other-knob": (
        {
            "dataset": "rte",
            "batch_policy": "bucketed",
            "num_buckets": 3,
            "timeout_ms": 7.5,
            "slo_ms": 80.0,
            "slo_per_token_ms": 0.05,
            "device_max_batch_size": 6,
            "device_max_batch_tokens": 2000,
            "continuous_batching": True,
            "max_queue_depth": 20,
            "warmup_fraction": 0.2,
            "devices": ("sparse-fpga,gpu-rtx6000",),
            "faults": "straggler+thermal-throttle",
            "fault_multiplier": 3.0,
            "fault_duration_s": 0.3,
            "fault_mtbf_s": 0.5,
            "seed": 7,
        },
        {
            "datasets": ("rte",),
            "batch_policies": ("bucketed",),
            "num_buckets": 3,
            "timeout_ms": 7.5,
            "slo_ms": 80.0,
            "slo_per_token_ms": 0.05,
            "device_max_batch_size": 6,
            "device_max_batch_tokens": 2000,
            "continuous_batching": True,
            "max_queue_depth": 20,
            "warmup_fraction": 0.2,
            "devices": ("sparse-fpga,gpu-rtx6000",),
            "faults": ("straggler+thermal-throttle",),
            "fault_multiplier": 3.0,
            "fault_duration_s": 0.3,
            "fault_mtbf_s": 0.5,
            "seed": 7,
        },
    ),
}


@pytest.mark.parametrize("serve_knobs, sweep_knobs", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_serve_sweep_fallback_matches_serving_sweep(serve_knobs, sweep_knobs):
    # serve defaults to exact billing, the sweep to 16-token buckets; pin
    # one value on both so the comparison is about the mapping alone.
    served = run_experiment(
        "serve", {"requests": 48, "cache_length_bucket": 16, **serve_knobs}
    )
    swept = run_experiment(
        "serving-sweep",
        {"datasets": ("mrpc",), "requests": 48, "cache_length_bucket": 16, **sweep_knobs},
    )
    assert served.mode == "sweep"
    assert json.dumps(served.sweep.to_dict(), indent=2) == json.dumps(
        swept.to_dict(), indent=2
    )


@pytest.mark.parametrize(
    "knob, value",
    [
        ("shed_on_predicted_miss", True),
        ("autoscaler", "queue-depth"),
        ("class_queue_limits", "batch:8"),
    ],
)
def test_load_sweep_refuses_online_only_knobs(knob, value):
    """The sweep has no such field, so it must not drop the knob silently."""
    with pytest.raises(ValueError, match=f"{knob} needs a single online run"):
        ServeConfig(slo_ms=50.0, **{knob: value})
    # The same knob is fine on a single online run.
    ServeConfig(slo_ms=50.0, qps=300.0, **{knob: value})
