"""The serving knobs `serve` and `serving-sweep` share keep their surface.

Both configs derive the shared knobs from one base class; these pins hold
every default and every command-line flag to what the two commands offered
before the knobs were merged, so the merge cannot rename, drop or re-default
a knob unnoticed.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.cli import main
from repro.evaluation.serve import ServeConfig
from repro.evaluation.serving_sweep import ServingSweepConfig

SERVE_DEFAULTS = {
    "dataset": "mrpc",
    "qps": None,
    "requests": 192,
    "batch_size": 16,
    "batch_policy": "timeout",
    "timeout_ms": 20.0,
    "num_buckets": 4,
    "bucket_width": None,
    "routing": "least-loaded",
    "devices": ["sparse-fpga"],
    "num_accelerators": 1,
    "continuous_batching": False,
    "max_queue_depth": None,
    "shed_on_predicted_miss": False,
    "slo_ms": None,
    "slo_per_token_ms": 0.0,
    "device_max_batch_size": None,
    "device_max_batch_tokens": None,
    "faults": None,
    "classes": None,
    "class_queue_limits": None,
    "fault_mtbf_s": 5.0,
    "fault_downtime_s": 0.5,
    "fault_multiplier": 2.5,
    "fault_duration_s": 1.0,
    "hedging": False,
    "max_retries": 0,
    "retry_backoff_ms": 50.0,
    "blacklist_ms": 0.0,
    "warmup_fraction": 0.1,
    "arrival": "poisson",
    "trace_file": None,
    "cache_length_bucket": None,
    "autoscaler": None,
    "provisioning_lag_s": 2.0,
    "autoscale_interval_s": 1.0,
    "min_devices": 1,
    "model": "bert-base",
    "seed": 2022,
}

SWEEP_DEFAULTS = {
    "datasets": ["mrpc", "rte", "squad"],
    "load_fractions": [0.25, 0.5, 0.75, 0.9, 1.1],
    "batch_policies": ["timeout"],
    "routers": [],
    "requests": 192,
    "batch_size": 16,
    "devices": ["sparse-fpga"],
    "num_accelerators": 1,
    "router": "least-loaded",
    "arrival": "poisson",
    "timeout_ms": 20.0,
    "num_buckets": 4,
    "bucket_width": None,
    "continuous_batching": False,
    "max_queue_depth": None,
    "slo_ms": None,
    "slo_per_token_ms": 0.0,
    "device_max_batch_size": None,
    "device_max_batch_tokens": None,
    "faults": [],
    "classes": [],
    "fault_mtbf_s": 5.0,
    "fault_downtime_s": 0.5,
    "fault_multiplier": 2.5,
    "fault_duration_s": 1.0,
    "hedging": False,
    "max_retries": 0,
    "retry_backoff_ms": 50.0,
    "blacklist_ms": 0.0,
    "warmup_fraction": 0.1,
    "cache_length_bucket": 16,
    "jobs": 1,
    "model": "bert-base",
    "seed": 2022,
}

_COMMON_FLAGS = (
    "--arrival --batch-size --blacklist-ms --bucket-width --cache-length-bucket "
    "--classes --config --continuous-batching --device-max-batch-size "
    "--device-max-batch-tokens --devices --fault-downtime-s --fault-duration-s "
    "--fault-mtbf-s --fault-multiplier --faults --format --hedging --help "
    "--max-queue-depth --max-retries --model --no-continuous-batching --no-hedging "
    "--num-accelerators --num-buckets --output-dir --requests --retry-backoff-ms "
    "--seed --set --slo-ms --slo-per-token-ms --timeout-ms --warmup-fraction"
).split()

FLAGS = {
    "serve": _COMMON_FLAGS
    + (
        "--autoscale-interval-s --autoscaler --batch-policy --class-queue-limits "
        "--dataset --min-devices --no-shed-on-predicted-miss --provisioning-lag-s "
        "--qps --routing --shed-on-predicted-miss --trace-file"
    ).split(),
    "serving-sweep": _COMMON_FLAGS
    + "--batch-policies --datasets --jobs --load-fractions --router --routers".split(),
}


def test_defaults_are_pinned():
    assert ServeConfig().to_dict() == SERVE_DEFAULTS
    assert ServingSweepConfig().to_dict() == SWEEP_DEFAULTS


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert set(FLAGS[command]) <= listed


def test_shared_knobs_are_declared_once():
    from repro.evaluation.serving_sweep import ServingKnobs

    shared = {f.name for f in dataclasses.fields(ServingKnobs)}
    assert not shared & set(vars(ServeConfig)["__annotations__"])
    # The sweep only re-defaults its schedule-cache bucket.
    assert shared & set(vars(ServingSweepConfig)["__annotations__"]) == {
        "cache_length_bucket"
    }


def test_policies_that_ignore_num_buckets_accept_any_value():
    assert ServeConfig(num_buckets=0, bucket_width=0.0).num_buckets == 0
    assert ServingSweepConfig(batch_policies=("timeout", "deadline"), num_buckets=0)
