"""The serving commands keep their command-line surface.

`serve` and `serving-sweep` derive their shared knobs from one base class,
and `plan`, `decode-sweep` and `repro live` map their own fields to the same
engine options.  These pins hold every default and every command-line flag
of the five commands to what they offered before those refactors, so none
can rename, drop or re-default a knob unnoticed.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

import repro.live
from repro.cli import build_parser, main
from repro.decode.sweep import DecodeSweepConfig
from repro.evaluation.serve import ServeConfig
from repro.evaluation.serving_sweep import ServingSweepConfig
from repro.planner.experiment import PlanConfig
from repro.serving import LeastLoadedRouter, TimeoutBatcher
from repro.serving.slo import CostModelRouter, DeadlineBatcher

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

PLAN_DEFAULTS = {
    "dataset": "mrpc",
    "devices": ["sparse-fpga", "gpu-rtx6000", "cpu-xeon"],
    "max_per_type": 2,
    "max_total": 3,
    "attainment_target": 0.95,
    "slo_ms": 250.0,
    "slo_per_token_ms": 0.0,
    "arrival": "trace",
    "trace_file": None,
    "qps": None,
    "requests": None,
    "batch_policy": "timeout",
    "batch_size": 16,
    "timeout_ms": 20.0,
    "routing": "least-loaded",
    "continuous_batching": False,
    "cache_length_bucket": 16,
    "jobs": 1,
    "prune": True,
    "compare_autoscaler": None,
    "provisioning_lag_s": 2.0,
    "autoscale_interval_s": 1.0,
    "model": "bert-base",
    "seed": 2022,
}

DECODE_DEFAULTS = {
    "dataset": "mrpc",
    "load_fractions": [0.25, 0.5, 0.75, 0.9, 1.1],
    "modes": ["iteration", "request"],
    "requests": 160,
    "device": "sparse-fpga",
    "kv_cache_mb": 32.0,
    "output_lengths": "geometric",
    "mean_output_len": 192.0,
    "max_output_len": 512,
    "arrival": "poisson",
    "slo_ms": None,
    "slo_per_token_ms": 0.0,
    "slo_per_output_token_ms": 0.0,
    "topk": [5, 30],
    "itl_budget_ms": 4.0,
    "accuracy_examples": 6,
    "accuracy_max_length": 86,
    "warmup_fraction": 0.1,
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
    "plan": (
        "--arrival --attainment-target --autoscale-interval-s --batch-policy "
        "--batch-size --cache-length-bucket --compare-autoscaler --config "
        "--continuous-batching --dataset --devices --format --help --jobs "
        "--max-per-type --max-total --model --no-continuous-batching --no-prune "
        "--output-dir --provisioning-lag-s --prune --qps --requests --routing --seed "
        "--set --slo-ms --slo-per-token-ms --timeout-ms --trace-file"
    ).split(),
    "decode-sweep": (
        "--accuracy-examples --accuracy-max-length --arrival --config --dataset "
        "--device --format --help --itl-budget-ms --kv-cache-mb --load-fractions "
        "--max-output-len --mean-output-len --model --modes --output-dir "
        "--output-lengths --requests --seed --set --slo-ms "
        "--slo-per-output-token-ms --slo-per-token-ms --topk --warmup-fraction"
    ).split(),
}

#: Every flag `repro live` offers.  Its on/off flags may also gain the
#: `--no-...` spelling every generated command has; nothing else may appear.
LIVE_FLAGS = (
    "--batch-policy --batch-size --continuous-batching --dataset --devices --format "
    "--help --host --max-queue-depth --output-dir --port --routing --scenario "
    "--shed-on-predicted-miss --slo-ms --timeout-ms --tolerance --validate"
).split()
LIVE_SWITCHES = ("--continuous-batching", "--shed-on-predicted-miss", "--validate")


def test_defaults_are_pinned():
    assert ServeConfig().to_dict() == SERVE_DEFAULTS
    assert ServingSweepConfig().to_dict() == SWEEP_DEFAULTS
    assert PlanConfig().to_dict() == PLAN_DEFAULTS
    assert DecodeSweepConfig().to_dict() == DECODE_DEFAULTS


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert set(FLAGS[command]) <= listed


def test_live_help_lists_every_flag_and_nothing_new(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["live", "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert set(LIVE_FLAGS) <= listed
    assert listed - set(LIVE_FLAGS) <= {"--no-" + flag[2:] for flag in LIVE_SWITCHES}


@pytest.mark.parametrize(
    "flags",
    [
        ["--port", "x"],
        ["--batch-size", "1.5"],
        ["--timeout-ms", "x"],
        ["--max-queue-depth", "1.5"],
        ["--slo-ms", "x"],
        ["--tolerance", "x"],
        ["--scenario", "bogus"],
        ["--format", "xml"],
        ["--devices"],
    ],
    ids=lambda flags: flags[0],
)
def test_live_flags_refuse_malformed_values(flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["live", *flags])
    assert excinfo.value.code == 2


class _Captured(Exception):
    """Stops `repro live` once the stub has seen what it would run."""


def _live_server_call(monkeypatch, flags: list[str]) -> dict:
    """What `repro live FLAGS` hands the HTTP server, without serving."""
    seen: dict = {}

    def server(gateway, host, port):
        seen.update(gateway=gateway, host=host, port=port)
        raise _Captured

    monkeypatch.setattr(repro.live, "LiveServer", server)
    with pytest.raises(_Captured):
        main(["live", *flags])
    return seen


def test_live_server_defaults_are_pinned(monkeypatch):
    seen = _live_server_call(monkeypatch, [])
    assert (seen["host"], seen["port"]) == ("127.0.0.1", 8100)
    gateway = seen["gateway"]
    assert gateway.dataset.name.lower() == "mrpc"
    assert [device.name for device in gateway.fleet] == ["gpu-rtx6000"]
    options = gateway.session.options
    policy = options.batch_policy
    assert type(policy) is TimeoutBatcher
    assert policy.batch_size == 16
    assert policy.timeout_s == pytest.approx(0.05, rel=1e-12)
    assert type(options.router) is LeastLoadedRouter
    assert options.max_queue_depth is None
    assert options.slo is None
    assert options.shed_on_predicted_miss is False
    assert options.continuous_batching is False


def test_live_server_flags_map_to_the_gateway(monkeypatch):
    seen = _live_server_call(
        monkeypatch,
        [
            "--host", "0.0.0.0", "--port", "0", "--dataset", "rte",
            "--devices", "gpu-rtx6000", "gpu-rtx6000", "--batch-policy", "deadline",
            "--batch-size", "8", "--timeout-ms", "10", "--routing", "cost-model",
            "--max-queue-depth", "32", "--slo-ms", "500", "--shed-on-predicted-miss",
            "--continuous-batching",
        ],
    )
    assert (seen["host"], seen["port"]) == ("0.0.0.0", 0)
    gateway = seen["gateway"]
    assert gateway.dataset.name.lower() == "rte"
    assert [device.name for device in gateway.fleet] == ["gpu-rtx6000"] * 2
    options = gateway.session.options
    policy = options.batch_policy
    assert type(policy) is DeadlineBatcher
    assert policy.batch_size == 8
    assert policy.timeout_s == pytest.approx(0.01, rel=1e-12)
    assert type(options.router) is CostModelRouter
    assert options.router.blacklist_s == 0.0
    assert options.max_queue_depth == 32
    assert options.slo.base_s == pytest.approx(0.5, rel=1e-12)
    assert (options.slo.per_token_s, options.slo.per_output_token_s) == (0.0, 0.0)
    assert options.shed_on_predicted_miss is True
    assert options.continuous_batching is True


@pytest.mark.parametrize(
    "flags, runner, tolerance",
    [
        ([], "run_live_validation", 0.02),
        (["--scenario", "crash"], "run_crash_validation", 0.02),
        (["--tolerance", "0.05"], "run_live_validation", 0.05),
    ],
)
def test_live_validate_runs_the_named_scenario(monkeypatch, flags, runner, tolerance):
    seen: dict = {}

    def run(**kwargs):
        seen.update(kwargs)
        raise _Captured

    for name in ("run_live_validation", "run_crash_validation"):
        monkeypatch.setattr(repro.live, name, run if name == runner else None)
    with pytest.raises(_Captured):
        main(["live", "--validate", *flags])
    assert seen == {"tolerance": tolerance}


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
