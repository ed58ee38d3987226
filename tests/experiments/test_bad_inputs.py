"""Non-finite knobs and malformed traces fail fast with a ValueError.

A NaN compares false against every bound, so it used to slip past the range
checks and either stall the simulation forever (a NaN offered rate or trace
time never lets the batcher's timer fire) or skew it silently (a NaN SLO
budget reports 0 % attainment).  Every case runs under a wall-clock deadline
so a regression fails the test instead of hanging the suite.
"""

from __future__ import annotations

import contextlib
import re
import signal

import pytest

from repro.cli import main
from repro.experiments import run_experiment
from repro.serving import TraceArrivals

#: Generous bound: each case below finishes in well under a second.
DEADLINE_S = 15


@contextlib.contextmanager
def deadline(seconds: float = DEADLINE_S):
    """Raise TimeoutError in the main thread if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: CLI invocations with one non-finite knob each, keyed by test id.
NON_FINITE_ARGV = {
    "serve-qps-nan": ["serve", "--qps", "nan", "--requests", "16"],
    "serve-qps-inf": ["serve", "--qps", "inf", "--requests", "16"],
    "serve-slo-nan": ["serve", "--slo-ms", "nan", "--requests", "16"],
    "sweep-load-nan": [
        "serving-sweep", "--datasets", "mrpc", "--requests", "16",
        "--load-fractions", "0.5", "nan",
    ],
    "plan-qps-nan": ["plan", "--arrival", "poisson", "--qps", "nan", "--requests", "16"],
    "decode-slo-nan": [
        "decode-sweep", "--slo-ms", "nan", "--requests", "8", "--accuracy-examples", "0",
    ],
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGV.values(), ids=NON_FINITE_ARGV.keys())
def test_cli_rejects_non_finite_knobs(argv, capsys):
    with deadline(), pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "trace, message",
    [
        ([0.0, float("nan"), 0.2], "finite"),
        ([0.0, float("inf")], "finite"),
        ([[0.0, 64], [float("nan"), 64]], "finite"),
        ([[0.0, 64], [0.1, float("inf")]], "finite"),
        ([0.0, [0.1, 64]], "mixed"),
        ([[0.0, 64], 0.1], "mixed"),
        ([[0.0, 64, 3]], "pair"),
        ([None], "finite"),
    ],
)
def test_trace_arrivals_rejects_bad_entries(trace, message):
    with pytest.raises(ValueError, match=message):
        TraceArrivals(trace=trace)


#: Bad trace files as JSON text (Python's json reads NaN / Infinity).
BAD_TRACE_FILES = {
    "nan-time": "[0.0, NaN, 0.2]",
    "infinite-time": "[0.0, Infinity]",
    "mixed-entries": "[[0.0, 64], 0.1]",
    "nan-pair": '{"trace": [[0.0, 64], [NaN, 64]]}',
}


@pytest.mark.parametrize("experiment", ["serve", "plan"])
@pytest.mark.parametrize("kind", sorted(BAD_TRACE_FILES))
def test_bad_trace_file_is_a_value_error(experiment, kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(BAD_TRACE_FILES[kind])
    config = {"arrival": "trace", "trace_file": str(path)}
    if experiment == "plan":
        config |= {"devices": ("gpu-rtx6000",), "max_per_type": 1, "max_total": 1}
    with deadline(), pytest.raises(ValueError, match=re.escape(str(path))):
        run_experiment(experiment, config)


@pytest.mark.parametrize("experiment", ["serve", "plan"])
def test_trace_file_without_trace_arrival_is_a_value_error(experiment, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("[0.0, 0.1, 0.2]")
    config = {"arrival": "poisson", "qps": 300.0, "requests": 16, "trace_file": str(path)}
    if experiment == "plan":
        config |= {"devices": ("gpu-rtx6000",), "max_per_type": 1, "max_total": 1}
    with deadline(), pytest.raises(ValueError, match="trace_file is only read by arrival 'trace'"):
        run_experiment(experiment, config)


#: Knobs a component rejects only when it is built, keyed by test id.  The
#: config builds each one at validation time, so the CLI reports a config
#: error (exit 2) instead of failing mid-run.
COMPONENT_ARGV = {
    "serve-num-buckets": (
        ["serve", "--qps", "300", "--requests", "16", "--batch-policy", "bucketed",
         "--num-buckets", "0"],
        "num_buckets must be >= 1",
    ),
    "serve-bucket-width": (
        ["serve", "--qps", "300", "--requests", "16", "--batch-policy", "bucketed",
         "--bucket-width", "0"],
        "bucket_width must be > 0",
    ),
    "sweep-num-buckets": (
        ["serving-sweep", "--batch-policies", "bucketed", "--num-buckets", "0"],
        "num_buckets must be >= 1",
    ),
    "serve-min-devices": (
        ["serve", "--qps", "300", "--requests", "16", "--autoscaler", "queue-depth",
         "--min-devices", "5"],
        "min_devices",
    ),
    "serve-min-devices-static": (
        ["serve", "--qps", "300", "--requests", "16", "--min-devices", "5"],
        "min_devices sizes an elastic pool and needs an autoscaler",
    ),
}


@pytest.mark.parametrize(
    "argv, message", COMPONENT_ARGV.values(), ids=COMPONENT_ARGV.keys()
)
def test_cli_reports_component_knobs_as_config_errors(argv, message, capsys):
    with deadline(), pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


#: ``repro live`` flags the gateway rejects while it is being built.
LIVE_ARGV = {
    "batch-size": (["--batch-size", "0"], "batch_size must be >= 1"),
    "max-queue-depth": (["--max-queue-depth", "0"], "max_queue_depth must be >= 1"),
    "timeout": (["--timeout-ms", "-5"], "timeout_s must be >= 0"),
    "devices": (["--devices", "nope"], "Unknown device 'nope'"),
    "slo-nan": (["--slo-ms", "nan"], "base_s must be a finite number"),
}


@pytest.mark.parametrize("flags, message", LIVE_ARGV.values(), ids=LIVE_ARGV.keys())
def test_live_reports_bad_flags_as_config_errors(flags, message, capsys):
    with deadline(), pytest.raises(SystemExit) as excinfo:
        main(["live", "--port", "0", *flags])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


#: ``repro live`` flags refused before anything runs: a ``--validate`` run
#: replays its own scenario, so a serving flag would be silently ignored (and
#: a server run ignores the validation flags), and a tolerance that is not a
#: finite number >= 0 makes the verdict meaningless.
LIVE_VALIDATE_ARGV = {
    "timeout-nan": (["--port", "0", "--timeout-ms", "nan"], "timeout_s must be >= 0 and finite"),
    "validate-batch-size": (["--validate", "--batch-size", "8"], "--batch-size"),
    "validate-devices": (["--validate", "--devices", "cpu-xeon"], "--devices"),
    "validate-continuous": (["--validate", "--continuous-batching"], "--continuous-batching"),
    "validate-port": (["--validate", "--port", "0"], "--port"),
    "tolerance-nan": (["--validate", "--tolerance", "nan"], "tolerance must be finite"),
    "tolerance-inf": (["--validate", "--tolerance", "inf"], "tolerance must be finite"),
    "tolerance-negative": (["--validate", "--tolerance", "-0.1"], "tolerance must be >= 0"),
    "server-scenario": (["--port", "0", "--scenario", "crash"], "--scenario: only read"),
    "server-tolerance": (["--port", "0", "--tolerance", "0.5"], "--tolerance: only read"),
}


@pytest.mark.parametrize(
    "flags, message", LIVE_VALIDATE_ARGV.values(), ids=LIVE_VALIDATE_ARGV.keys()
)
def test_live_refuses_ignored_flags_and_bad_tolerance(flags, message, capsys):
    with deadline(), pytest.raises(SystemExit) as excinfo:
        main(["live", *flags])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
