"""The one ``--jobs`` fan-out: ordering, errors, and spawn-safe callers."""

from __future__ import annotations

import json
import multiprocessing
import operator

import pytest

from repro.evaluation import fan_out
from repro.evaluation.runner import run_all_experiments
from repro.experiments import get_experiment, run_report


def _fail_on_two(value: int) -> int:
    if value == 2:
        raise RuntimeError(f"call {value} failed")
    return value


@pytest.fixture
def spawn(monkeypatch):
    """Force every pool onto spawn: workers inherit nothing through fork."""
    monkeypatch.setattr(fan_out, "_MP_CONTEXT", multiprocessing.get_context("spawn"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_back_in_submit_order(jobs):
    calls = [(value, 10) for value in range(7)]
    with fan_out.fan_out(jobs) as run:
        assert run(operator.mul, calls) == [value * 10 for value in range(7)]
        assert run(operator.mul, []) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_error_reraises(jobs):
    with pytest.raises(RuntimeError, match="call 2 failed"):
        with fan_out.fan_out(jobs) as run:
            run(_fail_on_two, [(1,), (2,), (3,)])


def test_workers_run_under_the_environment_the_pool_opened_with(spawn, monkeypatch):
    """Every worker sees the switches as set when ``fan_out`` opened."""
    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "reference")
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
    with fan_out.fan_out(2) as run:
        # Changed after the pool opened but before any worker starts: a
        # spawned worker copies os.environ at start, so only the snapshot
        # re-applied by the pool's initializer restores the switches.
        monkeypatch.delenv("REPRO_PIPELINE_ENGINE")
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "on")
        seen = run(fan_out._capture_env, [()] * 4)
    expected = {"REPRO_PIPELINE_ENGINE": "reference", "REPRO_SCHEDULE_CACHE": "off"}
    assert seen == [expected] * 4


def test_jobs_below_one_is_rejected():
    with pytest.raises(ValueError, match="jobs"):
        with fan_out.fan_out(0):
            pass


def test_parallel_plan_matches_serial_under_spawn(spawn):
    serial = run_report("plan", {"jobs": 1})
    parallel = run_report("plan", {"jobs": 2})
    assert json.dumps(serial.payload["result"], indent=2) == json.dumps(
        parallel.payload["result"], indent=2
    )


def test_parallel_repro_all_matches_serial_under_spawn(spawn):
    """Workers hand back whole reports: text, payload and the result object."""
    serial = run_all_experiments(jobs=1)
    parallel = run_all_experiments(jobs=2)
    assert list(parallel) == list(serial)
    for name, report in serial.items():
        assert parallel[name].text == report.text
        assert json.dumps(parallel[name].payload, indent=2) == json.dumps(
            report.payload, indent=2
        )
        # The unpickled result (fig5's lazy timelines included) renders
        # and serializes to what the worker produced.
        assert parallel[name].result is not None
        assert get_experiment(name).render(parallel[name].result) == report.text
        assert parallel[name].result.to_dict() == report.payload["result"]
