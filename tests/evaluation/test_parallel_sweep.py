"""Parallel sweep execution: determinism and knob plumbing."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.evaluation import fan_out, serving_sweep
from repro.evaluation.fan_out import ENV_OVERRIDE_VARS
from repro.experiments import run_report

#: One dataset, two load points, few requests: enough to cross the process
#: boundary without making CI slow.
_SMALL = {
    "datasets": ("mrpc",),
    "load_fractions": (0.5, 1.1),
    "requests": 32,
    "batch_size": 8,
}


#: Fault and class axes plus non-default remedies: every one of these knobs
#: reaches the workers inside the pickled config.
_AXES = {
    **_SMALL,
    "devices": ("gpu-rtx6000",),
    "num_accelerators": 2,
    "router": "cost-model",
    "slo_ms": 300.0,
    "faults": ("none", "crash-restart"),
    "classes": ("none", "interactive:0.5,batch:0.5"),
    "fault_mtbf_s": 0.25,
    "fault_downtime_s": 0.08,
    "hedging": True,
    "max_retries": 2,
    "retry_backoff_ms": 30.0,
    "blacklist_ms": 200.0,
}


@pytest.mark.parametrize("jobs", [2])
def test_parallel_sweep_matches_serial_byte_for_byte(jobs):
    for knobs in (_SMALL, _AXES):
        serial = run_report("serving-sweep", {**knobs, "jobs": 1})
        parallel = run_report("serving-sweep", {**knobs, "jobs": jobs})
        # The config payload records the jobs knob; everything else --
        # including the replayed schedule-cache statistics -- must be
        # byte-identical.
        assert json.dumps(serial.payload["result"], indent=2) == json.dumps(
            parallel.payload["result"], indent=2
        )
        assert serial.payload["config"]["jobs"] == 1
        assert parallel.payload["config"]["jobs"] == jobs
        # Nothing is stripped before the reports cross the process boundary,
        # so the in-memory batch executions match too.
        assert len(serial.result.points) == len(parallel.result.points)
        for serial_point, parallel_point in zip(serial.result.points, parallel.result.points):
            assert serial_point.report.batches
            assert [b.execution for b in serial_point.report.batches] == [
                b.execution for b in parallel_point.report.batches
            ]
    rows = serial.payload["result"]["points"]
    assert any(row["fault"] == "crash-restart" and row["crashes"] > 0 for row in rows)
    assert any("att[interactive]" in row for row in rows)


def test_sweep_reports_cache_hit_rate_and_bucket():
    report = run_report("serving-sweep", _SMALL)
    result = report.payload["result"]
    assert result["cache_length_bucket"] == 16  # sweep default: quantized
    assert result["schedule_cache"] is not None
    assert 0.0 <= result["schedule_cache"]["hit_rate"] <= 1.0
    assert all("cache_hit" in point for point in result["points"])


def test_replayed_cache_stats_equal_live_counters_from_an_empty_cache(monkeypatch):
    """The journal replay is what a fresh serial process's shared cache counts."""
    from repro.devices import ScheduleCache, adapters

    fresh = ScheduleCache()
    monkeypatch.setattr(adapters, "GLOBAL_SCHEDULE_CACHE", fresh)
    monkeypatch.setattr(serving_sweep, "GLOBAL_SCHEDULE_CACHE", fresh)
    result = run_report("serving-sweep", {**_SMALL, "jobs": 1}).result
    assert fresh.num_evictions == 0
    for point in result.points:
        assert point.cache_stats == point.report.schedule_cache
    totals = result.schedule_cache
    assert (totals["hits"], totals["misses"]) == (fresh.hits, fresh.misses)
    assert fresh.hits > 0 and fresh._journal is None


def test_exact_billing_opt_out():
    report = run_report("serving-sweep", {**_SMALL, "cache_length_bucket": None})
    result = report.payload["result"]
    assert result["cache_length_bucket"] is None
    assert result["schedule_cache"] is not None


@pytest.mark.parametrize(
    "name, value",
    [("REPRO_PIPELINE_ENGINE", "reference"), ("REPRO_SCHEDULE_CACHE", "off")],
)
def test_parallel_sweep_honors_env_overrides(monkeypatch, name, value):
    """--jobs N must honor REPRO_* overrides byte-for-byte like a serial run.

    The pool is forced onto a spawn context, so every worker imports the
    package afresh and inherits no module state through fork.  Workers that
    started before a switch changed are covered in ``test_fan_out.py``.
    ``REPRO_SCHEDULE_CACHE=off`` is detectable in the payload
    (``schedule_cache`` goes null); the byte-equality assertion then pins
    both overrides.
    """
    monkeypatch.setenv(name, value)
    monkeypatch.setattr(fan_out, "_MP_CONTEXT", multiprocessing.get_context("spawn"))
    serial = run_report("serving-sweep", {**_SMALL, "jobs": 1})
    parallel = run_report("serving-sweep", {**_SMALL, "jobs": 2})
    assert json.dumps(serial.payload["result"], indent=2) == json.dumps(
        parallel.payload["result"], indent=2
    )
    if name == "REPRO_SCHEDULE_CACHE":
        # Proof the override actually reached the workers: with the cache
        # off no run may report cache statistics.
        assert parallel.payload["result"]["schedule_cache"] is None


def test_env_override_capture_roundtrip(monkeypatch):
    """Capture snapshots present *and* absent variables; apply restores both."""
    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "reference")
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE", raising=False)
    snapshot = fan_out._capture_env()
    assert snapshot["REPRO_PIPELINE_ENGINE"] == "reference"
    assert snapshot["REPRO_SCHEDULE_CACHE"] is None
    # Emulate a worker whose environment drifted the other way.
    monkeypatch.delenv("REPRO_PIPELINE_ENGINE")
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
    fan_out._apply_env(snapshot)
    import os

    assert os.environ.get("REPRO_PIPELINE_ENGINE") == "reference"
    assert "REPRO_SCHEDULE_CACHE" not in os.environ
    assert set(snapshot) == set(ENV_OVERRIDE_VARS)


def test_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        run_report("serving-sweep", {**_SMALL, "jobs": 0})
    with pytest.raises(ValueError, match="cache_length_bucket"):
        run_report("serving-sweep", {**_SMALL, "cache_length_bucket": 0})
