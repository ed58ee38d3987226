"""Fast-path simulation core benchmark: reference oracle vs fast path.

Runs the default ``serving-sweep`` experiment three ways:

1. **reference / cache off** -- the pure-Python coarse-pipeline recurrence
   with every batch re-simulated: the pre-fast-path hot path, and the
   wall-clock baseline the speedup is measured against;
2. **reference / cache on** -- the oracle engine behind the shared schedule
   cache (the equality witness);
3. **fast / cache on** -- the shipped configuration: event-free recurrence,
   shared length-quantized schedule cache.

The JSON payloads of (2) and (3) must be byte-identical -- the fast
engine reproduces the oracle cycle-for-cycle -- and (3) must not be slower
than (1) (CI fails otherwise).  The measured speedup lands in
``bench_latest.json`` as the repo's headline perf-trajectory number.
"""

from __future__ import annotations

import json
import time

from conftest import record_metric, run_once

from repro.devices import GLOBAL_SCHEDULE_CACHE
from repro.evaluation.report import format_key_values
from repro.experiments import list_experiments, run_report


def _timed_sweep(monkeypatch, engine: str, cache: str) -> tuple[float, dict]:
    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", engine)
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", cache)
    GLOBAL_SCHEDULE_CACHE.clear()
    start = time.perf_counter()
    report = run_report("serving-sweep")
    elapsed = time.perf_counter() - start
    return elapsed, report.payload


def test_bench_fast_path_equivalence_and_speedup(benchmark, write_report, monkeypatch):
    list_experiments()  # warm the registry so imports stay out of the timings
    reference_seconds, _ = _timed_sweep(monkeypatch, "reference", "off")
    _, oracle_payload = _timed_sweep(monkeypatch, "reference", "on")

    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "fast")
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "on")
    GLOBAL_SCHEDULE_CACHE.clear()
    start = time.perf_counter()
    fast_report = run_once(benchmark, run_report, "serving-sweep")
    fast_seconds = time.perf_counter() - start

    # The fast engine must reproduce the reference oracle exactly:
    # byte-identical machine-readable output for a fixed seed.
    assert json.dumps(fast_report.payload, indent=2) == json.dumps(
        oracle_payload, indent=2
    )
    # CI gate: the fast path must never regress below the reference path.
    assert fast_seconds < reference_seconds, (fast_seconds, reference_seconds)

    speedup = reference_seconds / fast_seconds
    cache_stats = fast_report.result.schedule_cache or {}
    record_metric(
        reference_seconds=round(reference_seconds, 4),
        fast_seconds=round(fast_seconds, 4),
        speedup=round(speedup, 2),
        cache_hit_rate=round(cache_stats.get("hit_rate", 0.0), 4),
    )
    write_report(
        "fast_path",
        format_key_values(
            {
                "reference engine, cache off (s)": round(reference_seconds, 4),
                "fast engine, shared cache (s)": round(fast_seconds, 4),
                "speedup": f"{speedup:.1f}x",
                "schedule-cache hit rate": f"{cache_stats.get('hit_rate', 0.0):.1%}",
                "outputs byte-identical": True,
            }
        ),
    )
