"""The sim-vs-live agreement contract on the checked-in validation trace.

This is the acceptance test of the live subsystem: a trace replayed through
real sockets and wall-clock sleeps must reproduce the simulator's report --
counts exactly, rates within 2 %.
"""

from __future__ import annotations

import json

import pytest

from repro.live import (
    CRASH_TRACE_PATH,
    VALIDATION_TRACE_PATH,
    build_crash_trace,
    build_validation_trace,
    load_validation_trace,
    run_crash_validation,
    run_live_validation,
    simulate_trace,
    trace_requests,
)


def test_checked_in_trace_matches_builder():
    """The JSON on disk is exactly the builder's output (no silent drift)."""
    on_disk = json.loads(VALIDATION_TRACE_PATH.read_text())["entries"]
    assert on_disk == build_validation_trace()


def test_trace_requests_are_sorted_and_deadlined():
    requests = trace_requests(load_validation_trace())
    assert len(requests) == 80
    assert all(r.deadline == pytest.approx(r.arrival_time + 2.0) for r in requests)
    arrivals = [r.arrival_time for r in requests]
    assert arrivals == sorted(arrivals)


def test_trace_requests_keep_output_len():
    """Both engines replay the same workload: the simulator refuses a decode trace."""
    entries = [{"t": 0, "length": 8, "output_len": 4}, {"t": 0.1, "length": 8}]
    assert [r.output_len for r in trace_requests(entries)] == [4, 1]
    with pytest.raises(ValueError, match="pass output_lengths"):
        simulate_trace(entries)


def test_simulator_baseline_on_validation_trace():
    """Pin the simulated outcome the live gateway is validated against."""
    report = simulate_trace(load_validation_trace())
    assert report.num_requests == 80
    assert report.num_completed == 63
    assert report.num_shed == 17
    assert report.num_shed_late == 0
    # Generous SLOs: every served request lands on time.
    assert report.attainment_rate == pytest.approx(63 / 80)


def test_sim_vs_live_agreement_within_tolerance():
    """Replay through HTTP + wall clock; diff against the simulator.

    Counts must match exactly (the trace gives every admission decision
    hundreds of milliseconds of margin); goodput / sustained QPS / makespan
    must agree within 2 % (the only live skew is pacing jitter).
    """
    result = run_live_validation(tolerance=0.02)
    agreement = result["agreement"]
    assert agreement["within_tolerance"], json.dumps(agreement, indent=2)
    for key, entry in agreement["counts"].items():
        assert entry["match"], f"{key}: sim={entry['sim']} live={entry['live']}"
    # /stats totals equal the replayed-trace simulator totals, exactly.
    assert result["live"]["num_completed"] == result["sim"]["num_completed"] == 63
    assert result["live"]["num_shed"] == result["sim"]["num_shed"] == 17
    assert result["live"]["attainment_rate"] == result["sim"]["attainment_rate"]
    # The live gateway drained cleanly.
    live = result["live"]["live"]
    assert live["stopped"] is True
    assert live["queue_depth"] == 0
    assert live["in_flight_batches"] == 0
    assert live["worker_restarts"] == [0]


def test_checked_in_crash_trace_matches_builder():
    """The crash-scenario JSON on disk is exactly the builder's output."""
    on_disk = json.loads(CRASH_TRACE_PATH.read_text())["entries"]
    assert on_disk == build_crash_trace()


def test_crash_scenario_sim_vs_live_agreement():
    """The extended contract: a scripted device crash produces the same
    record-level outcome in both engines -- the simulator crashes the batch
    mid-execution at the scripted instant, the live gateway crashes the
    worker on the matching pickup cue, and both replay the lost batch at
    the original drain time (the crashed booking stands in both engines).

    Counts (including crash/replay/shed counters) must match exactly, rates
    within 2 %, and the live supervisor's restart count must equal the
    simulator's crash count.
    """
    result = run_crash_validation(tolerance=0.02)
    agreement = result["agreement"]
    assert agreement["within_tolerance"], json.dumps(agreement, indent=2)
    for key, entry in agreement["counts"].items():
        assert entry["match"], f"{key}: sim={entry['sim']} live={entry['live']}"
    # Pin the scenario itself: one crash, the whole 16-request batch replayed,
    # nothing shed -- the requeued batch lands inside every deadline.
    assert result["sim"]["num_crashes"] == result["live"]["num_crashes"] == 1
    assert result["sim"]["num_replayed"] == result["live"]["num_replayed"] == 16
    assert result["sim"]["num_shed_crashed"] == 0
    assert result["sim"]["num_completed"] == result["live"]["num_completed"] == 39
    supervision = agreement["supervision"]
    assert supervision["worker_restarts"] == [1]
    assert supervision["requeued_batches"] == 1
    assert supervision["restarts_match_crashes"] is True
