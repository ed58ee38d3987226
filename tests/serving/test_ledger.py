"""The completion ledger's folds against the record-by-record formulas.

A report keeps its completions as columns (``CompletionLedger``) and folds
them into every metric; ``report.records`` is a view built on demand.  The
oracle here is the formulas the report computed over its records before the
ledger existed, rewritten over that view.  Floats are compared by
``float.hex``, so a fold that reorders a sum or re-associates an operand
fails.  A second reading happens mid-run, just before the end-of-run sort,
where the rows are still in landing order.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decode import GeometricOutputLength
from repro.devices import build_fleet
from repro.faults.schedules import CrashRestartFaults
from repro.serving import (
    ClassMixArrivals,
    PoissonArrivals,
    Request,
    SLOSpec,
    get_batch_policy,
    simulate_online,
)
from repro.serving.classes import UNTAGGED
from repro.serving.core import ServingSession
from repro.serving.request import RequestRecord

MIX = "interactive:0.5,batch:0.3,best-effort:0.2"
WARMUPS = (0.0, 0.1, 0.35, 0.7)


def _canon(value):
    """Floats by their exact bits; containers element by element."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _percentile(values, q):
    return float(np.percentile(np.array(values, dtype=np.float64), q)) if values else None


def _reference(report, warmup: float) -> dict:
    """Every fold, computed record by record from ``report.records``."""
    records, shed = report.records, report.shed_requests
    horizon = max((r.request.arrival_time for r in records), default=0.0)
    makespan = max((r.completion_time for r in records), default=0.0)
    steady = list(records)
    cutoff = 0.0
    if warmup and records:
        cutoff = warmup * horizon
        steady = [r for r in records if r.request.arrival_time >= cutoff] or list(records)
    if warmup == 0.0 or not records:
        qps = len(records) / makespan if makespan > 0 else 0.0
        window = makespan
    else:
        start = min(cutoff, min(r.request.arrival_time for r in steady))
        window = max(r.completion_time for r in steady) - start
        qps = len(steady) / window if window > 0 else 0.0
    has_slo = any(r.deadline is not None for r in records) or any(
        r.deadline is not None for r in shed
    )
    served = [r for r in steady if r.deadline is not None]
    shed_slo = [r for r in shed if r.deadline is not None and r.arrival_time >= cutoff]
    total = len(served) + len(shed_slo)
    on_time = sum(1 for r in served if r.on_time)
    goodput = None
    if has_slo:
        goodput = on_time / window if window > 0 else 0.0
    folds = {
        "num_completed": len(records),
        "makespan": makespan,
        "horizon": horizon,
        "p50": _percentile([r.latency for r in records], 50),
        "p99": _percentile([r.latency for r in records], 99),
        "queue_p99": _percentile([r.queueing_delay for r in records], 99),
        "latencies": [r.latency for r in records],
        "steady_n": len(steady),
        "steady_p95": _percentile([r.latency for r in steady], 95),
        "steady_qps": qps,
        "has_slo": has_slo,
        "attainment": on_time / total if total else None,
        "goodput": goodput,
        "waiting": sum(r.queueing_delay for r in records) / makespan if makespan > 0 else 0.0,
        "classes": _reference_classes(report, makespan),
    }
    if hasattr(report, "ttft_percentile"):
        gaps = [r.inter_token_latency for r in records if r.inter_token_latency is not None]
        folds.update(
            tokens=int(sum(r.request.output_len for r in records)),
            ttft_p50=_percentile([r.ttft for r in records], 50),
            steady_ttft_p95=_percentile([r.ttft for r in steady], 95),
            itl_p50=_percentile(gaps, 50),
        )
    return folds


def _reference_classes(report, makespan: float) -> dict | None:
    """Per-class counts and rates, record by record."""
    records, shed = report.records, report.shed_requests
    if not any(r.request.request_class is not None for r in records) and not any(
        r.request_class is not None for r in shed
    ):
        return None
    summaries: dict = {}

    def entry(name):
        return summaries.setdefault(
            name or UNTAGGED,
            {"offered": 0, "completed": 0, "on_time": 0, "shed": 0, "slo": 0, "met": 0},
        )

    for record in records:
        summary = entry(record.request.request_class)
        summary["offered"] += 1
        summary["completed"] += 1
        summary["on_time"] += record.on_time
        if record.deadline is not None:
            summary["slo"] += 1
            summary["met"] += record.on_time
    for request in shed:
        summary = entry(request.request_class)
        summary["offered"] += 1
        summary["shed"] += 1
        summary["slo"] += request.deadline is not None
    folded = {}
    for name, s in summaries.items():
        met = s["met"] if s["slo"] else s["on_time"]
        folded[name] = {
            "offered": s["offered"],
            "completed": s["completed"],
            "on_time": s["on_time"],
            "shed": s["shed"],
            "attainment": s["met"] / s["slo"] if s["slo"] else None,
            "goodput_qps": met / makespan if makespan > 0 else None,
        }
    return folded


def _ledger_folds(report, warmup: float) -> dict:
    """The same folds, read from the report (which folds its ledger)."""
    served = report.num_completed
    classes = None
    if report.class_summaries is not None:
        classes = {
            name: {
                key: value
                for key, value in summary.to_dict().items()
                if key in ("offered", "completed", "on_time", "shed", "attainment", "goodput_qps")
            }
            for name, summary in report.class_summaries.items()
        }
    folds = {
        "num_completed": served,
        "makespan": report.makespan_seconds,
        "horizon": report.arrival_horizon_seconds,
        "p50": report.latency_percentile(50) if served else None,
        "p99": report.latency_percentile(99) if served else None,
        "queue_p99": report.queueing_delay_percentile(99) if served else None,
        "latencies": report.latencies_seconds,
        "steady_n": len(report.steady_records(warmup)),
        "steady_p95": report.steady_latency_percentile(95, warmup) if served else None,
        "steady_qps": report.steady_qps(warmup),
        "has_slo": report.has_slo,
        "attainment": report.steady_attainment_rate(warmup),
        "goodput": report.steady_goodput_qps(warmup),
        "waiting": report.mean_waiting_requests,
        "classes": classes,
    }
    if hasattr(report, "ttft_percentile"):
        folds.update(
            tokens=report.total_output_tokens,
            ttft_p50=report.ttft_percentile(50) if served else None,
            steady_ttft_p95=report.steady_ttft_percentile(95, warmup) if served else None,
            itl_p50=report.inter_token_percentile(50),
        )
    return folds


@st.composite
def scenarios(draw) -> dict:
    kind = draw(st.sampled_from(["encoder", "decode", "faults", "autoscaler"]))
    policy = draw(st.sampled_from(["fixed-size", "timeout", "deadline", "priority-deadline"]))
    mix = draw(st.booleans())
    slo_ms = draw(st.sampled_from([None, 20.0, 80.0]))
    if slo_ms is None and not mix and "deadline" in policy:
        slo_ms = 40.0  # EDF formation needs deadlines from somewhere
    knobs: dict = {
        "slo": SLOSpec(base_s=slo_ms * 1e-3) if slo_ms is not None else None,
        "max_queue_depth": draw(st.sampled_from([None, 10])),
        "seed": draw(st.integers(1, 10_000)),
    }
    fleet_knobs: dict = {}
    replicas = 2
    if kind == "decode":
        knobs["output_lengths"] = GeometricOutputLength(mean_output_len=4.0, max_output_len=20)
        knobs["iteration_level"] = draw(st.booleans())
        if draw(st.booleans()):
            fleet_knobs["kv_cache_bytes"] = 16 * 2**20
    elif kind == "faults":
        replicas = 3
        knobs["faults"] = CrashRestartFaults(mtbf_s=0.1, downtime_s=0.005)
        knobs["hedging"] = draw(st.booleans())
        knobs["max_retries"] = draw(st.integers(1, 3))
        knobs["retry_backoff_s"] = 0.002
    elif kind == "autoscaler":
        replicas = 4
        knobs["autoscaler"] = draw(st.sampled_from(["queue-depth", "predicted-attainment"]))
        knobs["autoscale_interval_s"] = 0.02
        knobs["provisioning_lag_s"] = 0.01
        knobs["initial_devices"] = 1
    return {
        "policy": policy,
        "mix": mix,
        "qps": draw(st.sampled_from([300.0, 1200.0])),
        "replicas": replicas,
        "fleet_knobs": fleet_knobs,
        "knobs": knobs,
        "warmup": draw(st.sampled_from(WARMUPS)),
    }


def _run(scenario: dict):
    arrivals = PoissonArrivals(rate_qps=scenario["qps"])
    if scenario["mix"]:
        arrivals = ClassMixArrivals(base=arrivals, mix=MIX)
    fleet = build_fleet(
        ("gpu-rtx6000",), dataset="mrpc", replicas=scenario["replicas"], **scenario["fleet_knobs"]
    )
    return simulate_online(
        fleet,
        "mrpc",
        arrivals,
        num_requests=80,
        batch_policy=get_batch_policy(scenario["policy"], batch_size=8, timeout_s=0.01),
        **scenario["knobs"],
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_ledger_folds_equal_the_record_by_record_folds(scenario):
    warmup = scenario["warmup"]
    finish = ServingSession.finish
    mid_run = []

    def check_then_finish(session):
        # What a live /stats call reads: folded, but rows in landing order.
        session.refresh()
        report = session.report
        mid_run.append(_canon(_ledger_folds(report, warmup)) == _canon(_reference(report, warmup)))
        finish(session)

    with mock.patch.object(ServingSession, "finish", check_then_finish):
        report = _run(scenario)
    assert mid_run == [True]
    assert _canon(_ledger_folds(report, warmup)) == _canon(_reference(report, warmup))
    # The view is in completion order, ties by request id.
    keys = [(r.completion_time, r.request.request_id) for r in report.records]
    assert keys == sorted(keys)


def _counting_inits(monkeypatch) -> list:
    built: list = []
    def init(self, *args, _init=RequestRecord.__init__, **kwargs):
        built.append(type(self))
        _init(self, *args, **kwargs)

    monkeypatch.setattr(RequestRecord, "__init__", init)
    return built


def test_a_run_and_its_report_build_no_records(monkeypatch):
    built = _counting_inits(monkeypatch)
    fleet = build_fleet(("gpu-rtx6000",), dataset="mrpc", replicas=2)
    for knobs, record_type in (
        ({"slo": SLOSpec(base_s=0.03)}, RequestRecord),
        ({"output_lengths": GeometricOutputLength(mean_output_len=4.0)}, RequestRecord),
    ):
        report = simulate_online(
            fleet,
            "mrpc",
            ClassMixArrivals(base=PoissonArrivals(rate_qps=600.0), mix=MIX),
            num_requests=120,
            **knobs,
        )
        report.to_dict()
        report.as_row()
        assert built == []
        records = report.records
        assert len(built) == len(records) == report.num_completed > 0
        assert set(built) == {record_type}
        # Memoized: a second read builds nothing.
        assert report.records is records
        assert len(built) == report.num_completed
        built.clear()


def test_on_time_keeps_its_nanosecond_slack():
    """A completion up to 1e-9 s past its deadline still counts as on time."""
    fleet = build_fleet(("gpu-rtx6000",), dataset="mrpc", replicas=2)

    def run(requests):
        return simulate_online(
            fleet, "mrpc", requests, batch_policy=get_batch_policy("fixed-size", batch_size=4)
        )

    requests = [Request(i, 20 + 7 * i, 0.001 * i) for i in range(24)]
    done = {r.request.request_id: r.completion_time for r in run(requests).records}
    # FIFO formation ignores deadlines, so the rerun completes at the same
    # instants: odd requests finish 0.5 ns late, even ones 5 ns late.
    report = run(
        [
            replace(r, deadline=done[r.request_id] - (5e-10 if r.request_id % 2 else 5e-9))
            for r in requests
        ]
    )
    assert {r.request.request_id: r.completion_time for r in report.records} == done
    assert sum(r.on_time for r in report.records) == 12
    assert report.attainment_rate == 0.5
    assert report.class_summaries is None
