"""One measured simulation of one workload, in a fresh process.

    python3 perfbench/child.py --workload plain --seed 1 [--trace --spans out.npz]

``run.py`` starts one of these per repeat, so every repeat pays its own
imports and starts with an empty schedule cache, as one ``repro serve``
process does.  The last line of standard output is one JSON object: set-up
and host timings (CPU seconds of this single-threaded process, so time spent
waiting for a CPU does not count), peak memory, the digest of
``report.to_dict()``, the simulated metrics, the outcome of the checks and, when traced, the per-layer
figures.  Any exception prints ``{"error": ...}`` and exits 1.

An untraced process also samples the CPU's speed while it sets up and runs
(``speed.py``): its ``setup_s`` and ``host_s`` leave out the sampling's own
time, and ``setup_scale`` and ``host_scale`` turn them into seconds on a CPU
of reference speed.  A traced process does not sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

#: Traced layers every workload calls.
COMMON_LAYERS = frozenset(
    {"arrivals", "admission", "formation", "routing", "execute", "cache", "cycle"}
)


def _conservation(report, offered) -> str | None:
    """Every offered request is completed or shed exactly once, per class."""
    completed = [record.request for record in report.records]
    shed = list(report.shed_requests)
    ids = [r.request_id for r in completed] + [r.request_id for r in shed]
    if report.num_requests != len(offered):
        return f"report offers {report.num_requests}, stream has {len(offered)}"
    if len(ids) != len(set(ids)):
        return "a request was both completed and shed, or resolved twice"
    if set(ids) != {r.request_id for r in offered}:
        return f"{len(offered) - len(set(ids))} offered requests neither completed nor shed"
    expected = Counter(r.request_class for r in offered)
    resolved = Counter(r.request_class for r in completed) + Counter(r.request_class for r in shed)
    if resolved != expected:
        return f"per-class conservation broken: offered {dict(expected)}, resolved {dict(resolved)}"
    for name, summary in (report.class_summaries or {}).items():
        conserved = summary.completed + summary.shed == summary.offered
        if not conserved or summary.offered != expected.get(name):
            return f"class '{name}' summary does not conserve its requests"
    return None


def _layer_split(recorder, workload) -> str | None:
    """The traced calls match the layers the workload loads and bypasses."""
    totals = recorder.totals()
    calls = {name: layer["calls"] for name, layer in totals.items()}
    idle = sorted(n for n in COMMON_LAYERS | workload.loads if not calls.get(n))
    if idle:
        return f"layers {idle} were never called on {workload.name}"
    called = sorted(n for n in workload.bypasses if calls.get(n))
    if called:
        return f"layers {called} were called, but {workload.name} bypasses them"
    return None


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def _sim_metrics(report, payload: dict) -> dict:
    """Simulated outcomes; identical for every repeat of one seed."""
    records = report.records
    makespan = report.makespan_seconds
    tokens = sum(getattr(record, "num_output_tokens", 1) for record in records)
    inter_token = [
        gap
        for gap in (getattr(record, "inter_token_latency", None) for record in records)
        if gap is not None
    ]
    return {
        "sim_p50_latency_ms": payload["latency_ms"]["p50"],
        "sim.p99_latency_ms": payload["latency_ms"]["p99"],
        # The program's figures: requests without a deadline are left out,
        # a shed request with one is a miss.
        "sim_attainment": payload["attainment_rate"],
        "sim_goodput_qps": payload["goodput_qps"],
        "sim_j_per_mreq": payload["joules_per_million_requests"],
        # An encoder request's first (and only) output is its completion.
        "sim.ttft_p99_ms": 1e3 * _percentile(
            [getattr(record, "ttft", record.latency) for record in records], 99
        ),
        "sim_tokens_per_s": tokens / makespan,
        "sim.shed_rate": len(report.shed_requests) / report.num_requests,
        "sim.itl_p99_ms": 1e3 * _percentile(inter_token, 99),
        "sim.queue_wait_p99_ms": payload["queueing_delay_ms"]["p99"],
        "sim.device_utilization": payload["average_device_utilization"],
    }


def _layer_metrics(recorder, payload: dict, wall_s: float) -> dict:
    totals = recorder.totals()
    empty = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}

    def calls(name: str) -> int:
        return totals.get(name, empty)["calls"]

    def self_s(name: str) -> float:
        return totals.get(name, empty)["self_s"]

    batches = payload["num_batches"]
    cache = payload["schedule_cache"] or {"hits": 0, "misses": 0, "hit_rate": 0.0}
    scaling = payload["scaling_timeline"]
    return {
        "arrivals.calls": calls("arrivals"),
        "arrivals.self_s": self_s("arrivals"),
        "admission.calls": calls("admission"),
        "admission.self_s": self_s("admission"),
        "admission.shed": payload["num_shed"] + payload["num_shed_predicted"],
        "formation.calls": calls("formation"),
        "formation.self_s": self_s("formation"),
        "formation.batches": recorder.non_none.get("formation", 0),
        "formation.yield": recorder.non_none.get("formation", 0) / max(calls("formation"), 1),
        "formation.timer_calls": calls("formation.timer"),
        "formation.timer_self_s": self_s("formation.timer"),
        "formation.preemptions": payload.get("num_preemptions") or 0,
        "routing.calls": calls("routing"),
        "routing.self_s": self_s("routing"),
        "costmodel.calls": calls("costmodel"),
        "costmodel.self_s": self_s("costmodel"),
        "costmodel.per_batch": calls("costmodel") / batches,
        "execute.calls": calls("execute"),
        "execute.self_s": self_s("execute"),
        "cache.lookups": calls("cache"),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_rate": cache["hit_rate"],
        "cache.self_s": self_s("cache") + self_s("cache.store"),
        "cycle.solves": calls("cycle"),
        "cycle.self_s": self_s("cycle"),
        "cycle.us_per_solve": 1e6 * self_s("cycle") / max(calls("cycle"), 1),
        "dispatch.calls": calls("dispatch"),
        "dispatch.self_s": self_s("dispatch"),
        "finalize.calls": calls("finalize"),
        "finalize.self_s": self_s("finalize"),
        "faults.calls": calls("faults"),
        "faults.self_s": self_s("faults"),
        "faults.crashes": payload["num_crashes"],
        "faults.replayed": payload["num_replayed"],
        "faults.retries": payload["num_retries"],
        "faults.hedged": payload["num_hedged"],
        "autoscaler.decisions": calls("autoscaler"),
        "autoscaler.self_s": self_s("autoscaler"),
        "autoscaler.scale_events": max(len(scaling) - 1, 0),
        "decode.steps": calls("decode"),
        "decode.step_self_s": self_s("decode"),
        "decode.kv_stalls": payload.get("num_kv_stalls", 0),
        "engine.self_s": self_s("engine"),
        "engine.host_us_per_batch": 1e6 * self_s("engine") / batches,
        "report.fold_self_s": self_s("report.fold"),
        "report.to_dict_s": totals["report.to_dict"]["inclusive_s"],
        "trace.other_s": wall_s - sum(layer["self_s"] for layer in totals.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    parser.add_argument("--import-only", action="store_true", help="import repro and exit")
    args = parser.parse_args()

    if args.import_only:
        import repro

        print(json.dumps({"repro": repro.__file__}))
        return 0
    from speed import SpeedSampler, reference_scale

    sampler = None if args.trace else SpeedSampler()
    if sampler is not None:
        sampler.start()
    setup_start = time.process_time()
    import repro  # noqa: F401  (its import is part of set-up)
    from workloads import DATASET, WORKLOADS

    workload = WORKLOADS[args.workload]
    scenario = workload.build(workload.requests)
    setup_s = time.process_time() - setup_start
    setup_probes, spent = sampler.phase() if sampler else ([], 0.0)
    setup_s -= spent

    recorder = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
        span = recorder.span

    run_start, wall_start = time.process_time(), time.perf_counter()
    with span("engine"):
        report = scenario.run(args.seed)
    with span("report.to_dict"):
        payload = report.to_dict()
    host_s = time.process_time() - run_start
    wall_s = time.perf_counter() - wall_start
    host_probes, spent = sampler.phase() if sampler else ([], 0.0)
    host_s -= spent
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(recorder),
        "setup_s": setup_s,
        "host_s": host_s,
        "setup_scale": reference_scale(setup_probes) if sampler else None,
        "host_scale": reference_scale(host_probes) if sampler else None,
        "probes": len(setup_probes) + len(host_probes),
        "probe_s": statistics.median(setup_probes + host_probes) if sampler else None,
        "peak_rss_mb": peak_rss_mb,
        "requests": report.num_requests,
        "digest": hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest(),
    }
    split_error = None
    if recorder is not None:
        recorder.restore()
        result["layers"] = _layer_metrics(recorder, payload, wall_s)
        if args.spans:
            recorder.save(args.spans)
        split_error = _layer_split(recorder, workload)
    offered = scenario.arrivals.generate(DATASET, workload.requests, seed=args.seed)
    result["check_error"] = _conservation(report, offered) or split_error
    import numpy

    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    result["sim"] = _sim_metrics(report, payload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the parent counts this repeat as a failed operation
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(1)
