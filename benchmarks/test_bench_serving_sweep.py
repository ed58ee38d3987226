"""Latency-vs-offered-load benchmark of the online serving engine.

Runs the :mod:`repro.evaluation.serving_sweep` harness over every Table 1
dataset: Poisson traffic against the proposed BERT-base design, timeout-based
dynamic batching, and a load grid spanning light load to overload.  The
rendered table is the latency/QPS operating-curve data a deployment would use
to pick its SLO point; the assertions pin the qualitative shape (tail latency
grows with load and diverges past saturation).
"""

from __future__ import annotations

from conftest import record_metric, run_once

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment


def test_bench_serving_sweep(benchmark, write_report):
    result = run_once(
        benchmark,
        run_experiment,
        "serving-sweep",
        datasets=("mrpc", "rte", "squad"),
        load_fractions=(0.1, 0.25, 0.5, 0.75, 1.1),
        batch_policies=("timeout",),
        requests=192,
        num_accelerators=2,
        # The sweep's historical discipline: no warm-up discarding and
        # exact (unbucketed) schedule-cache billing.
        warmup_fraction=0.0,
        cache_length_bucket=None,
    )
    text = format_table(
        result.as_rows(),
        title="Latency vs offered load (BERT-base, 2 accelerators, Poisson arrivals)",
    )
    text += format_key_values(
        {
            f"closed-loop capacity ({name})": f"{qps:.1f} seq/s"
            for name, qps in result.capacity_qps.items()
        }
    )
    write_report("serving_sweep", text)
    record_metric(
        **{
            f"capacity_qps_{name}": round(qps, 1)
            for name, qps in result.capacity_qps.items()
        }
    )

    for dataset, capacity in result.capacity_qps.items():
        curve = result.p99_curve(dataset)
        loads = [load for load, _ in curve]
        p99s = [p99 for _, p99 in curve]
        # Tail latency grows with offered load (monotone up to float noise)...
        assert all(b >= 0.95 * a for a, b in zip(p99s, p99s[1:])), (dataset, p99s)
        # ...and the overloaded point is far above the lightly loaded one.
        assert p99s[-1] > 2.0 * p99s[0], (dataset, p99s)
        assert loads == sorted(loads)
