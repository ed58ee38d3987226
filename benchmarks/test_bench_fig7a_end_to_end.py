"""Fig. 7(a): end-to-end cross-platform throughput comparison (speedups over each platform)."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import run_experiment
from repro.evaluation.report import format_key_values, format_table


def test_bench_fig7a_end_to_end_speedups(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "fig7a")

    text = format_table(result.as_rows(), title="Fig. 7(a) - end-to-end speedup of the proposed FPGA design")
    geomeans = result.geomean_speedups()
    paper = result.paper_geomeans()
    text += "\n" + format_table(
        [
            {
                "platform": key,
                "geomean_speedup_measured": round(geomeans[key], 1),
                "geomean_speedup_paper": paper[key],
            }
            for key in geomeans
        ],
        title="Geometric-mean speedups vs the paper's reported values",
    )
    write_report("fig7a_end_to_end", text)

    # Shape checks: the proposed design wins everywhere and the ordering of
    # platforms matches the paper (CPU slowest, GPU server closest).
    assert all(value > 1.0 for value in geomeans.values())
    assert geomeans["cpu"] > geomeans["jetson_tx2"] > geomeans["rtx6000"]
    for key, paper_value in paper.items():
        assert paper_value / 2.5 <= geomeans[key] <= paper_value * 2.5
