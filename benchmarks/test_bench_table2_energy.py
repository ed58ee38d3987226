"""Table 2: throughput and energy-efficiency comparison."""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_table
from repro.experiments import run_experiment


def test_bench_table2_energy_efficiency(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "table2")

    text = format_table(result.as_rows(), title="Table 2 - throughput & energy efficiency (measured + literature rows)")
    paper = [
        {"work_platform": name, **values} for name, values in result.paper_rows().items()
    ]
    text += "\n" + format_table(paper, title="Paper-reported Table 2 values (for comparison)")
    write_report("table2_energy", text)

    ours = result.row("Ours FPGA")
    gpu = result.row("GPU RTX 6000")
    # The paper's headline: >4x the GPU's energy efficiency, throughput in the
    # multi-TOPS dense-equivalent range, GPU row ~1.4 TOPS at ~8 GOP/J.
    assert ours.energy_efficiency_gopj > 4 * gpu.energy_efficiency_gopj
    assert 1500.0 < ours.throughput_gops < 8000.0
    assert abs(gpu.throughput_gops - 1380.0) / 1380.0 < 0.15
