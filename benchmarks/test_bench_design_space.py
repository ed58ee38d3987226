"""Design-space exploration and serving-level benchmarks.

Covers the paper's design-space exploration step ("we exploit the design
space to maximize the hardware throughput and CTC ratio") and the roofline /
CTC numbers behind Section 4's argument, plus a serving-level run that
aggregates throughput over a full synthetic request stream.
"""

from __future__ import annotations

from conftest import run_once

from repro.datasets.length_distributions import sample_lengths
from repro.evaluation.report import format_table
from repro.hardware.accelerator import build_sparse_accelerator
from repro.hardware.roofline import accelerator_roofline, ctc_ratio, device_roofline
from repro.scheduling.baselines import PaddedScheduler
from repro.scheduling.design_space import explore_design_space
from repro.serving import ClosedLoopArrivals, FixedSizeBatcher, simulate_online
from repro.transformer.configs import BERT_BASE, MRPC, RTE, SQUAD_V11


def test_bench_design_space_topk_and_replication(benchmark, write_report):
    lengths = [int(x) for x in sample_lengths(RTE, 16, seed=2022)]
    points = run_once(
        benchmark,
        explore_design_space,
        BERT_BASE,
        RTE,
        lengths,
        top_k_candidates=(20, 30, 50),
        replication_candidates=(1, 2),
    )
    rows = [point.as_row() for point in points]
    write_report(
        "design_space_topk_replication",
        format_table(rows, title="Design-space exploration (BERT-base, RTE batch of 16)"),
    )
    assert points[0].throughput_sequences_per_second >= points[-1].throughput_sequences_per_second


def test_bench_roofline_and_ctc(benchmark, write_report):
    def build_and_analyze():
        accelerator = build_sparse_accelerator(
            BERT_BASE, top_k=30, avg_seq=SQUAD_V11.avg_length, max_seq=SQUAD_V11.max_length
        )
        points = accelerator_roofline(accelerator, SQUAD_V11.avg_length)
        roof = device_roofline(accelerator)
        ctc = {stage.name: ctc_ratio(stage, SQUAD_V11.avg_length) for stage in accelerator.stages}
        return accelerator, points, roof, ctc

    accelerator, points, roof, ctc = run_once(benchmark, build_and_analyze)
    rows = []
    for point in points:
        row = point.as_row()
        value = ctc[point.stage]
        row["ctc_ops_per_byte"] = "on-chip" if value == float("inf") else round(value, 1)
        rows.append(row)
    text = format_table(rows, title="Roofline placement of the coarse stages (SQuAD average length)")
    text += (
        f"\ndevice peak: {roof.peak_ops_per_second/1e12:.2f} TOPS, "
        f"HBM: {roof.memory_bandwidth/1e9:.0f} GB/s, "
        f"ridge point: {roof.ridge_operational_intensity:.1f} ops/byte\n"
    )
    write_report("roofline_ctc", text)
    assert all(point.compute_bound for point in points)


#: ``OnlineServingReport.as_row()`` columns that describe a batch drain
#: (the arrival, shedding and device-busy columns are constant here, and the
#: per-run cache hit rate depends on what ran earlier in the process).
_DRAIN_COLUMNS = ("requests", "sustained_qps", "p50_ms", "p99_ms")


def test_bench_serving_throughput(benchmark, write_report):
    def serve_all():
        reports = []
        for dataset in (SQUAD_V11, RTE, MRPC):
            accelerator = build_sparse_accelerator(
                BERT_BASE, top_k=30, avg_seq=dataset.avg_length, max_seq=dataset.max_length
            )
            for scheduler in (None, PaddedScheduler()):
                report = simulate_online(
                    accelerator,
                    dataset,
                    ClosedLoopArrivals(sort_by_length=True),
                    num_requests=128,
                    batch_policy=FixedSizeBatcher(batch_size=16),
                    scheduler=scheduler,
                )
                reports.append(report)
        return reports

    reports = run_once(benchmark, serve_all)
    rows = []
    for report in reports:
        row = report.as_row()
        rows.append(
            {
                "dataset": report.dataset,
                "scheduler": report.scheduler,
                **{column: row[column] for column in _DRAIN_COLUMNS},
                "stage_util": round(report.average_pipeline_utilization, 3),
            }
        )
    write_report(
        "serving_throughput",
        format_table(
            rows, title="Serving 128 synthetic requests per dataset (length-aware vs padded)"
        ),
    )
    # Length-aware serving beats padded serving on every dataset.
    for ours, padded in zip(reports[0::2], reports[1::2]):
        assert ours.sustained_qps > padded.sustained_qps
