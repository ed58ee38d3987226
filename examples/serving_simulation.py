"""Serving a synthetic request stream on the proposed accelerator.

Draws a few hundred requests from each dataset's Table 1 length distribution,
queues them all at t=0 sorted by length, drains them in batches of 16 on the
proposed design with the length-aware scheduler and with the padding
baseline, and reports the drain throughput plus the p50/p99 completion
latency -- the view a deployment engineer would want before adopting the
accelerator.

Run with:  python examples/serving_simulation.py
"""

from __future__ import annotations

from repro.evaluation.report import format_table
from repro.hardware import build_sparse_accelerator
from repro.scheduling import PaddedScheduler
from repro.serving import ClosedLoopArrivals, FixedSizeBatcher, simulate_online
from repro.transformer import BERT_BASE, DATASET_ZOO


def main() -> None:
    rows = []
    for dataset in DATASET_ZOO.values():
        accelerator = build_sparse_accelerator(
            BERT_BASE, top_k=30, avg_seq=dataset.avg_length, max_seq=dataset.max_length
        )
        for label, scheduler in (("length-aware (ours)", None), ("padded baseline", PaddedScheduler())):
            report = simulate_online(
                accelerator,
                dataset,
                ClosedLoopArrivals(sort_by_length=True),
                num_requests=192,
                batch_policy=FixedSizeBatcher(batch_size=16),
                scheduler=scheduler,
            )
            row = report.as_row()
            rows.append(
                {
                    "dataset": row["dataset"],
                    "scheduler": label,
                    "requests": row["requests"],
                    "throughput_seq_per_s": row["sustained_qps"],
                    "p50_ms": row["p50_ms"],
                    "p99_ms": row["p99_ms"],
                }
            )

    print(
        format_table(
            rows,
            title="Serving 192 synthetic requests per dataset on the proposed FPGA design (BERT-base)",
        )
    )
    print(
        "The length-aware scheduler sustains the same hardware at a higher request rate and\n"
        "lower tail latency because no cycle is spent on padding tokens and the coarse\n"
        "pipeline never drains between sequences."
    )


if __name__ == "__main__":
    main()
