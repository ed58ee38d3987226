"""Accuracy-vs-sparsity study (a reduced version of the paper's Fig. 6).

Sweeps the Top-k operating point for a subset of the (model, dataset) pairs
and prints the proxy-task scores next to the dense baseline, plus the
aggregate accuracy drop at each k.  The full ten-pair sweep is available via
``run_experiment("fig6")`` (see benchmarks/test_bench_fig6_accuracy.py).

Run with:  python examples/sparse_attention_accuracy.py
"""

from __future__ import annotations

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment


def main() -> None:
    result = run_experiment(
        "fig6",
        pairs=("distilbert:mrpc", "distilbert:rte", "bert-base:squad"),
        top_k_values=(50, 30, 20, 10),
        examples=6,
        max_length=96,
    )

    print(format_table(result.as_rows(), title="Top-k sparse attention accuracy (proxy tasks)"))
    print(
        format_key_values(
            {
                f"average drop @ Top-{k}": f"{result.average_drop(k):.2f} points"
                for k in sorted(result.top_k_values, reverse=True)
            },
            title="Aggregate accuracy drop vs the dense baseline",
        )
    )
    print(
        "Interpretation: as in the paper, mild sparsity (Top-30 and above) stays close to\n"
        "the dense baseline while aggressive sparsity (Top-10) degrades noticeably."
    )


if __name__ == "__main__":
    main()
