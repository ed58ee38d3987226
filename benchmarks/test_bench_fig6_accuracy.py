"""Fig. 6: Top-k sparse attention accuracy over the ten (model, dataset) pairs.

The full-size paper sweep (full checkpoints, full validation sets) is not
reproducible offline; this benchmark runs the proxy-task protocol of
DESIGN.md Section 5 on architecturally reduced models.  The dense baseline
scores 100 by construction and the per-k *drop* is the quantity comparable to
the paper's claim ("Top-30 loses < 2% on average, Top-10 degrades
noticeably").
"""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_key_values, format_table
from repro.experiments import run_experiment
from repro.transformer.configs import FIG6_EVALUATION_PAIRS


def test_bench_fig6_topk_accuracy_sweep(benchmark, write_report):
    result = run_once(
        benchmark,
        run_experiment,
        "fig6",
        pairs=tuple(f"{model}:{dataset}" for model, dataset in FIG6_EVALUATION_PAIRS),
        examples=4,
        max_length=80,
    )

    text = format_table(result.as_rows(), title="Fig. 6 - Top-k sparse attention accuracy (proxy tasks)")
    text += "\n" + format_key_values(
        {
            f"average drop @ Top-{k}": round(result.average_drop(k), 2)
            for k in sorted(result.top_k_values, reverse=True)
        },
        title="Aggregate accuracy drop (percentage points vs dense baseline)",
    )
    write_report("fig6_accuracy_sweep", text)

    assert len(result.pairs) == len(FIG6_EVALUATION_PAIRS)
    # Shape check: aggressive sparsity hurts at least as much as mild sparsity.
    assert result.average_drop(10) >= result.average_drop(50) - 1e-9
