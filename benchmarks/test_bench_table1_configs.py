"""Table 1: model configurations and dataset sequence-length statistics."""

from __future__ import annotations

from conftest import run_once

from repro.evaluation.report import format_table
from repro.experiments import run_experiment


def test_bench_table1_models_and_datasets(benchmark, write_report):
    result = run_once(benchmark, run_experiment, "table1", num_sampled_sequences=5000)

    text = format_table(result.model_rows, title="Table 1 (top) - model configurations")
    text += "\n" + format_table(
        result.dataset_rows,
        title="Table 1 (bottom) - dataset length statistics (paper vs synthetic sample)",
    )
    write_report("table1_models_datasets", text)

    assert {row["model"] for row in result.model_rows} == {
        "DistilBERT",
        "BERT-base",
        "RoBERTa",
        "BERT-large",
    }
    for row in result.dataset_rows:
        assert abs(row["avg_sampled"] - row["avg_paper"]) / row["avg_paper"] < 0.2
