"""Table 1: model configurations and evaluation-dataset statistics.

The model half of Table 1 is regenerated directly from the model zoo; the
dataset half is regenerated from the synthetic length-distribution generator
so that the Max/Avg padding-overhead column the hardware experiments rely on
can be checked against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config as global_config
from ..datasets.length_distributions import length_statistics, sample_lengths
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..transformer.configs import DATASET_ZOO, MODEL_ZOO
from .report import format_table

__all__ = ["Table1Config", "Table1Result"]


@dataclass
class Table1Result:
    """Both halves of Table 1."""

    model_rows: list[dict]
    dataset_rows: list[dict]

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready)."""
        return {"model_rows": self.model_rows, "dataset_rows": self.dataset_rows}


@dataclass(frozen=True)
class Table1Config(ExperimentConfig):
    """Configuration of the Table 1 statistics experiment."""

    num_sampled_sequences: int = cfg_field(
        2000, help="synthetic sample size per dataset"
    )
    seed: int = global_config.DEFAULT_SEED


def _table1_impl(
    num_sampled_sequences: int = 2000,
    seed: int = global_config.DEFAULT_SEED,
) -> Table1Result:
    """Regenerate Table 1.

    ``dataset_rows`` contains both the configured (paper) statistics and the
    statistics of a large synthetic sample, so the report shows how closely
    the workload generator matches the paper's distributions.
    """
    model_rows = [
        {
            "model": cfg.name,
            "layers": cfg.num_layers,
            "hidden_dim": cfg.hidden_dim,
            "num_heads": cfg.num_heads,
        }
        for cfg in MODEL_ZOO.values()
    ]

    dataset_rows = []
    for cfg in DATASET_ZOO.values():
        sampled = sample_lengths(cfg, num_sampled_sequences, seed=seed)
        stats = length_statistics(sampled)
        dataset_rows.append(
            {
                "dataset": cfg.name,
                "avg_paper": cfg.avg_length,
                "max_paper": cfg.max_length,
                "max_avg_ratio_paper": round(cfg.max_avg_ratio, 1),
                "avg_sampled": round(stats["avg"], 1),
                "max_sampled": int(stats["max"]),
                "max_avg_ratio_sampled": round(stats["max_avg_ratio"], 1),
            }
        )
    return Table1Result(model_rows=model_rows, dataset_rows=dataset_rows)


def _run_spec(config: Table1Config) -> Table1Result:
    return _table1_impl(config.num_sampled_sequences, config.seed)


def _render(result: Table1Result) -> str:
    return (
        format_table(result.model_rows, title="Table 1 - models")
        + "\n"
        + format_table(result.dataset_rows, title="Table 1 - datasets")
    )


SPEC = register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table 1 - models and datasets",
        description="model and dataset statistics",
        config_cls=Table1Config,
        run=_run_spec,
        render=_render,
        order=20,
        include_in_all=True,
    )
)
