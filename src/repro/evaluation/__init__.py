"""Experiment harness: one module per paper table / figure.

Importing this package registers every experiment spec into the central
registry (see :mod:`repro.experiments`); run them with
``repro.experiments.run_experiment(name, config)``.
"""

from .fig1_breakdown import BreakdownRow, Fig1Config, Fig1Result
from .fig5_timeline import Fig5Config, Fig5Result
from .fig6_accuracy import Fig6Config, Fig6PairResult, Fig6Result, reduced_config
from .fig7_throughput import Fig7Config, Fig7Result, Fig7Workload
from .report import format_key_values, format_table
from .runner import ExperimentReport, run_all_experiments
from .serve import ServeConfig, ServeResult
from .serving_sweep import ServingSweepConfig, ServingSweepResult, SweepPoint
from .table1_models import Table1Config, Table1Result
from .table2_energy import Table2Config, Table2Result

__all__ = [
    "BreakdownRow",
    "ExperimentReport",
    "Fig1Config",
    "Fig1Result",
    "Fig5Config",
    "Fig5Result",
    "Fig6Config",
    "Fig6PairResult",
    "Fig6Result",
    "Fig7Config",
    "Fig7Result",
    "Fig7Workload",
    "ServeConfig",
    "ServeResult",
    "ServingSweepConfig",
    "ServingSweepResult",
    "SweepPoint",
    "Table1Config",
    "Table1Result",
    "Table2Config",
    "Table2Result",
    "format_key_values",
    "format_table",
    "reduced_config",
    "run_all_experiments",
]
