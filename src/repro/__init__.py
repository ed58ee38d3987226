"""Length-adaptive algorithm-hardware co-design of Transformer on FPGA (DAC 2022).

Reproduction library.  The public API is organized in subpackages:

* :mod:`repro.core` -- quantized Top-k sparse attention (the paper's core).
* :mod:`repro.transformer` -- NumPy BERT-family encoder substrate.
* :mod:`repro.operators` -- encoder operator DAG with complexity weights.
* :mod:`repro.hardware` -- Alveo U280 resource / cycle / pipeline model.
* :mod:`repro.scheduling` -- Algorithm 1 stage allocation and length-aware
  dynamic pipelining (plus padding / micro-batch baselines).
* :mod:`repro.platforms` -- CPU / GPU / FPGA performance and energy models.
* :mod:`repro.devices` -- unified Device API: one cost-model protocol over
  the cycle-accurate and analytical backends, for heterogeneous fleets.
* :mod:`repro.datasets` -- synthetic workloads matching Table 1 statistics.
* :mod:`repro.serving` -- event-driven online serving simulator (arrival
  processes, dynamic batching, multi-accelerator routing).
* :mod:`repro.evaluation` -- per-figure/table experiment harnesses.

The most common entry points are re-exported at the top level below.
"""

from . import config
from .devices import (
    AnalyticalDevice,
    CycleAccurateDevice,
    Device,
    build_device,
    build_fleet,
)
from .core import (
    SparseAttentionConfig,
    make_sparse_attention_impl,
    sparse_attention_head,
    sparse_multi_head_attention,
)
from .hardware import Accelerator, build_baseline_accelerator, build_sparse_accelerator
from .scheduling import (
    LengthAwareScheduler,
    MicroBatchScheduler,
    PaddedScheduler,
    SequentialScheduler,
    allocate_stages,
)
from .experiments import (
    ExperimentConfig,
    ExperimentSpec,
    list_experiments,
    run_experiment,
    run_report,
)
from .serving import (
    BurstyArrivals,
    ClosedLoopArrivals,
    OnlineServingReport,
    PoissonArrivals,
    simulate_online,
)
from .transformer import (
    BERT_BASE,
    BERT_LARGE,
    DISTILBERT,
    ROBERTA,
    ModelConfig,
    TransformerModel,
    get_dataset_config,
    get_model_config,
)

__version__ = "1.0.0"

__all__ = [
    "Accelerator",
    "AnalyticalDevice",
    "BERT_BASE",
    "BERT_LARGE",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "CycleAccurateDevice",
    "DISTILBERT",
    "Device",
    "ExperimentConfig",
    "ExperimentSpec",
    "LengthAwareScheduler",
    "MicroBatchScheduler",
    "ModelConfig",
    "OnlineServingReport",
    "PaddedScheduler",
    "PoissonArrivals",
    "ROBERTA",
    "SequentialScheduler",
    "SparseAttentionConfig",
    "TransformerModel",
    "allocate_stages",
    "build_baseline_accelerator",
    "build_device",
    "build_fleet",
    "build_sparse_accelerator",
    "config",
    "get_dataset_config",
    "get_model_config",
    "list_experiments",
    "make_sparse_attention_impl",
    "run_experiment",
    "run_report",
    "simulate_online",
    "sparse_attention_head",
    "sparse_multi_head_attention",
    "__version__",
]
