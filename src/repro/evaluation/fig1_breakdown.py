"""Fig. 1(c): encoder time-consumption breakdown.

The paper's Fig. 1(c) profiles one BERT encoder layer (TensorRT, WikiText-2,
128-token inputs) and shows that roughly 60% of the time is spent inside the
self-attention workflow.  The reproduction derives the breakdown from the
operator complexity model in two modes:

* ``mode="time"`` (default) -- each operator's FLOPs are divided by the
  efficiency an instruction-driven GPU platform sustains on that operator
  class (large feed-forward GEMMs run near peak; the small per-head attention
  GEMMs and the memory-bound softmax/LayerNorm run far below it).  This is
  the quantity Fig. 1(c) actually plots.
* ``mode="flops"`` -- the raw arithmetic-work shares, which is what the FPGA
  stage-allocation algorithm consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.complexity import encoder_layer_breakdown
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..transformer.configs import MODEL_ZOO, ModelConfig, get_model_config
from .report import format_key_values, format_table

__all__ = [
    "BreakdownRow",
    "Fig1Config",
    "Fig1Result",
    "GPU_OPERATOR_EFFICIENCY",
]

#: Human-readable labels matching the legend of Fig. 1(c).
_OPERATOR_LABELS = {
    "qkv_projection": "Self-attention: Linear (Q/K/V)",
    "attention_scores": "Self-attention: MatMul (QK^T)",
    "attention_softmax": "Self-attention: Scale/Mask/Softmax",
    "attention_context": "Self-attention: MatMul (SV)",
    "attention_output_projection": "Self-attention: Linear (output)",
    "feed_forward": "Other: 2xLinear (feed-forward)",
    "layer_norms": "Other: 2xLayerNorm",
    "activation": "Other: Activation (GELU)",
}

#: Fraction of an instruction-driven GPU's peak throughput each operator class
#: sustains.  Large feed-forward GEMMs approach peak; the per-head attention
#: GEMMs are small batched matmuls with poor utilization; softmax, masking and
#: LayerNorm are memory-bound element-wise/reduction kernels.  These constants
#: reproduce the ~60% attention time share the paper measures with TensorRT at
#: 128 tokens and are used only for this figure.
GPU_OPERATOR_EFFICIENCY = {
    "qkv_projection": 0.45,
    "attention_scores": 0.10,
    "attention_softmax": 0.01,
    "attention_context": 0.10,
    "attention_output_projection": 0.45,
    "feed_forward": 0.95,
    "layer_norms": 0.06,
    "activation": 0.12,
}

_ATTENTION_KEYS = frozenset(
    {
        "qkv_projection",
        "attention_scores",
        "attention_softmax",
        "attention_context",
        "attention_output_projection",
    }
)


@dataclass(frozen=True)
class BreakdownRow:
    """Work/time share of one encoder operator."""

    operator: str
    label: str
    flops: int
    weight: float
    share_percent: float
    is_attention: bool


@dataclass
class Fig1Result:
    """The full breakdown plus the headline attention share."""

    model: str
    sequence_length: int
    mode: str
    rows: list[BreakdownRow]
    attention_share_percent: float

    def as_rows(self) -> list[dict]:
        """Rows in report form (operator, share %)."""
        return [
            {
                "operator": row.label,
                "flops": row.flops,
                "share_percent": round(row.share_percent, 1),
            }
            for row in self.rows
        ]

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready)."""
        return {
            "model": self.model,
            "sequence_length": self.sequence_length,
            "mode": self.mode,
            "attention_share_percent": self.attention_share_percent,
            "rows": [
                {
                    "operator": row.operator,
                    "label": row.label,
                    "flops": row.flops,
                    "share_percent": row.share_percent,
                    "is_attention": row.is_attention,
                }
                for row in self.rows
            ],
        }


@dataclass(frozen=True)
class Fig1Config(ExperimentConfig):
    """Configuration of the Fig. 1(c) encoder-breakdown experiment."""

    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    sequence_length: int = cfg_field(128, help="input sequence length (tokens)")
    mode: str = cfg_field(
        "time", choices=("time", "flops"), help="GPU time shares or raw FLOP shares"
    )


def _fig1_impl(
    model_config: ModelConfig, sequence_length: int, mode: str
) -> Fig1Result:
    """Regenerate the Fig. 1(c) operator breakdown.

    ``mode`` is ``"time"`` (GPU time shares, the paper's plot) or ``"flops"``
    (raw arithmetic-work shares).
    """
    if mode not in ("time", "flops"):
        raise ValueError("mode must be 'time' or 'flops'")
    breakdown = encoder_layer_breakdown(model_config, sequence_length)
    totals = breakdown.as_dict()

    weights: dict[str, float] = {}
    for name, flops in totals.items():
        if mode == "time":
            weights[name] = flops / GPU_OPERATOR_EFFICIENCY[name]
        else:
            weights[name] = float(flops)
    total_weight = sum(weights.values())

    rows = [
        BreakdownRow(
            operator=name,
            label=_OPERATOR_LABELS[name],
            flops=totals[name],
            weight=weights[name],
            share_percent=100.0 * weights[name] / total_weight,
            is_attention=name in _ATTENTION_KEYS,
        )
        for name in totals
    ]
    attention_share = sum(row.share_percent for row in rows if row.is_attention)
    return Fig1Result(
        model=model_config.name,
        sequence_length=sequence_length,
        mode=mode,
        rows=rows,
        attention_share_percent=attention_share,
    )


def _run_spec(config: Fig1Config) -> Fig1Result:
    return _fig1_impl(
        get_model_config(config.model), config.sequence_length, config.mode
    )


def _render(result: Fig1Result) -> str:
    text = format_table(result.as_rows(), title="Fig. 1(c) - encoder time breakdown")
    text += format_key_values(
        {"self-attention share (%)": round(result.attention_share_percent, 1)}
    )
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="fig1",
        title="Fig. 1(c) - encoder time breakdown",
        description="encoder time-consumption breakdown",
        config_cls=Fig1Config,
        run=_run_spec,
        render=_render,
        order=10,
        include_in_all=True,
    )
)
