"""TTFT / inter-token latency / attainment vs offered load for decoding.

The encoder-side ``serving-sweep`` answers "what latency at what QPS"; this
experiment asks the generation-side questions the decode subsystem exists
for:

* **Load curves** -- TTFT, inter-token latency, token goodput, and SLO
  attainment at a grid of load fractions of the fleet's measured capacity,
  for *iteration-level* continuous batching against the *request-level*
  (gang) baseline.  On decode-heavy streams the iteration-level scheduler
  sustains strictly higher token goodput at saturation because it refills
  the running batch the moment a request finishes instead of draining to
  the last straggler.
* **Top-k operating points** -- the paper's top-k sparse attention caps the
  KV rows *read* per decode step at k, so each step gets cheaper while the
  cache footprint stays put.  For each requested k the sweep reports the
  decode concurrency sustainable inside an inter-token latency budget
  (against the dense baseline on the *same* device) next to a Fig.6-style
  proxy accuracy drop: an explicit accuracy-versus-KV-bound-concurrency
  trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import config as global_config
from ..core.sparse_attention import make_sparse_attention_impl
from ..datasets.tasks import build_proxy_task, evaluate_model_on_task
from ..devices import Device, build_device
from ..evaluation.fig6_accuracy import reduced_config
from ..evaluation.report import format_key_values, format_table
from ..evaluation.serving_sweep import (
    DEFAULT_LOAD_FRACTIONS,
    DEFAULT_WARMUP_FRACTION,
    check_load_sweep,
    slo_spec_from_ms,
)
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig, resolve_component
from ..serving.arrivals import ClosedLoopArrivals, get_arrival_process
from ..serving.engine import OnlineServingReport, simulate_online
from ..serving.options import ServingOptions
from ..transformer.configs import (
    DATASET_ZOO,
    MODEL_ZOO,
    get_dataset_config,
    get_model_config,
)
from ..transformer.model import TransformerModel
from .output_lengths import get_output_lengths

__all__ = [
    "DecodeSweepConfig",
    "DecodeSweepResult",
    "DecodePoint",
    "TopKOperatingPoint",
    "decode_concurrency_limit",
    "run_decode_sweep",
]

#: Default KV-cache capacity of the swept device (MiB).  Sized so a
#: decode-heavy MRPC stream keeps ~6-10 requests resident: small enough
#: that KV admission visibly gates the system, large enough not to stall
#: every prefill.
DEFAULT_KV_CACHE_MB = 32.0

#: Default inter-token latency budget for the top-k concurrency search (ms).
DEFAULT_ITL_BUDGET_MS = 4.0


@dataclass
class DecodePoint:
    """One (mode, load) measurement of the decode sweep."""

    mode: str
    load_fraction: float
    offered_qps: float
    capacity_qps: float
    report: OnlineServingReport
    warmup_fraction: float = 0.0

    def as_row(self) -> dict:
        report = self.report
        warmup = self.warmup_fraction
        itl = report.inter_token_percentile(95)
        row = {
            "mode": self.mode,
            "load": round(self.load_fraction, 2),
            "offered_qps": round(self.offered_qps, 1),
            "tok_per_s": round(report.sustained_tokens_per_second, 1),
            "ttft_p50_ms": round(report.steady_ttft_percentile(50, warmup) * 1e3, 2),
            "ttft_p95_ms": round(report.steady_ttft_percentile(95, warmup) * 1e3, 2),
            "itl_p95_ms": round(itl * 1e3, 3) if itl is not None else None,
            "p95_ms": round(report.steady_latency_percentile(95, warmup) * 1e3, 2),
            "kv_stalls": report.num_kv_stalls,
        }
        attainment = report.steady_attainment_rate(warmup)
        if attainment is not None:
            row["attainment"] = round(attainment, 3)
            row["goodput_qps"] = round(report.steady_goodput_qps(warmup), 1)
        return row


@dataclass
class TopKOperatingPoint:
    """One accuracy-vs-concurrency operating point of the top-k knob.

    ``concurrency`` is the largest decode batch whose step latency stays
    inside the inter-token budget when each request attends over only
    ``top_k`` KV rows; ``dense_concurrency`` is the same search with full
    KV reads on the same device.  ``accuracy_drop`` is the Fig.6-style
    proxy drop (percentage points) of that top-k setting.
    """

    top_k: int
    concurrency: int
    dense_concurrency: int
    step_ms: float
    dense_step_ms: float
    accuracy_drop: float | None = None

    def as_row(self) -> dict:
        row = {
            "top_k": self.top_k,
            "concurrency": self.concurrency,
            "dense_concurrency": self.dense_concurrency,
            "step_ms": round(self.step_ms, 3),
            "dense_step_ms": round(self.dense_step_ms, 3),
        }
        if self.accuracy_drop is not None:
            row["accuracy_drop"] = round(self.accuracy_drop, 2)
        return row


@dataclass
class DecodeSweepResult:
    """All decode sweep points plus the top-k operating points."""

    dataset: str
    model: str
    device: str
    kv_cache_bytes: int | None
    output_lengths: str
    mean_output_len: float
    capacity_qps: float = 0.0
    warmup_fraction: float = 0.0
    itl_budget_ms: float = DEFAULT_ITL_BUDGET_MS
    context_tokens: int = 0
    slo: dict | None = None
    points: list[DecodePoint] = field(default_factory=list)
    topk_points: list[TopKOperatingPoint] = field(default_factory=list)

    def as_rows(self) -> list[dict]:
        return [point.as_row() for point in self.points]

    def tokens_curve(self, mode: str) -> list[tuple[float, float]]:
        """(load fraction, sustained tokens/s) pairs for one mode, sorted."""
        curve = [
            (p.load_fraction, p.report.sustained_tokens_per_second)
            for p in self.points
            if p.mode == mode
        ]
        return sorted(curve)

    def saturation_gain(self) -> float | None:
        """Iteration-level over request-level token goodput at the highest
        swept load (None unless both modes were swept)."""
        iteration = dict(self.tokens_curve("iteration"))
        request = dict(self.tokens_curve("request"))
        shared = sorted(set(iteration) & set(request))
        if not shared:
            return None
        top = shared[-1]
        if request[top] <= 0:
            return None
        return iteration[top] / request[top]

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready summary rows)."""
        return {
            "dataset": self.dataset,
            "model": self.model,
            "device": self.device,
            "kv_cache_bytes": self.kv_cache_bytes,
            "output_lengths": self.output_lengths,
            "mean_output_len": self.mean_output_len,
            "capacity_qps": self.capacity_qps,
            "warmup_fraction": self.warmup_fraction,
            "itl_budget_ms": self.itl_budget_ms,
            "context_tokens": self.context_tokens,
            "slo": self.slo,
            "saturation_gain": self.saturation_gain(),
            "points": self.as_rows(),
            "topk_points": [point.as_row() for point in self.topk_points],
        }


@dataclass(frozen=True)
class DecodeSweepConfig(ExperimentConfig):
    """Configuration of the decode (prefill + generation) serving sweep."""

    dataset: str = cfg_field(
        "mrpc",
        choices=sorted(DATASET_ZOO),
        help="prompt-length dataset (short prompts make the stream decode-heavy)",
    )
    load_fractions: tuple[float, ...] = cfg_field(
        DEFAULT_LOAD_FRACTIONS, help="offered load as fractions of capacity"
    )
    modes: tuple[str, ...] = cfg_field(
        ("iteration", "request"),
        help="decode admission modes to compare (iteration, request)",
    )
    requests: int = cfg_field(160, help="requests per sweep point")
    device: str = cfg_field("sparse-fpga", help="registered device to sweep")
    kv_cache_mb: float | None = cfg_field(
        DEFAULT_KV_CACHE_MB,
        help="device KV-cache capacity (MiB); 'none' = unbounded",
    )
    output_lengths: str = cfg_field(
        "geometric",
        help="registered output-length distribution (fixed, uniform, geometric)",
    )
    mean_output_len: float = cfg_field(
        192.0, help="mean generated tokens per request (geometric distribution)"
    )
    max_output_len: int = cfg_field(
        512, help="generation cap in tokens (geometric/uniform distributions)"
    )
    arrival: str = cfg_field(
        "poisson", help="open-loop arrival process (rate-driven)"
    )
    slo_ms: float | None = cfg_field(
        None,
        help=(
            "per-request budget (ms): deadline = arrival + slo-ms + "
            "slo-per-token-ms * prompt + slo-per-output-token-ms * output; "
            "enables attainment/goodput columns"
        ),
    )
    slo_per_token_ms: float = 0.0
    slo_per_output_token_ms: float = cfg_field(
        0.0, help="generation-proportional part of the budget (ms per token)"
    )
    topk: tuple[int, ...] = cfg_field(
        (5, global_config.DEFAULT_TOP_K),
        help="top-k operating points to pair with the sweep (empty = skip)",
    )
    itl_budget_ms: float = cfg_field(
        DEFAULT_ITL_BUDGET_MS,
        help="inter-token budget for the top-k concurrency search (ms)",
    )
    accuracy_examples: int = cfg_field(
        6,
        help="proxy-corpus size of the top-k accuracy probe (0 = skip accuracy)",
    )
    accuracy_max_length: int = cfg_field(
        86, help="sequence-length cap of the accuracy probe corpus"
    )
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        check_load_sweep(self.load_fractions, self.arrival)
        if not self.modes:
            raise ValueError("modes must not be empty")
        unknown_modes = sorted(set(self.modes) - {"iteration", "request"})
        if unknown_modes:
            raise ValueError(
                f"unknown modes {unknown_modes}; valid: ['iteration', 'request']"
            )
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must not repeat")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.kv_cache_mb is not None and self.kv_cache_mb <= 0:
            raise ValueError("kv_cache_mb must be > 0 (or none for unbounded)")
        if self.mean_output_len < 1:
            raise ValueError("mean_output_len must be >= 1")
        if self.max_output_len < 1:
            raise ValueError("max_output_len must be >= 1")
        if any(k < 1 for k in self.topk):
            raise ValueError("topk values must all be >= 1")
        if self.itl_budget_ms <= 0:
            raise ValueError("itl_budget_ms must be > 0")
        if self.accuracy_examples < 0:
            raise ValueError("accuracy_examples must be >= 0")
        if self.accuracy_max_length < 8:
            raise ValueError("accuracy_max_length must be >= 8")
        OnlineServingReport.check_warmup_fraction(self.warmup_fraction)
        resolve_component("device", self.device)
        resolve_component("output-length", self.output_lengths)
        self.options()

    def options(self) -> ServingOptions:
        """The engine options of an iteration-level sweep point (ms -> s)."""
        return ServingOptions(
            seed=self.seed,
            slo=slo_spec_from_ms(self.slo_ms, self.slo_per_token_ms, self.slo_per_output_token_ms),
            output_lengths=_output_distribution(self),
        )


def _kv_cache_bytes(kv_cache_mb: float | None) -> int | None:
    if kv_cache_mb is None:
        return None
    return int(kv_cache_mb * 2**20)


def _output_distribution(config: DecodeSweepConfig):
    name = config.output_lengths
    if name == "fixed":
        return get_output_lengths(name, output_len=max(int(config.mean_output_len), 1))
    if name == "uniform":
        return get_output_lengths(name, max_output_len=config.max_output_len)
    if name in ("geometric", "geo"):
        return get_output_lengths(
            name,
            mean_output_len=config.mean_output_len,
            max_output_len=config.max_output_len,
        )
    return get_output_lengths(name)


def _build_device(config: DecodeSweepConfig, top_k: int | None = None) -> Device:
    knobs = {
        "model": get_model_config(config.model),
        "dataset": config.dataset,
        "kv_cache_bytes": _kv_cache_bytes(config.kv_cache_mb),
    }
    if top_k is not None:
        knobs["top_k"] = top_k
    return build_device(config.device, **knobs)


def decode_concurrency_limit(
    device: Device,
    context_tokens: int,
    itl_budget_s: float,
    top_k: int | None,
    max_search: int = 4096,
) -> tuple[int, float]:
    """Largest decode batch whose step stays inside the budget, plus the
    step latency at that batch (seconds).

    The search uses the device's cost-model pieces directly with an
    explicit ``top_k`` (``None`` = dense full-context reads), so sparse and
    dense concurrency come from the *same* device -- isolating the effect
    of capping KV reads per step.
    """
    per_token = device.kv_bytes_per_token()
    bandwidth = device.kv_read_bandwidth()
    if per_token is None or bandwidth is None:
        raise ValueError(f"device '{device.name}' has no decode cost model")
    context = max(int(context_tokens), 1)
    effective = context if top_k is None else min(context, int(top_k))

    def step_latency(batch: int) -> float:
        read = per_token * effective * batch / bandwidth
        return read + device.decode_compute_seconds(batch) + device.decode_step_overhead_s

    if step_latency(1) > itl_budget_s:
        return 0, step_latency(1)
    batch = 1
    while batch < max_search and step_latency(batch + 1) <= itl_budget_s:
        batch += 1
    return batch, step_latency(batch)


def _topk_accuracy_drops(config: DecodeSweepConfig) -> dict[int, float]:
    """Fig.6-style proxy accuracy drop of each requested top-k setting."""
    if config.accuracy_examples == 0 or not config.topk:
        return {}
    model_config = reduced_config(get_model_config(config.model))
    dataset_config = get_dataset_config(config.dataset)
    teacher = TransformerModel(model_config, seed=config.seed)
    task = build_proxy_task(
        dataset_config,
        teacher,
        num_examples=config.accuracy_examples,
        seed=config.seed,
        max_length_cap=config.accuracy_max_length,
    )
    baseline = evaluate_model_on_task(teacher, task)["score"]
    drops: dict[int, float] = {}
    for k in config.topk:
        # 1-bit pre-selection, matching the paper's Fig.6 accuracy protocol.
        sparse = teacher.with_attention(
            make_sparse_attention_impl(top_k=k, quant_bits=1)
        )
        drops[k] = baseline - evaluate_model_on_task(sparse, task)["score"]
    return drops


def _topk_operating_points(
    config: DecodeSweepConfig, context_tokens: int
) -> list[TopKOperatingPoint]:
    if not config.topk:
        return []
    budget = config.itl_budget_ms * 1e-3
    drops = _topk_accuracy_drops(config)
    points = []
    for k in sorted(config.topk):
        device = _build_device(config, top_k=k)
        dense_limit, dense_step = decode_concurrency_limit(
            device, context_tokens, budget, top_k=None
        )
        sparse_limit, sparse_step = decode_concurrency_limit(
            device, context_tokens, budget, top_k=k
        )
        points.append(
            TopKOperatingPoint(
                top_k=k,
                concurrency=sparse_limit,
                dense_concurrency=dense_limit,
                step_ms=sparse_step * 1e3,
                dense_step_ms=dense_step * 1e3,
                accuracy_drop=drops.get(k),
            )
        )
    return points


def run_decode_sweep(config: DecodeSweepConfig | None = None) -> DecodeSweepResult:
    """Run the decode serving sweep (see :class:`DecodeSweepConfig`)."""
    config = config or DecodeSweepConfig()
    config.validate()
    options = config.options()
    distribution, slo = options.output_lengths, options.slo
    dataset = get_dataset_config(config.dataset)

    # Capacity reference: drain a closed-loop decode stream through the
    # iteration-level engine; offered load is expressed as fractions of it.
    capacity_report = simulate_online(
        _build_device(config),
        dataset,
        ClosedLoopArrivals(sort_by_length=True),
        config.requests,
        replace(options, slo=None),
    )
    capacity = capacity_report.sustained_qps

    context_tokens = int(round(dataset.avg_length + config.mean_output_len))
    result = DecodeSweepResult(
        dataset=dataset.name,
        model=config.model,
        device=config.device,
        kv_cache_bytes=_kv_cache_bytes(config.kv_cache_mb),
        output_lengths=distribution.name,
        mean_output_len=config.mean_output_len,
        capacity_qps=capacity,
        warmup_fraction=config.warmup_fraction,
        itl_budget_ms=config.itl_budget_ms,
        context_tokens=context_tokens,
        slo=slo.to_dict() if slo is not None else None,
    )

    for mode in config.modes:
        for fraction in config.load_fractions:
            offered = capacity * fraction
            report = simulate_online(
                _build_device(config),
                dataset,
                get_arrival_process(config.arrival, rate_qps=offered),
                config.requests,
                replace(options, iteration_level=mode == "iteration"),
            )
            result.points.append(
                DecodePoint(
                    mode=mode,
                    load_fraction=fraction,
                    offered_qps=offered,
                    capacity_qps=capacity,
                    report=report,
                    warmup_fraction=config.warmup_fraction,
                )
            )

    result.topk_points = _topk_operating_points(config, context_tokens)
    return result


def render_decode_sweep(result: DecodeSweepResult) -> str:
    """Render the decode sweep as the CLI's plain-text report."""
    kv = (
        f"{result.kv_cache_bytes / 2**20:.0f} MiB"
        if result.kv_cache_bytes is not None
        else "unbounded"
    )
    text = format_table(
        result.as_rows(),
        title=(
            f"Decode serving sweep ({result.model} on {result.device}, "
            f"{result.dataset}, KV {kv})"
        ),
    )
    footer = {
        "closed-loop capacity": f"{result.capacity_qps:.1f} seq/s",
        "output lengths": (
            f"{result.output_lengths} (mean {result.mean_output_len:.0f} tokens)"
        ),
        "warm-up fraction discarded": result.warmup_fraction,
    }
    gain = result.saturation_gain()
    if gain is not None:
        footer["iteration-level token goodput gain at top load"] = f"{gain:.3f}x"
    text += format_key_values(footer)
    if result.topk_points:
        text += "\n" + format_table(
            [point.as_row() for point in result.topk_points],
            title=(
                f"Top-k operating points (context {result.context_tokens} tokens, "
                f"inter-token budget {result.itl_budget_ms:.1f} ms)"
            ),
        )
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="decode-sweep",
        title="Decode serving sweep",
        description="TTFT / inter-token latency / attainment vs load for decoder workloads",
        config_cls=DecodeSweepConfig,
        run=run_decode_sweep,
        render=render_decode_sweep,
        order=95,
        include_in_all=False,
    )
)
