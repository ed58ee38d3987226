"""The ``plan`` experiment: how many devices do I buy?

``repro plan`` runs the fleet-composition search of
:mod:`repro.planner.search` against an arrival trace -- by default the
checked-in reference trace -- and reports the cheapest composition that
meets the attainment target plus the Pareto frontier over fleet $/hr,
attainment, and J/Mreq.  ``--jobs N`` parallelizes candidate evaluation;
the *result* payload (``result.to_dict()``) is byte-identical whatever
``jobs`` is, so plans are reproducible artifacts.

``--compare-autoscaler <policy>`` additionally simulates the chosen
composition as an elastic pool (scaling from one device under the given
provisioning lag) and reports attainment-per-dollar-hour next to the
static fleet's, quantifying what reactive scaling buys on this workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config as global_config
from ..devices import split_fleet_spec
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig, resolve_component
from ..evaluation.serving_sweep import slo_spec_from_ms
from ..serving import ServingOptions, get_arrival_process, get_batch_policy, get_router
from ..serving.arrivals import _is_rate_driven, load_trace
from ..transformer.configs import DATASET_ZOO, MODEL_ZOO, get_model_config
from ..evaluation.report import format_key_values, format_table
from .search import (
    PlanSearchResult,
    _composition_fleet,
    _replay_trace,
    reference_trace_path,
    search_fleets,
)

__all__ = ["PlanConfig", "PlanResult", "run_plan"]


@dataclass(frozen=True)
class PlanConfig(ExperimentConfig):
    """Configuration of the capacity-planning search."""

    dataset: str = cfg_field("mrpc", choices=sorted(DATASET_ZOO), help="Table 1 dataset")
    devices: tuple[str, ...] = cfg_field(
        ("sparse-fpga", "gpu-rtx6000", "cpu-xeon"),
        help=(
            "device catalog to shop from: registered device names "
            "(compositions mix them freely); see `python -m repro list`"
        ),
    )
    max_per_type: int = cfg_field(2, help="most copies of any one device in a fleet")
    max_total: int = cfg_field(3, help="most devices in a fleet overall")
    attainment_target: float = cfg_field(
        0.95, help="deadline-attainment fraction a fleet must reach to be feasible"
    )
    slo_ms: float = cfg_field(
        250.0,
        help=(
            "per-request latency budget (ms): deadline = arrival + slo-ms + "
            "slo-per-token-ms * length"
        ),
    )
    slo_per_token_ms: float = cfg_field(
        0.0, help="length-proportional part of the latency budget (ms per token)"
    )
    arrival: str = cfg_field(
        "trace",
        help=(
            "workload source: 'trace' replays trace-file (default: the "
            "checked-in reference trace); any rate-driven process "
            "(poisson, diurnal, flash-crowd, ...) generates one with --qps"
        ),
    )
    trace_file: str | None = cfg_field(
        None,
        help=(
            "JSON trace of arrival times (or [time, length] pairs); "
            "default: the checked-in reference trace"
        ),
    )
    qps: float | None = cfg_field(
        None, help="offered load for generated arrivals (ignored for trace)"
    )
    requests: int | None = cfg_field(
        None,
        help=(
            "request count: cap for trace replay (default full trace), "
            "required for generated arrivals"
        ),
    )
    batch_policy: str = cfg_field(
        "timeout", help="batch formation every candidate fleet runs (fixed, timeout, ...)"
    )
    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    timeout_ms: float = cfg_field(20.0, help="dynamic-batching timeout (ms)")
    routing: str = cfg_field(
        "least-loaded", help="fleet routing policy every candidate fleet runs"
    )
    continuous_batching: bool = cfg_field(
        False, help="device-level continuous batching (admit while draining)"
    )
    cache_length_bucket: int | None = cfg_field(
        16,
        help=(
            "schedule-cache length quantization in tokens; the search replays "
            "one length stream across many fleets, so bucketing keeps the "
            "shared cache hot (none = exact billing)"
        ),
    )
    jobs: int = cfg_field(
        1,
        help=(
            "parallel candidate evaluations per wave (the plan itself is "
            "byte-identical whatever the value)"
        ),
    )
    prune: bool = cfg_field(
        True,
        help=(
            "skip strict supersets of feasible compositions (exact for the "
            "cheapest-fleet objective; no = evaluate every composition)"
        ),
    )
    compare_autoscaler: str | None = cfg_field(
        None,
        help=(
            "also run the chosen composition as an elastic pool under this "
            "scaling policy (queue-depth, predicted-attainment, or plug-in) "
            "and report attainment per $/hr vs. the static fleet"
        ),
    )
    provisioning_lag_s: float = cfg_field(
        2.0, help="seconds between a scale-up decision and the device coming online"
    )
    autoscale_interval_s: float = cfg_field(
        1.0, help="seconds between autoscaler decisions (comparison run)"
    )
    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        names = split_fleet_spec(self.devices)
        if not names:
            raise ValueError("devices must name at least one registered device")
        for name in names:
            resolve_component("device", name)
        if len(set(names)) != len(names):
            raise ValueError("devices must not repeat a catalog entry (counts do that)")
        if self.max_per_type < 1:
            raise ValueError("max_per_type must be >= 1")
        if self.max_total < 1:
            raise ValueError("max_total must be >= 1")
        if not 0.0 < self.attainment_target <= 1.0:
            raise ValueError("attainment_target must be in (0, 1]")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be > 0 (the target is deadline attainment)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        if self.cache_length_bucket is not None and self.cache_length_bucket < 1:
            raise ValueError("cache_length_bucket must be >= 1 (or none for exact)")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.requests is not None and self.requests < 1:
            raise ValueError("requests must be >= 1 (or none for the full trace)")
        arrival = resolve_component("arrival", self.arrival)
        resolve_component("batch-policy", self.batch_policy)
        resolve_component("router", self.routing)
        if _is_rate_driven(arrival):
            if self.qps is None or self.qps <= 0:
                raise ValueError(f"arrival '{self.arrival}' needs a positive qps")
            if self.requests is None:
                raise ValueError(f"arrival '{self.arrival}' needs requests")
        elif self.arrival.lower() != "trace":
            raise ValueError(
                "plan needs a finite workload: use 'trace' or a rate-driven "
                "arrival process"
            )
        if self.trace_file is not None and self.arrival.lower() != "trace":
            raise ValueError(
                f"trace_file is only read by arrival 'trace', not '{self.arrival}'"
            )
        if self.compare_autoscaler is not None:
            resolve_component("autoscaler", self.compare_autoscaler)
        self.options(self.compare_autoscaler)

    def options(self, autoscaler: str | None = None) -> ServingOptions:
        """The engine options every candidate replays with (ms -> s), scaled
        by ``autoscaler`` from one device for the comparison run."""
        return ServingOptions(
            batch_policy=get_batch_policy(
                self.batch_policy, batch_size=self.batch_size, timeout_s=self.timeout_ms * 1e-3
            ),
            router=get_router(self.routing),
            seed=self.seed,
            continuous_batching=self.continuous_batching,
            slo=slo_spec_from_ms(self.slo_ms, self.slo_per_token_ms),
            autoscaler=autoscaler,
            provisioning_lag_s=self.provisioning_lag_s,
            autoscale_interval_s=self.autoscale_interval_s,
        )


@dataclass
class PlanResult:
    """One capacity plan: search outcome plus optional autoscale comparison."""

    dataset: str
    model: str
    slo_ms: float
    slo_per_token_ms: float
    trace_source: str
    num_requests: int
    search: PlanSearchResult
    comparison: dict | None = None
    max_per_type: int = 2
    max_total: int = 3

    def to_dict(self) -> dict:
        """Machine-readable plan; identical whatever ``jobs`` ran the search."""
        search = self.search
        return {
            "dataset": self.dataset,
            "model": self.model,
            "slo_ms": self.slo_ms,
            "slo_per_token_ms": self.slo_per_token_ms,
            "attainment_target": search.attainment_target,
            "trace": {"source": self.trace_source, "num_requests": self.num_requests},
            "catalog": {
                "devices": list(search.devices),
                "prices_usd_per_hour": [round(p, 6) for p in search.device_prices],
                "max_per_type": self.max_per_type,
                "max_total": self.max_total,
            },
            "search": {
                "num_enumerated": search.num_enumerated,
                "num_evaluated": len(search.candidates),
                "num_pruned": len(search.pruned),
            },
            "chosen": None if search.chosen is None else search.chosen.to_dict(),
            "candidates": [c.to_dict() for c in search.candidates],
            "pruned": [c.to_dict() for c in search.pruned],
            "pareto_frontier": [c.to_dict() for c in search.frontier],
            "comparison": self.comparison,
        }


def _build_trace(config: PlanConfig) -> tuple[tuple, str]:
    """The (time, length) workload every candidate replays, plus its label."""
    if config.arrival.lower() == "trace":
        path = config.trace_file or reference_trace_path()
        trace = load_trace(path)
        source = "reference" if config.trace_file is None else str(path)
        return trace, source
    process = get_arrival_process(config.arrival, rate_qps=config.qps)
    requests = process.generate(config.dataset, config.requests, seed=config.seed)
    trace = tuple((r.arrival_time, r.length) for r in requests)
    return trace, f"{config.arrival}@{config.qps:g}qps"


def _autoscale_comparison(
    config: PlanConfig, trace: tuple, search: PlanSearchResult
) -> dict | None:
    """Re-run the chosen composition as an elastic pool and compare."""
    chosen = search.chosen
    if config.compare_autoscaler is None or chosen is None:
        return None
    fleet = _composition_fleet(config, chosen.counts)
    report = _replay_trace(config, trace, fleet, config.options(config.compare_autoscaler))
    static_rate = (
        None
        if chosen.attainment is None
        else chosen.attainment / chosen.price_per_hour_usd
    )
    return {
        "autoscaler": config.compare_autoscaler,
        "provisioning_lag_s": config.provisioning_lag_s,
        "fleet": chosen.fleet,
        "static": {
            "attainment": chosen.attainment,
            "cost_usd": chosen.cost_usd,
            "average_price_per_hour_usd": chosen.price_per_hour_usd,
            "attainment_per_dollar_hour": static_rate,
        },
        "autoscaled": {
            "attainment": report.attainment_rate,
            "cost_usd": report.cost_usd,
            "average_price_per_hour_usd": report.average_price_per_hour_usd,
            "attainment_per_dollar_hour": report.attainment_per_dollar_hour,
            "scaling_steps": len(report.scaling_timeline),
            "peak_active_devices": max(n for _, n in report.scaling_timeline),
        },
    }


def run_plan(config: PlanConfig) -> PlanResult:
    """Run the capacity-planning search for one workload."""
    model = get_model_config(config.model)
    trace, source = _build_trace(config)
    search = search_fleets(config, trace)
    num_requests = len(trace)
    if config.requests is not None:
        num_requests = min(num_requests, config.requests)
    return PlanResult(
        dataset=config.dataset,
        model=model.name,
        slo_ms=config.slo_ms,
        slo_per_token_ms=config.slo_per_token_ms,
        trace_source=source,
        num_requests=num_requests,
        search=search,
        comparison=_autoscale_comparison(config, trace, search),
        max_per_type=config.max_per_type,
        max_total=config.max_total,
    )


def _render(result: PlanResult) -> str:
    search = result.search
    chosen = search.chosen
    frontier = {id(c) for c in search.frontier}
    rows = []
    for candidate in search.candidates:
        marks = []
        if chosen is not None and candidate is chosen:
            marks.append("chosen")
        if id(candidate) in frontier:
            marks.append("pareto")
        rows.append(
            {
                "fleet": candidate.fleet,
                "$/hr": round(candidate.price_per_hour_usd, 4),
                "attainment": (
                    f"{candidate.attainment:.1%}"
                    if candidate.attainment is not None
                    else None
                ),
                "goodput_qps": (
                    round(candidate.goodput_qps, 1)
                    if candidate.goodput_qps is not None
                    else None
                ),
                "J/Mreq": (
                    round(candidate.joules_per_mreq, 0)
                    if candidate.joules_per_mreq is not None
                    else None
                ),
                "cost_usd": (
                    round(candidate.cost_usd, 6) if candidate.cost_usd is not None else None
                ),
                "feasible": "yes" if candidate.meets_target else "no",
                "notes": " ".join(marks),
            }
        )
    text = format_table(
        rows, title=f"Capacity plan: {result.dataset} @ slo {result.slo_ms:g} ms"
    )
    footer = {
        "attainment target": f"{search.attainment_target:.0%}",
        "workload": f"{result.trace_source} ({result.num_requests} requests)",
        "compositions enumerated": search.num_enumerated,
        "evaluated": len(search.candidates),
        "pruned as feasible-supersets": len(search.pruned),
        "chosen fleet": chosen.fleet if chosen is not None else "none feasible",
    }
    if chosen is not None:
        footer["chosen $/hr"] = round(chosen.price_per_hour_usd, 4)
        footer["chosen run cost (USD)"] = (
            round(chosen.cost_usd, 6) if chosen.cost_usd is not None else None
        )
    footer["pareto frontier"] = "; ".join(c.fleet for c in search.frontier)
    text += format_key_values(footer)
    if result.comparison is not None:
        static = result.comparison["static"]
        scaled = result.comparison["autoscaled"]
        text += format_table(
            [
                {
                    "mode": "static",
                    "attainment": (
                        f"{static['attainment']:.1%}"
                        if static["attainment"] is not None
                        else None
                    ),
                    "avg $/hr": round(static["average_price_per_hour_usd"], 4),
                    "attainment per $/hr": (
                        round(static["attainment_per_dollar_hour"], 4)
                        if static["attainment_per_dollar_hour"] is not None
                        else None
                    ),
                },
                {
                    "mode": f"autoscaled ({result.comparison['autoscaler']})",
                    "attainment": (
                        f"{scaled['attainment']:.1%}"
                        if scaled["attainment"] is not None
                        else None
                    ),
                    "avg $/hr": (
                        round(scaled["average_price_per_hour_usd"], 4)
                        if scaled["average_price_per_hour_usd"] is not None
                        else None
                    ),
                    "attainment per $/hr": (
                        round(scaled["attainment_per_dollar_hour"], 4)
                        if scaled["attainment_per_dollar_hour"] is not None
                        else None
                    ),
                },
            ],
            title=f"Chosen fleet, static vs. autoscaled ({result.comparison['fleet']})",
        )
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="plan",
        title="Capacity planning: fleet search",
        description=(
            "search heterogeneous fleet compositions for the cheapest one "
            "meeting an attainment target; Pareto frontier over $/hr, "
            "attainment, J/Mreq"
        ),
        config_cls=PlanConfig,
        run=run_plan,
        render=_render,
        order=95,
        include_in_all=False,
    )
)
