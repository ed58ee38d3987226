"""The ``serve`` experiment: online serving at a fixed load (or a sweep).

This is the registry-facing face of the serving engine, built on the unified
Device API: ``--devices`` takes any registered device names (mixed fleets
like ``sparse-fpga,gpu-rtx6000`` included), ``--continuous-batching``
enables device-level continuous batching, and ``--max-queue-depth`` turns on
admission control.  ``--slo-ms`` (plus ``--slo-per-token-ms``) stamps every
request with a deadline and reports attainment/goodput -- pair it with
``--batch-policy deadline --routing cost-model`` for the SLO-aware serving
stack -- and ``--device-max-batch-size`` / ``--device-max-batch-tokens``
cap what any single device may admit per batch.  ``--classes`` tags the
stream with a request-class mix (multi-tenant SLO tiers; pair with
``--batch-policy priority-deadline`` for preemptive tiering) and
``--class-queue-limits`` bounds each class's share of the formation queue.  With a rate-driven arrival process (``poisson`` /
``bursty``) and an explicit ``qps`` the experiment runs one open-loop
simulation; without ``qps`` it falls back to the latency-vs-load sweep over
that single dataset.  The ``trace`` and ``closed-loop`` arrival processes
need no rate: a trace replays a recorded ``(time[, length])`` stream from a
JSON file, and closed-loop queues every request at t=0 (the legacy
batch-drain mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .. import config as global_config
from ..devices import build_fleet, split_fleet_spec
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig, resolve_component
from ..serving import (
    OnlineServingReport,
    TraceArrivals,
    get_arrival_process,
    get_batch_policy,
    simulate_online,
)
from ..serving.arrivals import _is_rate_driven, load_trace
from ..transformer.configs import DATASET_ZOO, MODEL_ZOO, get_model_config
from .report import format_key_values, format_table
from ..serving.classes import parse_class_queue_limits
from .serving_sweep import (
    DEFAULT_WARMUP_FRACTION,
    ServingSweepConfig,
    ServingSweepResult,
    _sweep_impl,
    build_failure_aware_router,
    class_mix_arrivals,
    fault_schedules_from_knobs,
    render_sweep,
    slo_spec_from_ms,
    validate_class_axis,
    validate_fault_knobs,
    validate_slo_knobs,
)

__all__ = ["ServeConfig", "ServeResult"]

#: Knobs only a single online run honors; the load-sweep fallback (no qps
#: with a rate-driven arrival) has no such field, so it refuses them.
_ONLINE_ONLY_KNOBS = ("autoscaler", "class_queue_limits", "shed_on_predicted_miss")


@dataclass(frozen=True)
class ServeConfig(ExperimentConfig):
    """Configuration of the online serving experiment."""

    dataset: str = cfg_field("mrpc", choices=sorted(DATASET_ZOO), help="Table 1 dataset")
    qps: float | None = cfg_field(
        None, help="offered load (seq/s); omit to sweep load fractions"
    )
    requests: int = cfg_field(192, help="number of requests to simulate")
    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    # Any registered name or alias is accepted (validated against the
    # registry below), so plug-in policies/arrivals/devices work unchanged;
    # plug-in routers see Device fleets and should read backlogs via
    # Router.backlog_seconds (see repro.serving.routing).
    batch_policy: str = cfg_field(
        "timeout", help="batch formation (fixed, timeout, bucketed, or plug-in)"
    )
    timeout_ms: float = cfg_field(20.0, help="dynamic-batching timeout (ms)")
    num_buckets: int = cfg_field(4, help="length buckets (bucketed policy)")
    bucket_width: float | None = cfg_field(
        None, help="fixed bucket width in tokens (overrides num-buckets)"
    )
    routing: str = cfg_field(
        "least-loaded",
        help="fleet routing policy (round-robin, least-loaded, length-sharded, or plug-in)",
    )
    devices: tuple[str, ...] = cfg_field(
        ("sparse-fpga",),
        help=(
            "device fleet: registered device names, mixed freely "
            "(e.g. sparse-fpga,gpu-rtx6000); see `python -m repro list`"
        ),
    )
    num_accelerators: int = cfg_field(1, help="replicas of the device fleet")
    continuous_batching: bool = cfg_field(
        False, help="device-level continuous batching (admit while draining)"
    )
    max_queue_depth: int | None = cfg_field(
        None, help="shed arrivals beyond this many waiting requests"
    )
    shed_on_predicted_miss: bool = cfg_field(
        False,
        help=(
            "deadline-aware admission: shed a request at arrival when no "
            "device could meet its deadline even dispatched alone "
            "(reported as num_shed_predicted)"
        ),
    )
    slo_ms: float | None = cfg_field(
        None,
        help=(
            "per-request latency budget (ms): deadline = arrival + slo-ms + "
            "slo-per-token-ms * length; enables attainment/goodput reporting"
        ),
    )
    slo_per_token_ms: float = cfg_field(
        0.0, help="length-proportional part of the latency budget (ms per token)"
    )
    device_max_batch_size: int | None = cfg_field(
        None, help="per-device admission limit: requests per dispatched batch"
    )
    device_max_batch_tokens: int | None = cfg_field(
        None, help="per-device admission limit: total tokens per dispatched batch"
    )
    faults: str | None = cfg_field(
        None,
        help=(
            "fault injection: a registered fault schedule (crash-restart, "
            "straggler, thermal-throttle; compose with '+'); default none"
        ),
    )
    classes: str | None = cfg_field(
        None,
        help=(
            "request-class mix tagging the arrival stream (e.g. "
            "interactive:0.5,batch:0.3,best-effort:0.2); enables per-class "
            "attainment/shed reporting; default untagged"
        ),
    )
    class_queue_limits: str | None = cfg_field(
        None,
        help=(
            "per-class admission limits on the formation queue (e.g. "
            "best-effort:8,batch:16); arrivals beyond a class's limit are "
            "shed; online mode only"
        ),
    )
    fault_mtbf_s: float = cfg_field(
        5.0, help="mean seconds between faults per device (see serving-sweep)"
    )
    fault_downtime_s: float = cfg_field(
        0.5, help="mean offline seconds per crash (crash-restart)"
    )
    fault_multiplier: float = cfg_field(
        2.5, help="latency factor while degraded (straggler / thermal peak), >= 1"
    )
    fault_duration_s: float = cfg_field(
        1.0, help="mean degraded-period seconds (straggler / thermal hold)"
    )
    hedging: bool = cfg_field(
        False,
        help=(
            "remedy: duplicate every batch on a second device; first "
            "completion wins, the loser is cancelled"
        ),
    )
    max_retries: int = cfg_field(
        0,
        help=(
            "remedy: crash retries per request after the free replay "
            "(0 = the live gateway's requeue-exactly-once)"
        ),
    )
    retry_backoff_ms: float = cfg_field(
        50.0, help="base of the exponential backoff between crash retries (ms)"
    )
    blacklist_ms: float = cfg_field(
        0.0,
        help=(
            "remedy (cost-model router): blacklist a crashed device this "
            "long (ms; doubles per repeat failure; 0 = off)"
        ),
    )
    # Matches the serving-sweep default so `serve` without --qps and
    # `serving-sweep` report identical statistics for the same simulation.
    warmup_fraction: float = cfg_field(
        DEFAULT_WARMUP_FRACTION,
        help=(
            "warm-up fraction of the arrival horizon discarded from "
            "steady-state statistics (sweep rows; a 'steady' block in "
            "online mode)"
        ),
    )
    arrival: str = cfg_field(
        "poisson",
        help=(
            "arrival process (poisson, bursty, diurnal, flash-crowd, trace, "
            "closed-loop, or plug-in)"
        ),
    )
    trace_file: str | None = cfg_field(
        None, help="JSON trace of arrival times (or [time, length] pairs)"
    )
    cache_length_bucket: int | None = cfg_field(
        None,
        help=(
            "schedule-cache length quantization in tokens (round lengths up "
            "before scheduling); default exact (serving-sweep defaults to 16)"
        ),
    )
    autoscaler: str | None = cfg_field(
        None,
        help=(
            "treat the fleet as an elastic pool driven by this scaling "
            "policy (queue-depth, predicted-attainment, or plug-in); "
            "default static fleet"
        ),
    )
    provisioning_lag_s: float = cfg_field(
        2.0, help="seconds between a scale-up decision and the device coming online"
    )
    autoscale_interval_s: float = cfg_field(
        1.0, help="seconds between autoscaler decisions"
    )
    min_devices: int = cfg_field(
        1, help="devices the autoscaler must keep online (also the starting pool)"
    )
    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        if self.qps is not None and self.qps <= 0:
            raise ValueError("qps must be > 0")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_accelerators < 1:
            raise ValueError("num_accelerators must be >= 1")
        if self.timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or none)")
        validate_slo_knobs(
            self.slo_ms,
            self.slo_per_token_ms,
            self.device_max_batch_size,
            self.device_max_batch_tokens,
        )
        validate_fault_knobs(
            () if self.faults is None else (self.faults,),
            fault_mtbf_s=self.fault_mtbf_s,
            fault_downtime_s=self.fault_downtime_s,
            fault_multiplier=self.fault_multiplier,
            fault_duration_s=self.fault_duration_s,
            max_retries=self.max_retries,
            retry_backoff_ms=self.retry_backoff_ms,
            blacklist_ms=self.blacklist_ms,
        )
        if self.classes is not None:
            validate_class_axis((self.classes,))
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.cache_length_bucket is not None and self.cache_length_bucket < 1:
            raise ValueError("cache_length_bucket must be >= 1 (or none for exact)")
        names = split_fleet_spec(self.devices)
        if not names:
            raise ValueError("devices must name at least one registered device")
        for name in names:
            resolve_component("device", name)
        arrival = resolve_component("arrival", self.arrival)
        resolve_component("batch-policy", self.batch_policy)
        resolve_component("router", self.routing)
        if self._replays_trace():
            if self.trace_file is None:
                raise ValueError("arrival 'trace' needs trace_file")
            if not Path(self.trace_file).is_file():
                raise ValueError(f"trace file {self.trace_file} does not exist")
        if not _is_rate_driven(arrival) and self.qps is not None:
            raise ValueError(
                f"arrival '{self.arrival}' is not rate-driven; drop qps "
                "(trace replays its recorded times, closed-loop queues everything at t=0)"
            )
        if self.provisioning_lag_s < 0:
            raise ValueError("provisioning_lag_s must be >= 0")
        if self.autoscale_interval_s <= 0:
            raise ValueError("autoscale_interval_s must be > 0")
        if self.min_devices < 1:
            raise ValueError("min_devices must be >= 1")
        if self.autoscaler is not None:
            resolve_component("autoscaler", self.autoscaler)
        if self.class_queue_limits is not None:
            try:
                parse_class_queue_limits(self.class_queue_limits)
            except (KeyError, ValueError) as error:
                message = error.args[0] if error.args else str(error)
                raise ValueError(f"class_queue_limits: {message}") from error
        if _is_rate_driven(arrival) and self.qps is None:
            for knob in _ONLINE_ONLY_KNOBS:
                if getattr(self, knob) not in (None, False):
                    raise ValueError(
                        f"{knob} needs a single online run: give qps or use a "
                        "non-rate arrival (trace), not the load sweep"
                    )

    def is_rate_driven(self) -> bool:
        """Whether the configured arrival process is driven by an offered rate."""
        return _is_rate_driven(resolve_component("arrival", self.arrival))

    def _replays_trace(self) -> bool:
        # Registry names resolve case-insensitively; match that here.
        return self.arrival.lower() == "trace"


@dataclass
class ServeResult:
    """Either one online simulation or a latency-vs-load sweep."""

    mode: str  # "online" or "sweep"
    model: str
    num_accelerators: int
    devices: tuple[str, ...] = ("sparse-fpga",)
    warmup_fraction: float = 0.0
    report: OnlineServingReport | None = None
    sweep: ServingSweepResult | None = None

    def steady_stats(self) -> dict | None:
        """Post-warm-up statistics of an online run (None when not applicable)."""
        if self.report is None or self.warmup_fraction <= 0.0:
            return None
        warmup = self.warmup_fraction
        served = bool(self.report.steady_records(warmup))
        stats = {
            "warmup_fraction": warmup,
            "sustained_qps": self.report.steady_qps(warmup),
            "latency_ms": {
                "p50": self.report.steady_latency_percentile(50, warmup) * 1e3
                if served
                else None,
                "p95": self.report.steady_latency_percentile(95, warmup) * 1e3
                if served
                else None,
                "p99": self.report.steady_latency_percentile(99, warmup) * 1e3
                if served
                else None,
            },
        }
        attainment = self.report.steady_attainment_rate(warmup)
        if attainment is not None:
            stats["attainment_rate"] = attainment
            stats["goodput_qps"] = self.report.steady_goodput_qps(warmup)
        return stats

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready)."""
        payload: dict = {
            "mode": self.mode,
            "model": self.model,
            "num_accelerators": self.num_accelerators,
            "devices": list(self.devices),
        }
        if self.report is not None:
            payload["report"] = self.report.to_dict()
            steady = self.steady_stats()
            if steady is not None:
                payload["steady"] = steady
        if self.sweep is not None:
            payload["sweep"] = self.sweep.to_dict()
        return payload


def _build_arrivals(config: ServeConfig):
    if config._replays_trace():
        return TraceArrivals(trace=load_trace(config.trace_file))
    return get_arrival_process(config.arrival, rate_qps=config.qps)


def _axis(entry: str | None) -> tuple[str, ...]:
    """One serve fault/class entry as a sweep axis ("none" = no axis)."""
    return () if entry is None or entry == "none" else (entry,)


def _sweep_config(config: ServeConfig) -> ServingSweepConfig:
    """The load-sweep fallback: same-named knobs carry over as they are."""
    shared = ServeConfig.field_types().keys() & ServingSweepConfig.field_types().keys()
    return ServingSweepConfig(
        **{name: getattr(config, name) for name in shared - {"faults", "classes"}},
        datasets=(config.dataset,),
        batch_policies=(config.batch_policy,),
        router=config.routing,
        faults=_axis(config.faults),
        classes=_axis(config.classes),
    )


def _run_spec(config: ServeConfig) -> ServeResult:
    model = get_model_config(config.model)
    device_names = tuple(split_fleet_spec(config.devices))
    if config.is_rate_driven() and config.qps is None:
        return ServeResult(
            mode="sweep",
            model=model.name,
            num_accelerators=config.num_accelerators,
            devices=device_names,
            sweep=_sweep_impl(_sweep_config(config)),
        )

    fleet = build_fleet(
        device_names,
        model=model,
        dataset=config.dataset,
        replicas=config.num_accelerators,
        cache_length_bucket=config.cache_length_bucket,
        max_batch_size=config.device_max_batch_size,
        max_batch_tokens=config.device_max_batch_tokens,
    )
    report = simulate_online(
        fleet,
        config.dataset,
        arrivals=class_mix_arrivals(_build_arrivals(config), config.classes),
        num_requests=config.requests,
        batch_policy=get_batch_policy(
            config.batch_policy,
            batch_size=config.batch_size,
            timeout_s=config.timeout_ms * 1e-3,
            num_buckets=config.num_buckets,
            bucket_width=config.bucket_width,
        ),
        router=build_failure_aware_router(config.routing, config.blacklist_ms * 1e-3),
        continuous_batching=config.continuous_batching,
        max_queue_depth=config.max_queue_depth,
        slo=slo_spec_from_ms(config.slo_ms, config.slo_per_token_ms),
        faults=fault_schedules_from_knobs(
            config.faults,
            mtbf_s=config.fault_mtbf_s,
            downtime_s=config.fault_downtime_s,
            multiplier=config.fault_multiplier,
            duration_s=config.fault_duration_s,
        ),
        hedging=config.hedging,
        max_retries=config.max_retries,
        retry_backoff_s=config.retry_backoff_ms * 1e-3,
        seed=config.seed,
        shed_on_predicted_miss=config.shed_on_predicted_miss,
        class_queue_limits=(
            None
            if config.class_queue_limits is None
            else parse_class_queue_limits(config.class_queue_limits)
        ),
        autoscaler=config.autoscaler,
        provisioning_lag_s=config.provisioning_lag_s,
        autoscale_interval_s=config.autoscale_interval_s,
        min_devices=config.min_devices,
    )
    return ServeResult(
        mode="online",
        model=model.name,
        num_accelerators=config.num_accelerators,
        devices=device_names,
        warmup_fraction=config.warmup_fraction,
        report=report,
    )


def _render(result: ServeResult) -> str:
    if result.mode == "sweep":
        return render_sweep(result.sweep)
    report = result.report
    text = format_table([report.as_row()], title="Online serving simulation")
    text += format_table(
        [
            {
                "device": device.index,
                "name": device.accelerator,
                "backend": device.backend,
                "batches": device.num_batches,
                "requests": device.num_requests,
                "busy_s": round(device.busy_seconds, 4),
                "duty_cycle": round(device.duty_cycle(report.makespan_seconds), 3),
                "pipeline_util": round(device.mean_pipeline_utilization, 3),
                "energy_j": (
                    round(device.energy_joules, 3)
                    if device.energy_joules is not None
                    else None
                ),
                "price_per_hr": device.price_per_hour_usd,
                "online_s": (
                    round(device.online_seconds, 4)
                    if device.online_seconds is not None
                    else None
                ),
            }
            for device in report.devices
        ],
        title="Per-device utilization",
    )
    served = bool(report.records)
    footer = {
        "queueing delay p50 (ms)": (
            round(report.queueing_delay_percentile(50) * 1e3, 2) if served else None
        ),
        "queueing delay p99 (ms)": (
            round(report.queueing_delay_percentile(99) * 1e3, 2) if served else None
        ),
        "max queue depth": report.max_queue_depth,
        "shed requests": report.num_shed,
        "continuous batching": report.continuous_batching,
        "router": report.router,
    }
    if report.attainment_rate is not None:
        footer["deadline attainment"] = f"{report.attainment_rate:.1%}"
        footer["goodput (on-time seq/s)"] = round(report.goodput_qps, 1)
        footer["shed as provably late"] = report.num_shed_late
        if report.num_shed_predicted:
            footer["shed at arrival (predicted miss)"] = report.num_shed_predicted
    if report.num_limit_splits:
        footer["batches split by device limits"] = report.num_limit_splits
    if report.faults is not None:
        footer["fault schedules"] = ", ".join(
            schedule.get("name", "?") for schedule in report.faults
        )
        footer["crashes (replayed / retried / shed)"] = (
            f"{report.num_crashes} ({report.num_replayed} / "
            f"{report.num_retries} / {report.num_shed_crashed})"
        )
        if report.num_hedged:
            footer["hedged batches (mirror wins)"] = (
                f"{report.num_hedged} ({report.num_hedge_wins})"
            )
    if report.num_preemptions is not None:
        footer["lower-tier preemptions"] = report.num_preemptions
    if report.class_summaries is not None:
        for name, summary in report.class_summaries.items():
            attainment = (
                f"{summary.attainment:.1%}" if summary.attainment is not None else "n/a"
            )
            footer[f"class {name}"] = (
                f"{summary.offered} offered, {summary.completed} completed, "
                f"{summary.shed} shed, attainment {attainment}"
            )
    if report.cost_usd is not None:
        footer["fleet cost (USD)"] = round(report.cost_usd, 6)
        footer["avg fleet price (USD/hr)"] = round(report.average_price_per_hour_usd, 4)
        if report.attainment_per_dollar_hour is not None:
            footer["attainment per $/hr"] = round(report.attainment_per_dollar_hour, 4)
    if report.autoscaler is not None:
        footer["autoscaler"] = report.autoscaler
        footer["provisioning lag (s)"] = report.provisioning_lag_s
        footer["scaling steps"] = len(report.scaling_timeline)
        footer["peak active devices"] = max(n for _, n in report.scaling_timeline)
    steady = result.steady_stats()
    if steady is not None:
        steady_p99 = steady["latency_ms"]["p99"]
        footer["steady-state p99 (ms)"] = (
            round(steady_p99, 2) if steady_p99 is not None else None
        )
        footer["steady-state qps"] = round(steady["sustained_qps"], 1)
        footer["warm-up fraction discarded"] = steady["warmup_fraction"]
    text += format_key_values(footer)
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="serve",
        title="Online serving simulation",
        description="online serving simulation (fixed QPS) or latency-vs-load sweep (no --qps)",
        config_cls=ServeConfig,
        run=_run_spec,
        render=_render,
        order=80,
        include_in_all=False,
    )
)
