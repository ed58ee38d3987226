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

from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..devices import split_fleet_spec
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import resolve_component
from ..serving import OnlineServingReport, ServingOptions, TraceArrivals, get_arrival_process
from ..serving.arrivals import _is_rate_driven, load_trace
from ..serving.classes import parse_class_queue_limits
from ..transformer.configs import DATASET_ZOO, get_model_config
from .report import format_key_values, format_table
from .serving_sweep import (
    ServingKnobs,
    ServingSweepConfig,
    ServingSweepResult,
    _config_error,
    _sweep_impl,
    class_mix_arrivals,
    render_sweep,
)

__all__ = ["ServeConfig", "ServeResult"]

#: Knobs only a single online run honors; the load-sweep fallback (no qps
#: with a rate-driven arrival) has no such field, so it refuses them.
_ONLINE_ONLY_KNOBS = ("autoscaler", "class_queue_limits", "shed_on_predicted_miss")


@dataclass(frozen=True)
class ServeConfig(ServingKnobs):
    """Configuration of the online serving experiment."""

    dataset: str = cfg_field("mrpc", choices=sorted(DATASET_ZOO), help="Table 1 dataset")
    qps: float | None = cfg_field(
        None, help="offered load (seq/s); omit to sweep load fractions"
    )
    # Any registered name or alias is accepted (validated against the
    # registry below), so plug-in policies/arrivals/devices work unchanged;
    # plug-in routers see Device fleets and should read backlogs via
    # Router.backlog_seconds (see repro.serving.routing).
    batch_policy: str = cfg_field(
        "timeout", help="batch formation (fixed, timeout, bucketed, or plug-in)"
    )
    routing: str = cfg_field(
        "least-loaded",
        help="fleet routing policy (round-robin, least-loaded, length-sharded, or plug-in)",
    )
    shed_on_predicted_miss: bool = cfg_field(
        False,
        help=(
            "deadline-aware admission: shed a request at arrival when no "
            "device could meet its deadline even dispatched alone "
            "(reported as num_shed_predicted)"
        ),
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
    trace_file: str | None = cfg_field(
        None, help="JSON trace of arrival times (or [time, length] pairs)"
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

    def axis(self, name: str) -> tuple[str, ...]:
        """serve's single entries in sweep-axis form ("none" = no axis)."""
        if name == "batch_policies":
            return (self.batch_policy,)
        entry = getattr(self, name)
        return () if entry is None or entry == "none" else (entry,)

    def validate(self) -> None:
        super().validate()
        if self.qps is not None and self.qps <= 0:
            raise ValueError("qps must be > 0")
        resolve_component("router", self.routing)
        if self._replays_trace():
            if self.trace_file is None:
                raise ValueError("arrival 'trace' needs trace_file")
            if not Path(self.trace_file).is_file():
                raise ValueError(f"trace file {self.trace_file} does not exist")
        elif self.trace_file is not None:
            raise ValueError(
                f"trace_file is only read by arrival 'trace', not '{self.arrival}'"
            )
        rate_driven = self.is_rate_driven()
        if not rate_driven and self.qps is not None:
            raise ValueError(
                f"arrival '{self.arrival}' is not rate-driven; drop qps "
                "(trace replays its recorded times, closed-loop queues everything at t=0)"
            )
        if self.autoscaler is not None:
            resolve_component("autoscaler", self.autoscaler)
        if rate_driven and self.qps is None:
            for knob in _ONLINE_ONLY_KNOBS:
                if getattr(self, knob) not in (None, False):
                    raise ValueError(
                        f"{knob} needs a single online run: give qps or use a "
                        "non-rate arrival (trace), not the load sweep"
                    )

    def options(self, fault_name: str | None = None) -> ServingOptions:
        """The shared knobs' options plus the ones only a single online run sets."""
        limits = self.class_queue_limits
        with _config_error("class_queue_limits"):
            limits = None if limits is None else parse_class_queue_limits(limits)
        return replace(
            super().options(fault_name),
            shed_on_predicted_miss=self.shed_on_predicted_miss,
            class_queue_limits=limits,
            autoscaler=self.autoscaler,
            provisioning_lag_s=self.provisioning_lag_s,
            autoscale_interval_s=self.autoscale_interval_s,
            min_devices=self.min_devices,
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
        served = bool(self.report.num_completed)
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


def _sweep_config(config: ServeConfig) -> ServingSweepConfig:
    """The load-sweep fallback: the shared knobs carry over as they are."""
    return ServingSweepConfig(
        **{f.name: getattr(config, f.name) for f in fields(ServingKnobs)},
        **{name: config.axis(name) for name in ("batch_policies", "faults", "classes")},
        datasets=(config.dataset,),
        router=config.routing,
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
    report = config.simulate(
        config.dataset,
        class_mix_arrivals(_build_arrivals(config), config.classes),
        config.batch_policy,
        config.routing,
        config.faults,
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
    served = bool(report.num_completed)
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
