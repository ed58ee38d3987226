"""Latency-vs-offered-load sweep of the online serving simulator.

The closed-batch experiments (Fig. 7, ``serving_throughput``) report the
drain rate of pre-formed batches.  This harness answers the deployment-side
question instead: *what latency does a user see at a given offered QPS, and
where does the system saturate?*  For each Table 1 dataset it builds a fleet
of registered :mod:`repro.devices` backends (the proposed sparse FPGA by
default -- mixed fleets work the same way), measures the fleet's closed-loop
capacity, then subjects it to open-loop traffic at a grid of load fractions
and records p50/p95/p99 latency, sustained throughput, queue depth, and
fleet utilization -- the data behind a classic latency-vs-load hockey-stick
curve.  A configurable warm-up fraction of the arrival horizon is discarded
before computing the percentiles/QPS, so the cold-start transient (idle
devices, empty queues) does not dilute the steady-state statistics.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..devices import Device, build_fleet, split_fleet_spec
from ..devices.schedule_cache import GLOBAL_SCHEDULE_CACHE, check_length_bucket
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig, resolve_component
from ..faults import FaultSchedule, get_fault_schedule
from ..serving.arrivals import ClosedLoopArrivals, _is_rate_driven, get_arrival_process
from ..serving.classes import ClassMixArrivals, parse_class_mix
from ..serving.engine import OnlineServingReport, simulate_online
from ..serving.options import ServingOptions
from ..serving.policies import check_formation_knobs, get_batch_policy
from ..serving.routing import get_router
from ..serving.slo import SLOSpec
from ..transformer.configs import (
    DATASET_ZOO,
    MODEL_ZOO,
    get_dataset_config,
    get_model_config,
)
from .fan_out import fan_out
from .report import format_key_values, format_table
from .. import config as global_config

__all__ = [
    "ServingKnobs",
    "ServingSweepConfig",
    "ServingSweepResult",
    "SweepPoint",
    "class_mix_arrivals",
    "fault_schedules_from_knobs",
    "formation_from_ms",
    "slo_spec_from_ms",
]

#: Offered-load grid (fractions of the measured closed-loop capacity); the
#: last point sits past saturation so the latency divergence is visible.
DEFAULT_LOAD_FRACTIONS = (0.25, 0.5, 0.75, 0.9, 1.1)

#: Fraction of the horizon discarded as warm-up in the sweep statistics.
DEFAULT_WARMUP_FRACTION = 0.1

#: Default schedule-cache length quantization of the sweep (tokens).  The
#: sweep replays the same length stream at several load fractions, so rounding
#: lengths up to multiples of 16 pushes the shared schedule cache's hit rate
#: past 80% while perturbing billed lengths by under half a bucket on
#: average; pass ``cache_length_bucket=None`` for exact (unquantized) billing.
DEFAULT_CACHE_LENGTH_BUCKET = 16


@dataclass
class SweepPoint:
    """One (dataset, policy+router, load) measurement."""

    dataset: str
    batch_policy: str
    load_fraction: float
    offered_qps: float
    capacity_qps: float
    report: OnlineServingReport
    #: Routing policy this point ran with (policies may pair with routers).
    router: str = "least-loaded"
    #: Fault-axis entry this point ran under ("none" = fault-free baseline);
    #: None when the sweep has no fault axis, which keeps the default
    #: sweep's rows and JSON payload byte-identical to a fault-unaware run.
    fault: str | None = None
    #: Class-mix axis entry ("none" = untagged baseline); None when the
    #: sweep has no class axis -- same byte-identity contract as ``fault``.
    classes: str | None = None
    #: Warm-up fraction applied to this point's percentiles / QPS.
    warmup_fraction: float = 0.0
    #: Deterministic (replayed) schedule-cache accounting for this point;
    #: independent of how many worker processes executed the sweep.
    cache_stats: dict | None = None

    def as_row(self) -> dict:
        # qps and latency percentiles are steady-state (warm-up discarded);
        # waiting / device_util / shed_rate stay whole-run diagnostics (queue
        # build-up and duty cycle are properties of the entire simulation).
        warmup = self.warmup_fraction
        row = {
            "dataset": self.dataset,
            "policy": self.batch_policy,
            "router": self.router,
        }
        if self.fault is not None:
            row["fault"] = self.fault
        if self.classes is not None:
            row["classes"] = self.classes
        row |= {
            "load": round(self.load_fraction, 2),
            "offered_qps": round(self.offered_qps, 1),
            "sustained_qps": round(self.report.steady_qps(warmup), 1),
            "p50_ms": round(self.report.steady_latency_percentile(50, warmup) * 1e3, 2),
            "p95_ms": round(self.report.steady_latency_percentile(95, warmup) * 1e3, 2),
            "p99_ms": round(self.report.steady_latency_percentile(99, warmup) * 1e3, 2),
            "waiting": round(self.report.mean_waiting_requests, 1),
            "device_util": round(self.report.average_device_utilization, 3),
            "shed_rate": round(self.report.shed_rate, 3),
        }
        attainment = self.report.steady_attainment_rate(warmup)
        if attainment is not None:
            # Deadline attainment and goodput are steady-state like the
            # percentiles; `shed_late` is the whole-run count of provably
            # late drops (0 for deadline-blind policies).
            row["attainment"] = round(attainment, 3)
            row["goodput_qps"] = round(self.report.steady_goodput_qps(warmup), 1)
            row["shed_late"] = self.report.num_shed_late
        if self.fault is not None:
            # Whole-run fault diagnostics, present only on fault-axis sweeps
            # so fault-free sweeps keep their historical column set.
            row["crashes"] = self.report.num_crashes
            row["crash_shed"] = self.report.num_shed_crashed
            row["hedged"] = self.report.num_hedged
            row["retries"] = self.report.num_retries
        if self.cache_stats is not None:
            row["cache_hit"] = round(self.cache_stats["hit_rate"], 3)
        if self.classes is not None and self.report.class_summaries is not None:
            # Per-class columns, present only on class-axis sweeps so
            # class-free sweeps keep their historical column set.
            for name, summary in self.report.class_summaries.items():
                if summary.attainment is not None:
                    row[f"att[{name}]"] = round(summary.attainment, 3)
                row[f"shed[{name}]"] = summary.shed
        return row


@dataclass
class ServingSweepResult:
    """All sweep points plus the per-dataset capacity reference."""

    model: str
    num_accelerators: int
    batch_size: int
    num_requests: int
    devices: tuple[str, ...] = ("sparse-fpga",)
    warmup_fraction: float = 0.0
    continuous_batching: bool = False
    cache_length_bucket: int | None = None
    #: SLO spec of the sweep (JSON form; None = deadline-blind sweep).
    slo: dict | None = None
    #: Fault-injection axis of the sweep (empty = no fault axis).
    faults: tuple[str, ...] = ()
    #: Remedy knobs (hedging / retries / router blacklist) the fault-axis
    #: points ran with; None when the sweep has no fault axis.
    remedies: dict | None = None
    #: Class-mix axis of the sweep (empty = no class axis).
    classes: tuple[str, ...] = ()
    #: Sweep-wide schedule-cache accounting (replayed in canonical grid
    #: order, so identical for any --jobs setting).
    schedule_cache: dict | None = None
    capacity_qps: dict[str, float] = field(default_factory=dict)
    points: list[SweepPoint] = field(default_factory=list)

    def as_rows(self) -> list[dict]:
        return [point.as_row() for point in self.points]

    def _select_points(
        self,
        dataset: str,
        batch_policy: str | None,
        router: str | None,
        fault: str | None = None,
        classes: str | None = None,
    ) -> list[SweepPoint]:
        return [
            p
            for p in self.points
            if p.dataset == dataset
            and (batch_policy is None or p.batch_policy == batch_policy)
            and (router is None or p.router == router)
            and (fault is None or p.fault == fault)
            and (classes is None or p.classes == classes)
        ]

    def p99_curve(
        self,
        dataset: str,
        batch_policy: str | None = None,
        router: str | None = None,
        fault: str | None = None,
        classes: str | None = None,
    ) -> list[tuple[float, float]]:
        """(load fraction, steady-state p99 seconds) pairs, sorted by load.

        Filter by ``batch_policy`` and/or ``router`` when the sweep compares
        pairings -- a sweep of one policy under two routers needs the
        ``router`` filter, or the curves interleave.  Fault-axis sweeps need
        the ``fault`` filter the same way (``"none"`` selects the fault-free
        baseline points), and class-axis sweeps the ``classes`` filter.
        """
        curve = [
            (p.load_fraction, p.report.steady_latency_percentile(99, p.warmup_fraction))
            for p in self._select_points(dataset, batch_policy, router, fault, classes)
        ]
        return sorted(curve)

    def attainment_curve(
        self,
        dataset: str,
        batch_policy: str | None = None,
        router: str | None = None,
        fault: str | None = None,
        classes: str | None = None,
    ) -> list[tuple[float, float | None]]:
        """(load fraction, steady-state deadline attainment) pairs, sorted.

        Attainment entries are ``None`` on deadline-blind sweeps (no
        ``slo``); SLO-aware and SLO-blind policies in the same sweep are
        directly comparable point by point because every policy sees the
        same deadline-stamped stream at the same offered load.  As with
        :meth:`p99_curve`, pass ``router`` (and ``fault`` / ``classes`` on
        axis sweeps) when points differ on those dimensions.
        """
        curve = [
            (p.load_fraction, p.report.steady_attainment_rate(p.warmup_fraction))
            for p in self._select_points(dataset, batch_policy, router, fault, classes)
        ]
        return sorted(curve, key=lambda pair: pair[0])

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-ready summary rows)."""
        payload = {
            "model": self.model,
            "num_accelerators": self.num_accelerators,
            "devices": list(self.devices),
            "batch_size": self.batch_size,
            "num_requests": self.num_requests,
            "warmup_fraction": self.warmup_fraction,
            "continuous_batching": self.continuous_batching,
            "cache_length_bucket": self.cache_length_bucket,
            "slo": self.slo,
            "faults": list(self.faults),
            "remedies": self.remedies,
        }
        if self.classes:
            # Present only on class-axis sweeps: class-free payloads stay
            # byte-identical to their historical shape.
            payload["classes"] = list(self.classes)
        payload |= {
            "schedule_cache": self.schedule_cache,
            "capacity_qps": dict(self.capacity_qps),
            "points": self.as_rows(),
        }
        return payload


@contextmanager
def _config_error(label: str):
    """Report a component's own construction error as a config ValueError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise ValueError(f"{label}: {message}") from error


@dataclass(frozen=True)
class ServingKnobs(ExperimentConfig):
    """The knobs ``serve`` and ``serving-sweep`` share, declared once.

    This class holds the only mapping from them to the engine (:meth:`fleet`,
    :meth:`options`, :meth:`simulate`); :meth:`validate` builds the options
    once, so the engine's own checks report bad knobs as config errors.
    Subclasses declare ``faults`` / ``classes`` and their batch policies in
    their own shape and hand them over as tuples through :meth:`axis`.
    """

    requests: int = cfg_field(192, help="requests to simulate (per sweep point)")
    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    timeout_ms: float = 20.0
    num_buckets: int = cfg_field(4, help="length buckets (bucketed policy)")
    bucket_width: float | None = cfg_field(
        None, help="fixed bucket width in tokens (overrides num-buckets)"
    )
    devices: tuple[str, ...] = cfg_field(
        ("sparse-fpga",),
        help=(
            "device fleet: registered device names, mixed freely "
            "(e.g. sparse-fpga,gpu-rtx6000); see `python -m repro list`"
        ),
    )
    num_accelerators: int = cfg_field(1, help="replicas of the device fleet")
    continuous_batching: bool = False
    max_queue_depth: int | None = None
    slo_ms: float | None = None
    slo_per_token_ms: float = 0.0
    device_max_batch_size: int | None = cfg_field(
        None, help="per-device admission limit: requests per dispatched batch"
    )
    device_max_batch_tokens: int | None = cfg_field(
        None, help="per-device admission limit: total tokens per dispatched batch"
    )
    fault_mtbf_s: float = cfg_field(
        5.0,
        help=(
            "mean seconds between faults per device (crash-restart MTBF, "
            "straggler mean time between slow periods, thermal cycle period)"
        ),
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
            "long (ms; doubles per repeat failure, half-open probe on "
            "expiry; 0 = off)"
        ),
    )
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    arrival: str = cfg_field(
        "poisson",
        help=(
            "arrival process (poisson, bursty, diurnal, flash-crowd, or a "
            "rate-driven plug-in; serve also replays trace and closed-loop)"
        ),
    )
    cache_length_bucket: int | None = None
    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    seed: int = global_config.DEFAULT_SEED

    def axis(self, name: str) -> tuple[str, ...]:
        """The ``faults`` / ``classes`` / ``batch_policies`` entries as a tuple."""
        return getattr(self, name)

    def validate(self) -> None:
        super().validate()
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.num_accelerators < 1:
            raise ValueError("num_accelerators must be >= 1")
        if self.device_max_batch_size is not None and self.device_max_batch_size < 1:
            raise ValueError("device_max_batch_size must be >= 1 (or none)")
        if self.device_max_batch_tokens is not None and self.device_max_batch_tokens < 1:
            raise ValueError("device_max_batch_tokens must be >= 1 (or none)")
        if self.fault_mtbf_s <= 0:
            raise ValueError("fault_mtbf_s must be > 0")
        if self.fault_downtime_s <= 0:
            raise ValueError("fault_downtime_s must be > 0")
        if self.fault_multiplier < 1.0:
            raise ValueError("fault_multiplier must be >= 1")
        if self.fault_duration_s <= 0:
            raise ValueError("fault_duration_s must be > 0")
        if self.blacklist_ms < 0:
            raise ValueError("blacklist_ms must be >= 0")
        OnlineServingReport.check_warmup_fraction(self.warmup_fraction)
        check_length_bucket(self.cache_length_bucket)
        names = split_fleet_spec(self.devices)
        if not names:
            raise ValueError("devices must name at least one registered device")
        for name in names:
            resolve_component("device", name)
        self.options().check_pool(self.num_accelerators * len(names))
        resolve_component("arrival", self.arrival)
        # Building each policy turns its own checks (batch_size, timeout,
        # num_buckets >= 1 for the bucketed batcher) into config errors.
        for name in self.axis("batch_policies"):
            with _config_error(f"batch policy {name!r}"):
                self.formation(name)
        for spec in self.axis("faults"):
            parts = [piece.strip() for piece in spec.split("+")]
            if "none" in parts and len(parts) > 1:
                raise ValueError(
                    f"fault axis entry {spec!r}: 'none' is the baseline and "
                    "composes with nothing"
                )
            with _config_error(f"fault axis entry {spec!r}"):
                self.fault_schedules(spec)
        for spec in self.axis("classes"):
            if spec != "none":
                with _config_error(f"class axis entry {spec!r}"):
                    parse_class_mix(spec)

    def fleet(self, dataset_name: str) -> list[Device]:
        """The device fleet these knobs describe, built for one dataset."""
        return build_fleet(
            self.devices,
            model=get_model_config(self.model),
            dataset=dataset_name,
            replicas=self.num_accelerators,
            cache_length_bucket=self.cache_length_bucket,
            max_batch_size=self.device_max_batch_size,
            max_batch_tokens=self.device_max_batch_tokens,
        )

    def formation(self, policy_name: str, router_name: str | None = None) -> dict:
        """The named batch policy and router with these knobs (:func:`formation_from_ms`)."""
        return formation_from_ms(
            policy_name,
            router_name,
            batch_size=self.batch_size,
            timeout_ms=self.timeout_ms,
            blacklist_ms=self.blacklist_ms,
            num_buckets=self.num_buckets,
            bucket_width=self.bucket_width,
        )

    def fault_schedules(self, spec: str | None) -> list[FaultSchedule] | None:
        """The fault schedules of one axis entry (None = fault-free)."""
        return fault_schedules_from_knobs(
            spec,
            mtbf_s=self.fault_mtbf_s,
            downtime_s=self.fault_downtime_s,
            multiplier=self.fault_multiplier,
            duration_s=self.fault_duration_s,
        )

    def options(self, fault_name: str | None = None) -> ServingOptions:
        """The engine options these knobs describe: their one mapping (ms -> s).

        The batch policy and router are left to each run (:meth:`simulate`).
        """
        return ServingOptions(
            seed=self.seed,
            continuous_batching=self.continuous_batching,
            max_queue_depth=self.max_queue_depth,
            slo=slo_spec_from_ms(self.slo_ms, self.slo_per_token_ms),
            faults=self.fault_schedules(fault_name),
            hedging=self.hedging,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_ms * 1e-3,
        )

    def simulate(
        self,
        dataset_name: str,
        arrivals,
        policy_name: str,
        router_name: str,
        fault_name: str | None,
    ) -> OnlineServingReport:
        """One open-loop ``simulate_online`` run on a fresh :meth:`fleet`."""
        options = replace(self.options(fault_name), **self.formation(policy_name, router_name))
        return simulate_online(
            self.fleet(dataset_name), dataset_name, arrivals, self.requests, options
        )


@dataclass(frozen=True)
class ServingSweepConfig(ServingKnobs):
    """Configuration of the latency-vs-offered-load serving sweep."""

    datasets: tuple[str, ...] = cfg_field(
        ("mrpc", "rte", "squad"), help="Table 1 datasets to sweep"
    )
    load_fractions: tuple[float, ...] = cfg_field(
        DEFAULT_LOAD_FRACTIONS, help="offered load as fractions of capacity"
    )
    batch_policies: tuple[str, ...] = cfg_field(
        ("timeout",), help="batch-formation policies to compare"
    )
    routers: tuple[str, ...] = cfg_field(
        (),
        help=(
            "per-policy routers paired elementwise with batch-policies "
            "(e.g. --batch-policies timeout deadline --routers least-loaded "
            "cost-model); empty = --router for every policy"
        ),
    )
    router: str = "least-loaded"
    faults: tuple[str, ...] = cfg_field(
        (),
        help=(
            "fault-injection axis: registered fault schedules per grid point "
            "(crash-restart, straggler, thermal-throttle; compose with '+', "
            "'none' = fault-free baseline row); empty = no fault axis"
        ),
    )
    classes: tuple[str, ...] = cfg_field(
        (),
        help=(
            "request-class axis: class mixes per grid point (e.g. "
            "interactive:0.5,batch:0.3,best-effort:0.2; 'none' = untagged "
            "baseline row); adds per-class attainment/shed columns; empty = "
            "no class axis"
        ),
    )
    cache_length_bucket: int | None = DEFAULT_CACHE_LENGTH_BUCKET
    jobs: int = 1

    def validate(self) -> None:
        super().validate()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.datasets:
            raise ValueError("datasets must not be empty")
        check_load_sweep(self.load_fractions, self.arrival)
        if not self.batch_policies:
            raise ValueError("batch_policies must not be empty")
        unknown = sorted(set(self.datasets) - set(DATASET_ZOO))
        if unknown:
            raise ValueError(f"unknown datasets {unknown}; valid: {sorted(DATASET_ZOO)}")
        if self.routers and len(self.routers) != len(self.batch_policies):
            raise ValueError(
                "routers must pair elementwise with batch_policies "
                f"({len(self.batch_policies)} policies, {len(self.routers)} routers)"
            )
        for router in (*self.routers, self.router):
            resolve_component("router", router)


def check_load_sweep(load_fractions: tuple[float, ...], arrival: str) -> None:
    """The rules every load sweep (serving and decode) shares, checked once."""
    if not load_fractions:
        raise ValueError("load_fractions must not be empty")
    if any(fraction <= 0 for fraction in load_fractions):
        raise ValueError("load_fractions must all be > 0")
    if not _is_rate_driven(resolve_component("arrival", arrival)):
        raise ValueError(
            f"arrival '{arrival}' is not rate-driven; the sweep sets the "
            "offered rate from the measured capacity"
        )


def slo_spec_from_ms(
    slo_ms: float | None, slo_per_token_ms: float = 0.0, per_output_token_ms: float = 0.0
) -> SLOSpec | None:
    """Build the deadline spec from millisecond config knobs (None = no SLO).

    A bad budget raises the spec's own error, prefixed with the ``slo_ms``
    it came from (the spec names its fields in seconds); a per-token budget
    without ``slo_ms`` is refused.
    """
    if slo_ms is None:
        if slo_per_token_ms or per_output_token_ms:
            raise ValueError(
                "per-token budgets need slo_ms (use --slo-ms 0 for purely proportional budgets)"
            )
        return None
    try:
        return SLOSpec(
            base_s=slo_ms * 1e-3,
            per_token_s=slo_per_token_ms * 1e-3,
            per_output_token_s=per_output_token_ms * 1e-3,
        )
    except ValueError as error:
        raise ValueError(f"SLO from slo_ms={slo_ms}: {error}") from error


def fault_schedules_from_knobs(
    spec: str | None,
    *,
    mtbf_s: float = 5.0,
    downtime_s: float = 0.5,
    multiplier: float = 2.5,
    duration_s: float = 1.0,
) -> list[FaultSchedule] | None:
    """Build the fault-injection spec for one axis entry.

    ``spec`` is a registered fault-schedule name or a ``"+"``-composition
    (``"crash-restart+straggler"``); ``None`` or ``"none"`` is the
    fault-free baseline (no injector at all, so the run stays byte-identical
    to a fault-unaware simulation).  The config knobs map onto each
    schedule's own fields: ``mtbf_s`` is the crash MTBF, the straggler
    mean-time-between-slowdowns, and the thermal cycle period;
    ``duration_s`` is the straggler slow-period mean and the thermal hold;
    ``multiplier`` is the degraded latency factor of both.  Registered
    plug-in schedules outside the built-in three are constructed with their
    own defaults.
    """
    if spec is None or spec == "none":
        return None
    schedules: list[FaultSchedule] = []
    for part in (piece.strip() for piece in spec.split("+")):
        if part in ("crash-restart", "crash"):
            schedules.append(
                get_fault_schedule(part, mtbf_s=mtbf_s, downtime_s=downtime_s)
            )
        elif part in ("straggler", "slow"):
            schedules.append(
                get_fault_schedule(
                    part, mtbs_s=mtbf_s, duration_s=duration_s, multiplier=multiplier
                )
            )
        elif part in ("thermal-throttle", "thermal"):
            schedules.append(
                get_fault_schedule(
                    part,
                    period_s=mtbf_s,
                    ramp_s=0.0,
                    hold_s=duration_s,
                    peak_multiplier=multiplier,
                )
            )
        else:
            schedules.append(get_fault_schedule(part))
    return schedules


def class_mix_arrivals(arrivals, mix_name: str | None):
    """Wrap an arrival process in a class-mix tagger when a mix is given.

    ``None`` and ``"none"`` return ``arrivals`` unchanged (the untagged
    baseline keeps the run byte-identical to a class-unaware simulation).
    """
    if mix_name is None or mix_name == "none":
        return arrivals
    return ClassMixArrivals(base=arrivals, mix=mix_name)


def formation_from_ms(
    policy_name: str,
    router_name: str | None = None,
    *,
    batch_size: int,
    timeout_ms: float,
    blacklist_ms: float = 0.0,
    **policy_knobs,
) -> dict:
    """The ``batch_policy`` and ``router`` options, for ``ServingOptions(**...)``.

    The one ms -> engine mapping of the formation knobs.  The timeout is
    checked even for a policy that takes none; ``router_name=None`` keeps
    the engine's default router.  ``blacklist_ms > 0`` reaches the routers
    that take a crash blacklist; any other router is built as ``get_router``
    builds it, so fault-free runs keep their routing byte for byte.
    """
    timeout_s = timeout_ms * 1e-3
    check_formation_knobs(batch_size, timeout_s)
    policy = get_batch_policy(
        policy_name, batch_size=batch_size, timeout_s=timeout_s, **policy_knobs
    )
    router = None
    if router_name is not None and blacklist_ms > 0:
        try:
            router = get_router(router_name, blacklist_s=blacklist_ms * 1e-3)
        except TypeError:  # a router without a crash blacklist
            pass
    if router_name is not None and router is None:
        router = get_router(router_name)
    return {"batch_policy": policy, "router": router}


def _probe_digests(report: OnlineServingReport, keys: list) -> list[str] | None:
    """A run's journaled schedule-cache keys as process-independent digests.

    ``blake2b`` of each key's ``repr`` (the repr of nested tuples of ints,
    floats and strs is the same in every process, unlike the salted
    ``hash()`` of a str), computed once per distinct key.  ``None`` when the
    run reports no cache statistics (cache off, or no cycle-accurate device).
    """
    if report.schedule_cache is None:
        return None
    memo: dict = {}
    digests = []
    for key in keys:
        digest = memo.get(key)
        if digest is None:
            digest = memo[key] = hashlib.blake2b(repr(key).encode(), digest_size=12).hexdigest()
        digests.append(digest)
    return digests


def _capacity_worker(
    config: ServingSweepConfig, dataset_name: str
) -> tuple[float, list[str] | None]:
    """Closed-loop drain rate of the whole fleet (sequences/second).

    Every request is queued at t=0 in globally sorted order and drained in
    fixed batches -- the fleet generalization of the legacy single-device
    capacity measurement, valid for heterogeneous fleets too.  Returns the
    drain rate plus the run's schedule-cache lookups (see
    :func:`_probe_digests`) for the sweep's deterministic hit accounting.
    """
    options = ServingOptions(
        **formation_from_ms(
            "fixed", config.router, batch_size=config.batch_size, timeout_ms=config.timeout_ms
        ),
        seed=config.seed,
        continuous_batching=config.continuous_batching,
    )
    with GLOBAL_SCHEDULE_CACHE.journal() as keys:
        closed = simulate_online(
            config.fleet(dataset_name),
            dataset_name,
            ClosedLoopArrivals(sort_by_length=True),
            config.requests,
            options,
        )
    return closed.sustained_qps, _probe_digests(closed, keys)


def _point_worker(
    config: ServingSweepConfig,
    dataset_name: str,
    policy_name: str,
    router_name: str,
    fault_name: str | None,
    mix_name: str | None,
    fraction: float,
    capacity: float,
) -> tuple[SweepPoint, list[str] | None]:
    """One (dataset, policy+router, fault, classes, load) grid point.

    Every point builds its own fleet and seeds its own arrival process from
    the config seed, so results are identical regardless of which process
    runs the point.  ``fault_name`` is None on sweeps without a fault axis;
    faulty points build their injector spec here (schedules are cheap to
    construct and avoid pickling).
    ``mix_name`` works the same for the request-class axis: class tags ride
    on their own salted RNG stream, so a ``"none"`` (or axis-free) point is
    byte-identical to a class-unaware run.  Returns the point plus the
    run's schedule-cache lookups (see :func:`_probe_digests`).
    """
    offered = capacity * fraction
    arrivals = class_mix_arrivals(
        get_arrival_process(config.arrival, rate_qps=offered), mix_name
    )
    with GLOBAL_SCHEDULE_CACHE.journal() as keys:
        report = config.simulate(dataset_name, arrivals, policy_name, router_name, fault_name)
    point = SweepPoint(
        dataset=report.dataset,
        batch_policy=report.batch_policy,
        router=report.router,
        fault=fault_name,
        classes=mix_name,
        load_fraction=fraction,
        offered_qps=offered,
        capacity_qps=capacity,
        report=report,
        warmup_fraction=config.warmup_fraction,
    )
    return point, _probe_digests(report, keys)


def _sweep_impl(config: ServingSweepConfig) -> ServingSweepResult:
    """Sweep offered load for each dataset and batch policy.

    The offered QPS at each point is ``load_fraction`` times the fleet's
    measured closed-loop capacity, so a load of 1.0 is the drain rate the
    closed-batch benchmarks report and anything above it is overload.
    ``routers`` pairs a routing policy with each batch policy (SLO
    comparisons run e.g. ``timeout``+``least-loaded`` against
    ``deadline``+``cost-model`` at the same offered loads); empty means
    every policy uses ``router``.  ``slo_ms``/``slo_per_token_ms`` stamp
    every stream with deadlines, turning on the attainment/goodput columns.

    ``faults`` adds a fault-injection axis to the grid: every (dataset,
    policy+router, load) cell runs once per entry (``"none"`` is the
    fault-free baseline; ``"+"`` composes schedules), with the remedy knobs
    (``hedging``, ``max_retries``/``retry_backoff_ms``, ``blacklist_ms``)
    applied to every faulty point.  Capacity is always measured fault-free
    -- the load fractions mean the same offered QPS on every row, so
    attainment-under-faults is comparable across the fault axis.  An empty
    ``faults`` keeps the sweep (rows and payload) byte-identical to a
    fault-unaware run.

    ``classes`` adds a request-class axis the same way: every cell runs once
    per class-mix entry (``"none"`` is the untagged baseline), tagging the
    arrival stream via :class:`~repro.serving.classes.ClassMixArrivals` and
    adding per-class attainment/shed columns.  Class tags ride on a
    dedicated RNG stream, so the ``"none"`` rows -- and any sweep with an
    empty ``classes`` -- stay byte-identical to a class-unaware run.

    ``jobs > 1`` fans the capacity measurements, then the (dataset, policy,
    load) grid, across worker processes (:func:`~repro.evaluation.fan_out.fan_out`).
    Workers receive the frozen config itself (it pickles as is).  Results
    are collected in grid order and every call builds its own fleet and
    seeds itself, so the sweep (its JSON payload and its in-memory reports)
    equals the serial run for a fixed seed.
    """
    datasets = config.datasets
    pairs = list(
        zip(config.batch_policies, config.routers or (config.router,) * len(config.batch_policies))
    )
    options = config.options()
    result = ServingSweepResult(
        model=get_model_config(config.model).name,
        num_accelerators=config.num_accelerators,
        batch_size=config.batch_size,
        num_requests=config.requests,
        devices=tuple(split_fleet_spec(config.devices)),
        warmup_fraction=config.warmup_fraction,
        continuous_batching=config.continuous_batching,
        cache_length_bucket=config.cache_length_bucket,
        slo=options.slo.to_dict() if options.slo is not None else None,
        faults=config.faults,
        remedies=(
            {
                "hedging": options.hedging,
                "max_retries": options.max_retries,
                "retry_backoff_s": options.retry_backoff_s,
                "blacklist_s": config.blacklist_ms * 1e-3,
            }
            if config.faults
            else None
        ),
        classes=config.classes,
    )
    grid = [
        (dataset_name, policy_name, router_name, fault_name, mix_name, fraction)
        for dataset_name in datasets
        for policy_name, router_name in pairs
        for fault_name in config.faults or (None,)
        for mix_name in config.classes or (None,)
        for fraction in config.load_fractions
    ]

    with fan_out(config.jobs) as run:
        capacity_runs = run(_capacity_worker, [(config, name) for name in datasets])
        capacities = {name: qps for name, (qps, _) in zip(datasets, capacity_runs)}
        runs = run(_point_worker, [(config, *cell, capacities[cell[0]]) for cell in grid])
    for dataset_name in datasets:
        result.capacity_qps[get_dataset_config(dataset_name).name] = capacities[dataset_name]
    result.points = [point for point, _ in runs]
    _replay_cache_accounting(
        result, [probes for _, probes in capacity_runs], [probes for _, probes in runs]
    )
    return result


def _replay_cache_accounting(
    result: ServingSweepResult,
    capacity_probes: list[list[str] | None],
    point_probes: list[list[str] | None],
    max_entries: int | None = None,
) -> None:
    """Fill deterministic schedule-cache statistics for every sweep point.

    Replays each run's journaled key digests (``point_probes[i]`` belongs to
    ``result.points[i]``; ``None`` means the run had no cache statistics)
    against an LRU of the shared cache's capacity in canonical order --
    capacity runs first, then the (dataset, policy, load) grid -- which is
    exactly the shared cache's behavior in a fresh serial process,
    *including* evictions past ``max_entries`` unique batch shapes.  The
    resulting hit rates are byte-identical for any ``jobs`` setting.
    """
    if max_entries is None:
        max_entries = GLOBAL_SCHEDULE_CACHE.max_entries
    lru: OrderedDict[str, None] = OrderedDict()
    total_hits = 0
    total_probes = 0
    total_evictions = 0
    any_probes = False

    def account(probes: list[str] | None) -> dict | None:
        nonlocal total_hits, total_probes, total_evictions, any_probes
        if probes is None:
            return None
        any_probes = True
        hits = 0
        misses = 0
        evictions = 0
        for digest in probes:
            if digest in lru:
                lru.move_to_end(digest)
                hits += 1
            else:
                misses += 1
                lru[digest] = None
                if len(lru) > max_entries:
                    lru.popitem(last=False)
                    evictions += 1
        total_hits += hits
        total_probes += len(probes)
        total_evictions += evictions
        stats = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / len(probes) if probes else 0.0,
        }
        if evictions:
            stats["num_evictions"] = evictions
        return stats

    for probes in capacity_probes:
        account(probes)
    for point, probes in zip(result.points, point_probes):
        point.cache_stats = account(probes)
    if any_probes:
        result.schedule_cache = {
            "hits": total_hits,
            "misses": total_probes - total_hits,
            "hit_rate": total_hits / total_probes if total_probes else 0.0,
            "num_evictions": total_evictions,
        }


def render_sweep(result: ServingSweepResult) -> str:
    """Render the sweep as the CLI's plain-text report."""
    text = format_table(
        result.as_rows(),
        title=(
            f"Latency vs offered load ({result.model}, "
            f"{result.num_accelerators} x {','.join(result.devices)})"
        ),
    )
    footer = {
        f"closed-loop capacity ({name})": f"{qps:.1f} seq/s"
        for name, qps in result.capacity_qps.items()
    }
    footer["warm-up fraction discarded"] = result.warmup_fraction
    footer["continuous batching"] = result.continuous_batching
    if result.faults:
        footer["fault axis"] = ", ".join(result.faults)
        remedies = result.remedies or {}
        footer["remedies"] = (
            f"hedging={remedies.get('hedging', False)} "
            f"max_retries={remedies.get('max_retries', 0)} "
            f"blacklist={remedies.get('blacklist_s', 0.0) * 1e3:.0f}ms"
        )
    if result.classes:
        footer["class axis"] = "; ".join(result.classes)
    if result.slo is not None:
        footer["SLO budget"] = (
            f"{result.slo['base_s'] * 1e3:.1f} ms"
            + (
                f" + {result.slo['per_token_s'] * 1e3:.3f} ms/token"
                if result.slo["per_token_s"]
                else ""
            )
        )
    if result.cache_length_bucket is not None:
        footer["schedule-cache length bucket"] = result.cache_length_bucket
    if result.schedule_cache is not None:
        footer["schedule-cache hit rate"] = f"{result.schedule_cache['hit_rate']:.1%}"
    text += format_key_values(footer)
    return text


SPEC = register_experiment(
    ExperimentSpec(
        name="serving-sweep",
        title="Latency vs offered load sweep",
        description="latency-vs-load sweep of the online serving simulator",
        config_cls=ServingSweepConfig,
        run=_sweep_impl,
        render=render_sweep,
        order=90,
        include_in_all=False,
    )
)
