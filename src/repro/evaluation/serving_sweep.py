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

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

#: Multiprocessing context for the sweep's worker pool (None = platform
#: default).  Tests point this at a spawn context to prove the submit-time
#: environment capture works without relying on fork inheritance.
_MP_CONTEXT = None

from ..devices import Device, build_fleet, split_fleet_spec
from ..devices.schedule_cache import GLOBAL_SCHEDULE_CACHE
from ..experiments import ExperimentSpec, cfg_field, register_experiment
from ..experiments.config import ExperimentConfig
from ..faults import FaultSchedule, get_fault_schedule
from .env_overrides import apply_env_overrides, capture_env_overrides
from ..registry import REGISTRY
from ..serving.arrivals import ClosedLoopArrivals, _is_rate_driven, get_arrival_process
from ..serving.classes import ClassMixArrivals, parse_class_mix
from ..serving.engine import OnlineServingReport, simulate_online
from ..serving.policies import FixedSizeBatcher, get_batch_policy
from ..serving.routing import get_router
from ..serving.slo import SLOSpec
from ..transformer.configs import (
    BERT_BASE,
    DATASET_ZOO,
    MODEL_ZOO,
    ModelConfig,
    get_dataset_config,
    get_model_config,
)
from .report import format_key_values, format_table
from .. import config as global_config

__all__ = [
    "ServingSweepConfig",
    "ServingSweepResult",
    "SweepPoint",
    "build_failure_aware_router",
    "class_mix_arrivals",
    "fault_schedules_from_knobs",
    "validate_class_axis",
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


@dataclass(frozen=True)
class ServingSweepConfig(ExperimentConfig):
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
    requests: int = cfg_field(192, help="requests per sweep point")
    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    devices: tuple[str, ...] = cfg_field(
        ("sparse-fpga",),
        help="registered device fleet (e.g. sparse-fpga gpu-rtx6000; comma forms work too)",
    )
    num_accelerators: int = cfg_field(1, help="replicas of the device fleet")
    router: str = cfg_field(
        "least-loaded",
        help="fleet routing policy (round-robin, least-loaded, length-sharded, or plug-in)",
    )
    arrival: str = cfg_field(
        "poisson",
        help="open-loop arrival process (poisson, bursty, or a rate-driven plug-in)",
    )
    timeout_ms: float = cfg_field(20.0, help="dynamic-batching timeout (ms)")
    num_buckets: int = cfg_field(4, help="length buckets (bucketed policy)")
    bucket_width: float | None = cfg_field(
        None, help="fixed bucket width in tokens (overrides num-buckets)"
    )
    continuous_batching: bool = cfg_field(
        False, help="device-level continuous batching (admit while draining)"
    )
    max_queue_depth: int | None = cfg_field(
        None, help="shed arrivals beyond this many waiting requests"
    )
    slo_ms: float | None = cfg_field(
        None,
        help=(
            "per-request latency budget (ms): each request's deadline is "
            "arrival + slo-ms + slo-per-token-ms * length; enables "
            "attainment/goodput columns (none = deadline-blind sweep)"
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
    warmup_fraction: float = cfg_field(
        DEFAULT_WARMUP_FRACTION,
        help="fraction of the arrival horizon discarded as warm-up in the statistics",
    )
    cache_length_bucket: int | None = cfg_field(
        DEFAULT_CACHE_LENGTH_BUCKET,
        help=(
            "schedule-cache length quantization in tokens (lengths round up "
            "to the next multiple before scheduling); 'none' = exact billing"
        ),
    )
    jobs: int = cfg_field(
        1,
        help=(
            "worker processes for the (dataset, policy, load) grid; results "
            "are byte-identical to jobs=1 for a fixed seed"
        ),
    )
    model: str = cfg_field("bert-base", choices=sorted(MODEL_ZOO), help="model zoo key")
    seed: int = global_config.DEFAULT_SEED

    def validate(self) -> None:
        super().validate()
        if self.cache_length_bucket is not None and self.cache_length_bucket < 1:
            raise ValueError("cache_length_bucket must be >= 1 (or none for exact)")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.datasets:
            raise ValueError("datasets must not be empty")
        if not self.load_fractions:
            raise ValueError("load_fractions must not be empty")
        if any(fraction <= 0 for fraction in self.load_fractions):
            raise ValueError("load_fractions must all be > 0")
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
        validate_slo_knobs(
            self.slo_ms,
            self.slo_per_token_ms,
            self.device_max_batch_size,
            self.device_max_batch_tokens,
        )
        validate_fault_knobs(
            self.faults,
            fault_mtbf_s=self.fault_mtbf_s,
            fault_downtime_s=self.fault_downtime_s,
            fault_multiplier=self.fault_multiplier,
            fault_duration_s=self.fault_duration_s,
            max_retries=self.max_retries,
            retry_backoff_ms=self.retry_backoff_ms,
            blacklist_ms=self.blacklist_ms,
        )
        validate_class_axis(self.classes)
        try:
            for policy in self.batch_policies:
                REGISTRY.resolve("batch-policy", policy)
            for paired_router in self.routers:
                REGISTRY.resolve("router", paired_router)
            REGISTRY.resolve("router", self.router)
            device_names = split_fleet_spec(self.devices)
            for name in device_names:
                REGISTRY.resolve("device", name)
            arrival = REGISTRY.resolve("arrival", self.arrival)
        except KeyError as error:
            raise ValueError(error.args[0]) from error
        if not _is_rate_driven(arrival):
            raise ValueError(
                f"arrival '{self.arrival}' is not rate-driven; the sweep sets the "
                "offered rate from the measured capacity"
            )
        if not device_names:
            raise ValueError("devices must name at least one registered device")
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
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


def validate_slo_knobs(
    slo_ms: float | None,
    slo_per_token_ms: float,
    device_max_batch_size: int | None,
    device_max_batch_tokens: int | None,
) -> None:
    """Shared validation of the SLO / per-device-limit config fields.

    One definition for both the ``serve`` and ``serving-sweep`` configs, so
    the two commands can never drift on what budgets/limits are legal.
    """
    if slo_ms is not None and slo_ms < 0:
        raise ValueError("slo_ms must be >= 0 (or none for no deadlines)")
    if slo_per_token_ms < 0:
        raise ValueError("slo_per_token_ms must be >= 0")
    if slo_per_token_ms > 0 and slo_ms is None:
        raise ValueError(
            "slo_per_token_ms needs slo_ms (use --slo-ms 0 for purely "
            "proportional budgets)"
        )
    if device_max_batch_size is not None and device_max_batch_size < 1:
        raise ValueError("device_max_batch_size must be >= 1 (or none)")
    if device_max_batch_tokens is not None and device_max_batch_tokens < 1:
        raise ValueError("device_max_batch_tokens must be >= 1 (or none)")


def slo_spec_from_ms(slo_ms: float | None, slo_per_token_ms: float = 0.0) -> SLOSpec | None:
    """Build the deadline spec from millisecond config knobs (None = no SLO)."""
    if slo_ms is None:
        return None
    return SLOSpec(base_s=slo_ms * 1e-3, per_token_s=slo_per_token_ms * 1e-3)


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


def validate_fault_knobs(
    faults: tuple[str, ...],
    *,
    fault_mtbf_s: float,
    fault_downtime_s: float,
    fault_multiplier: float,
    fault_duration_s: float,
    max_retries: int,
    retry_backoff_ms: float,
    blacklist_ms: float,
) -> None:
    """Shared validation of the fault-injection / remedy config fields.

    One definition for both the ``serve`` and ``serving-sweep`` configs (the
    same contract as :func:`validate_slo_knobs`): every axis entry must
    build against the knobs, ``"none"`` composes with nothing, and the
    remedy knobs must be non-negative.
    """
    if fault_mtbf_s <= 0:
        raise ValueError("fault_mtbf_s must be > 0")
    if fault_downtime_s <= 0:
        raise ValueError("fault_downtime_s must be > 0")
    if fault_multiplier < 1.0:
        raise ValueError("fault_multiplier must be >= 1")
    if fault_duration_s <= 0:
        raise ValueError("fault_duration_s must be > 0")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if retry_backoff_ms < 0:
        raise ValueError("retry_backoff_ms must be >= 0")
    if blacklist_ms < 0:
        raise ValueError("blacklist_ms must be >= 0")
    for spec in faults:
        parts = [piece.strip() for piece in spec.split("+")]
        if "none" in parts and len(parts) > 1:
            raise ValueError(
                f"fault axis entry {spec!r}: 'none' is the baseline and "
                "composes with nothing"
            )
        try:
            fault_schedules_from_knobs(
                spec,
                mtbf_s=fault_mtbf_s,
                downtime_s=fault_downtime_s,
                multiplier=fault_multiplier,
                duration_s=fault_duration_s,
            )
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            raise ValueError(f"fault axis entry {spec!r}: {message}") from error


def validate_class_axis(classes: tuple[str, ...]) -> None:
    """Shared validation of the request-class axis (``serve`` + sweep).

    Every entry must be either the ``"none"`` untagged baseline or a class
    mix that parses against the registered request classes.
    """
    for spec in classes:
        if spec == "none":
            continue
        try:
            parse_class_mix(spec)
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            raise ValueError(f"class axis entry {spec!r}: {message}") from error


def class_mix_arrivals(arrivals, mix_name: str | None):
    """Wrap an arrival process in a class-mix tagger when a mix is given.

    ``None`` and ``"none"`` return ``arrivals`` unchanged (the untagged
    baseline keeps the run byte-identical to a class-unaware simulation).
    """
    if mix_name is None or mix_name == "none":
        return arrivals
    return ClassMixArrivals(base=arrivals, mix=mix_name)


def build_failure_aware_router(name: str, blacklist_s: float):
    """Build a router, passing the circuit-breaker knob when it takes one.

    ``blacklist_s > 0`` is forwarded to routers that accept it (the
    cost-model router's crash blacklist); routers without the knob -- and
    every router at ``blacklist_s == 0`` -- are built exactly as
    :func:`~repro.serving.routing.get_router` would, so fault-free sweeps
    keep their historical routing byte for byte.
    """
    if blacklist_s > 0:
        try:
            return get_router(name, blacklist_s=blacklist_s)
        except TypeError:
            pass
    return get_router(name)


def _build_sweep_fleet(options: dict, dataset_name: str) -> list[Device]:
    return build_fleet(
        options["devices"],
        model=options["model"],
        dataset=dataset_name,
        replicas=options["num_accelerators"],
        cache_length_bucket=options["cache_length_bucket"],
        max_batch_size=options["device_max_batch_size"],
        max_batch_tokens=options["device_max_batch_tokens"],
    )


def _slo_spec(options: dict) -> SLOSpec | None:
    """The sweep's deadline assignment (None = deadline-blind)."""
    if options["slo_s"] is None:
        return None
    return SLOSpec(base_s=options["slo_s"], per_token_s=options["slo_per_token_s"])


def _capacity_worker(
    options: dict,
    dataset_name: str,
    fleet: list[Device] | None = None,
    env: dict[str, str | None] | None = None,
) -> tuple[float, dict | None]:
    """Closed-loop drain rate of the whole fleet (sequences/second).

    Every request is queued at t=0 in globally sorted order and drained in
    fixed batches -- the fleet generalization of the legacy single-device
    capacity measurement, valid for heterogeneous fleets too.  Returns the
    drain rate plus the run's schedule-cache probe summary (for the sweep's
    deterministic hit accounting).  Runs inline (``fleet`` provided) or in a
    worker process (``fleet`` built here, submit-time ``env`` re-exported).
    """
    apply_env_overrides(env)
    if fleet is None:
        fleet = _build_sweep_fleet(options, dataset_name)
    closed = simulate_online(
        fleet,
        dataset_name,
        arrivals=ClosedLoopArrivals(sort_by_length=True),
        num_requests=options["num_requests"],
        batch_policy=FixedSizeBatcher(batch_size=options["batch_size"]),
        router=get_router(options["router"]),
        continuous_batching=options["continuous_batching"],
        seed=options["seed"],
    )
    return closed.sustained_qps, closed.schedule_cache_probes


def _point_worker(
    options: dict,
    dataset_name: str,
    policy_name: str,
    router_name: str,
    fault_name: str | None,
    mix_name: str | None,
    fraction: float,
    capacity: float,
    fleet: list[Device] | None = None,
    env: dict[str, str | None] | None = None,
) -> SweepPoint:
    """One (dataset, policy+router, fault, classes, load) grid point.

    Runs inline (``fleet`` provided) or in a worker process (``fleet`` built
    here, submit-time ``env`` re-exported).  Every point seeds its own
    arrival process from the config seed, so results are identical
    regardless of which process runs the point.  ``fault_name`` is None on
    sweeps without a fault axis; faulty points build their injector spec
    here (schedules are cheap to construct and avoid pickling).
    ``mix_name`` works the same for the request-class axis: class tags ride
    on their own salted RNG stream, so a ``"none"`` (or axis-free) point is
    byte-identical to a class-unaware run.
    """
    apply_env_overrides(env)
    remote = fleet is None
    if fleet is None:
        fleet = _build_sweep_fleet(options, dataset_name)
    offered = capacity * fraction
    policy = get_batch_policy(
        policy_name,
        batch_size=options["batch_size"],
        timeout_s=options["timeout_s"],
        num_buckets=options["num_buckets"],
        bucket_width=options["bucket_width"],
    )
    faults = fault_schedules_from_knobs(
        fault_name,
        mtbf_s=options["fault_mtbf_s"],
        downtime_s=options["fault_downtime_s"],
        multiplier=options["fault_multiplier"],
        duration_s=options["fault_duration_s"],
    )
    router = build_failure_aware_router(router_name, options["blacklist_s"])
    arrivals = class_mix_arrivals(
        get_arrival_process(options["arrival"], rate_qps=offered), mix_name
    )
    report = simulate_online(
        fleet,
        dataset_name,
        arrivals=arrivals,
        num_requests=options["num_requests"],
        batch_policy=policy,
        router=router,
        continuous_batching=options["continuous_batching"],
        max_queue_depth=options["max_queue_depth"],
        slo=_slo_spec(options),
        faults=faults,
        hedging=options["hedging"],
        max_retries=options["max_retries"],
        retry_backoff_s=options["retry_backoff_s"],
        seed=options["seed"],
    )
    if remote:
        # The embedded cycle-accurate schedules carry lazily-materialized
        # timelines (closures), which do not pickle; the JSON payload never
        # includes them, so parallel runs ship the reports without the
        # in-memory schedule objects.
        for batch in report.batches:
            batch.execution.schedule = None
    return SweepPoint(
        dataset=report.dataset,
        batch_policy=policy.name,
        router=router.name,
        fault=fault_name,
        classes=mix_name,
        load_fraction=fraction,
        offered_qps=offered,
        capacity_qps=capacity,
        report=report,
        warmup_fraction=options["warmup_fraction"],
    )


def _sweep_impl(
    datasets: tuple[str, ...] = ("mrpc", "rte", "squad"),
    load_fractions: tuple[float, ...] = DEFAULT_LOAD_FRACTIONS,
    batch_policies: tuple[str, ...] = ("timeout",),
    num_requests: int = 192,
    batch_size: int = global_config.DEFAULT_BATCH_SIZE,
    devices: tuple[str, ...] = ("sparse-fpga",),
    num_accelerators: int = 1,
    router: str = "least-loaded",
    routers: tuple[str, ...] = (),
    arrival: str = "poisson",
    timeout_s: float = 20e-3,
    num_buckets: int = 4,
    bucket_width: float | None = None,
    continuous_batching: bool = False,
    max_queue_depth: int | None = None,
    slo_s: float | None = None,
    slo_per_token_s: float = 0.0,
    device_max_batch_size: int | None = None,
    device_max_batch_tokens: int | None = None,
    faults: tuple[str, ...] = (),
    classes: tuple[str, ...] = (),
    fault_mtbf_s: float = 5.0,
    fault_downtime_s: float = 0.5,
    fault_multiplier: float = 2.5,
    fault_duration_s: float = 1.0,
    hedging: bool = False,
    max_retries: int = 0,
    retry_backoff_s: float = 0.05,
    blacklist_s: float = 0.0,
    warmup_fraction: float = 0.0,
    cache_length_bucket: int | None = None,
    jobs: int = 1,
    model: ModelConfig = BERT_BASE,
    seed: int = global_config.DEFAULT_SEED,
) -> ServingSweepResult:
    """Sweep offered load for each dataset and batch policy.

    The offered QPS at each point is ``load_fraction`` times the fleet's
    measured closed-loop capacity, so a load of 1.0 is the drain rate the
    closed-batch benchmarks report and anything above it is overload.
    ``routers`` pairs a routing policy with each batch policy (SLO
    comparisons run e.g. ``timeout``+``least-loaded`` against
    ``deadline``+``cost-model`` at the same offered loads); empty means
    every policy uses ``router``.  ``slo_s``/``slo_per_token_s`` stamp every
    stream with deadlines, turning on the attainment/goodput columns.

    ``faults`` adds a fault-injection axis to the grid: every (dataset,
    policy+router, load) cell runs once per entry (``"none"`` is the
    fault-free baseline; ``"+"`` composes schedules), with the remedy knobs
    (``hedging``, ``max_retries``/``retry_backoff_s``, ``blacklist_s``)
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

    ``jobs > 1`` fans the capacity measurements and the (dataset, policy,
    load) grid across a :class:`~concurrent.futures.ProcessPoolExecutor`.
    Results are collected in grid order and every point is seeded
    independently, so the sweep (and its JSON payload) is byte-identical to
    the serial run for a fixed seed; the only observable difference is that
    parallel runs drop the in-memory ``BatchRecord.execution.schedule``
    objects (they never appear in the payload).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if routers and len(routers) != len(batch_policies):
        raise ValueError("routers must pair elementwise with batch_policies")
    pairs = list(zip(batch_policies, routers or (router,) * len(batch_policies)))
    slo = (
        None
        if slo_s is None
        else SLOSpec(base_s=slo_s, per_token_s=slo_per_token_s)
    )
    fault_axis: tuple[str | None, ...] = tuple(faults) if faults else (None,)
    class_axis: tuple[str | None, ...] = tuple(classes) if classes else (None,)
    result = ServingSweepResult(
        model=model.name,
        num_accelerators=num_accelerators,
        batch_size=batch_size,
        num_requests=num_requests,
        devices=tuple(split_fleet_spec(devices)),
        warmup_fraction=warmup_fraction,
        continuous_batching=continuous_batching,
        cache_length_bucket=cache_length_bucket,
        slo=slo.to_dict() if slo is not None else None,
        faults=tuple(faults),
        remedies=(
            {
                "hedging": hedging,
                "max_retries": max_retries,
                "retry_backoff_s": retry_backoff_s,
                "blacklist_s": blacklist_s,
            }
            if faults
            else None
        ),
        classes=tuple(classes),
    )
    options = {
        "devices": tuple(devices),
        "model": model,
        "num_accelerators": num_accelerators,
        "cache_length_bucket": cache_length_bucket,
        "num_requests": num_requests,
        "batch_size": batch_size,
        "router": router,
        "arrival": arrival,
        "timeout_s": timeout_s,
        "num_buckets": num_buckets,
        "bucket_width": bucket_width,
        "continuous_batching": continuous_batching,
        "max_queue_depth": max_queue_depth,
        "slo_s": slo_s,
        "slo_per_token_s": slo_per_token_s,
        "device_max_batch_size": device_max_batch_size,
        "device_max_batch_tokens": device_max_batch_tokens,
        "fault_mtbf_s": fault_mtbf_s,
        "fault_downtime_s": fault_downtime_s,
        "fault_multiplier": fault_multiplier,
        "fault_duration_s": fault_duration_s,
        "hedging": hedging,
        "max_retries": max_retries,
        "retry_backoff_s": retry_backoff_s,
        "blacklist_s": blacklist_s,
        "warmup_fraction": warmup_fraction,
        "seed": seed,
    }
    grid = [
        (dataset_name, policy_name, router_name, fault_name, mix_name, fraction)
        for dataset_name in datasets
        for policy_name, router_name in pairs
        for fault_name in fault_axis
        for mix_name in class_axis
        for fraction in load_fractions
    ]

    capacities: dict[str, float] = {}
    capacity_probes: list[dict | None] = []
    if jobs > 1:
        # Captured at submit time and re-exported inside every worker, so
        # --jobs N honors REPRO_PIPELINE_ENGINE / REPRO_SCHEDULE_CACHE
        # identically to a serial run regardless of what environment the
        # worker processes started with.
        env = capture_env_overrides()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=_MP_CONTEXT) as pool:
            capacity_futures = [
                pool.submit(_capacity_worker, options, dataset_name, env=env)
                for dataset_name in datasets
            ]
            for dataset_name, future in zip(datasets, capacity_futures):
                capacities[dataset_name], probes = future.result()
                capacity_probes.append(probes)
            point_futures = [
                pool.submit(
                    _point_worker, options, dataset_name, policy_name, router_name,
                    fault_name, mix_name, fraction, capacities[dataset_name], env=env,
                )
                for dataset_name, policy_name, router_name, fault_name, mix_name, fraction in grid
            ]
            points = [future.result() for future in point_futures]
    else:
        fleets: dict[str, list[Device]] = {}
        for dataset_name in datasets:
            fleets[dataset_name] = _build_sweep_fleet(options, dataset_name)
            capacities[dataset_name], probes = _capacity_worker(
                options, dataset_name, fleet=fleets[dataset_name]
            )
            capacity_probes.append(probes)
        points = [
            _point_worker(
                options, dataset_name, policy_name, router_name, fault_name,
                mix_name, fraction, capacities[dataset_name], fleet=fleets[dataset_name],
            )
            for dataset_name, policy_name, router_name, fault_name, mix_name, fraction in grid
        ]
    for dataset_name in datasets:
        result.capacity_qps[get_dataset_config(dataset_name).name] = capacities[dataset_name]
    result.points = points
    _replay_cache_accounting(result, capacity_probes)
    return result


def _replay_cache_accounting(
    result: ServingSweepResult,
    capacity_probes: list[dict | None],
    max_entries: int | None = None,
) -> None:
    """Fill deterministic schedule-cache statistics for every sweep point.

    Replays each run's ordered probe stream (``sequence`` of key digests)
    against an LRU of the shared cache's capacity in canonical order --
    capacity runs first, then the (dataset, policy, load) grid -- which is
    exactly the shared cache's behavior in a fresh serial process,
    *including* evictions past ``max_entries`` unique batch shapes.  The
    resulting hit rates are byte-identical for any ``jobs`` setting.

    Probe summaries without a ``sequence`` (produced by older serialized
    reports) fall back to the seen-set approximation, which is exact only
    while the replay never evicts; ``num_evictions`` stays authoritative
    either way because the fallback cannot insert past the cap unnoticed.
    """
    if max_entries is None:
        max_entries = GLOBAL_SCHEDULE_CACHE.max_entries
    lru: OrderedDict[str, None] = OrderedDict()
    total_hits = 0
    total_probes = 0
    total_evictions = 0
    any_probes = False

    def account(probes: dict | None) -> dict | None:
        nonlocal total_hits, total_probes, total_evictions, any_probes
        if probes is None:
            return None
        any_probes = True
        sequence = probes.get("sequence")
        hits = 0
        misses = 0
        evictions = 0
        if sequence is None:
            # Legacy summary: distinct digests only.  Treat every distinct
            # digest as one miss (exact below capacity) and touch the LRU so
            # later runs still see them.
            for digest in probes["unique"]:
                if digest in lru:
                    lru.move_to_end(digest)
                else:
                    misses += 1
                    lru[digest] = None
                    if len(lru) > max_entries:
                        lru.popitem(last=False)
                        evictions += 1
            hits = probes["total"] - misses
        else:
            for item in sequence:
                # Fleet-merged streams carry bare digests; per-device streams
                # still carry their (stamp, digest) merge keys.
                digest = item[1] if isinstance(item, tuple) else item
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
        total_probes += probes["total"]
        total_evictions += evictions
        stats = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / probes["total"] if probes["total"] else 0.0,
        }
        if evictions:
            stats["num_evictions"] = evictions
        return stats

    for probes in capacity_probes:
        account(probes)
    for point in result.points:
        point.cache_stats = account(point.report.schedule_cache_probes)
    if any_probes:
        result.schedule_cache = {
            "hits": total_hits,
            "misses": total_probes - total_hits,
            "hit_rate": total_hits / total_probes if total_probes else 0.0,
            "num_evictions": total_evictions,
        }


def _run_spec(config: ServingSweepConfig) -> ServingSweepResult:
    return _sweep_impl(
        datasets=config.datasets,
        load_fractions=config.load_fractions,
        batch_policies=config.batch_policies,
        num_requests=config.requests,
        batch_size=config.batch_size,
        devices=config.devices,
        num_accelerators=config.num_accelerators,
        router=config.router,
        routers=config.routers,
        arrival=config.arrival,
        timeout_s=config.timeout_ms * 1e-3,
        num_buckets=config.num_buckets,
        bucket_width=config.bucket_width,
        continuous_batching=config.continuous_batching,
        max_queue_depth=config.max_queue_depth,
        slo_s=None if config.slo_ms is None else config.slo_ms * 1e-3,
        slo_per_token_s=config.slo_per_token_ms * 1e-3,
        device_max_batch_size=config.device_max_batch_size,
        device_max_batch_tokens=config.device_max_batch_tokens,
        faults=config.faults,
        classes=config.classes,
        fault_mtbf_s=config.fault_mtbf_s,
        fault_downtime_s=config.fault_downtime_s,
        fault_multiplier=config.fault_multiplier,
        fault_duration_s=config.fault_duration_s,
        hedging=config.hedging,
        max_retries=config.max_retries,
        retry_backoff_s=config.retry_backoff_ms * 1e-3,
        blacklist_s=config.blacklist_ms * 1e-3,
        warmup_fraction=config.warmup_fraction,
        cache_length_bucket=config.cache_length_bucket,
        jobs=config.jobs,
        model=get_model_config(config.model),
        seed=config.seed,
    )


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
        run=_run_spec,
        render=render_sweep,
        order=90,
        include_in_all=False,
    )
)
