"""Event-driven online serving simulator over a fleet of Devices.

This is the open-loop counterpart of the closed-batch experiments: requests
arrive over wall-clock time (any :mod:`~repro.serving.arrivals` process),
wait in a central queue, are cut into batches by a
:mod:`~repro.serving.policies` policy, routed onto one of several
:class:`~repro.devices.Device` backends by a :mod:`~repro.serving.routing`
policy, and each dispatched batch is costed by its device's own model --
cycle-accurate coarse-pipeline simulation for FPGA designs, closed-form
roofline for CPU/GPU platforms.  Fleets may mix backends freely; raw
:class:`~repro.hardware.accelerator.Accelerator` instances are accepted for
backward compatibility and wrapped into
:class:`~repro.devices.CycleAccurateDevice` on the fly.

Two serving disciplines are modeled per device:

* **block per batch** (default) -- a device accepts the next batch only once
  the previous one has fully drained;
* **device-level continuous batching** (``continuous_batching=True``) -- a
  device admits the next batch as soon as its entry stage frees up, so a new
  batch streams into the coarse pipeline while the previous one drains.
  Instruction-driven analytical devices have no internal pipeline and
  serialize either way.

Admission control is available via ``max_queue_depth``: arrivals beyond that
queue depth are shed, and the shed rate is part of the report.  Per-device
batch limits (``max_batch_size`` / ``max_batch_tokens``) are honored at
dispatch by splitting oversized batches, and an optional
:class:`~repro.serving.slo.SLOSpec` stamps the stream with per-request
deadlines, turning on deadline-attainment / goodput accounting (and, with
the :class:`~repro.serving.slo.DeadlineBatcher`, EDF formation and
provably-late shedding).

The same engine serves autoregressive decode runs (``output_lengths``): an
encoder request is a request that generates one token, so one core lands
every prefill, records one-token requests at once and decodes the rest one
iteration at a time; a device's ``kv_cache_bytes`` gates every prefill.

The report answers the deployment questions the closed-batch benchmarks
cannot: per-request latency percentiles (p50/p95/p99) at a given offered
QPS, the sustained throughput (with optional warm-up discarding), the
queue-depth timeline (blow-up past saturation), per-device utilization, and
per-device energy where the backend has a power model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..devices import BatchExecution, Device
from ..faults import FaultInjector, FaultSchedule, get_fault_schedule
from ..hardware.accelerator import Accelerator
from ..transformer.configs import DatasetConfig
from .arrivals import ArrivalProcess
from .autoscaler import ScaleObservation, _DecisionWindow, get_autoscaler
from .clock import SimClock
from .core import (
    _EPS,
    CrashLedger,
    DispatchCore,
    PlannedBatch,
    ServingSession,
    open_session,
    prepare_stream,
)

# The end-of-run fold lives in ``ServingSession.finish``; these names stay
# importable here because perfbench/tracing.py wraps them by module attribute
# (its traced repeats fail if one is deleted or moved).
from .classes import collect_class_stats  # noqa: F401
from .core import collect_device_stats  # noqa: F401
from .options import ServingOptions
from .request import CompletionLedger, Request, RequestRecord

__all__ = [
    "BatchRecord",
    "DecodeServingReport",
    "DeviceSummary",
    "OnlineServingReport",
    "simulate_online",
]


@dataclass
class BatchRecord:
    """One dispatched batch: where and when it ran, plus its execution."""

    batch_id: int
    device_index: int
    dispatch_time: float
    start_time: float
    execution: BatchExecution
    request_ids: list[int]

    @property
    def end_time(self) -> float:
        return self.start_time + self.execution.latency_seconds


@dataclass
class DeviceSummary:
    """Aggregate accounting for one device in the fleet."""

    index: int
    accelerator: str
    backend: str = "cycle-accurate"
    num_batches: int = 0
    num_requests: int = 0
    busy_seconds: float = 0.0
    #: Total energy of the dispatched batches (None when the backend has no
    #: power model).
    energy_joules: float | None = None
    #: Per-run schedule-cache counters (None when the backend has no cache).
    schedule_cache: dict | None = None
    pipeline_utilizations: list[float] = field(default_factory=list)
    #: Rental price (USD per device-hour); None when the device is unpriced.
    price_per_hour_usd: float | None = None
    #: Billed seconds this device was provisioned (autoscaled runs only;
    #: None means the device was online for the whole run).
    online_seconds: float | None = None
    #: In-flight batches this device lost to injected crashes.
    num_crashes: int = 0
    #: Seconds this device spent offline (crash downtime) within the run.
    downtime_s: float = 0.0
    #: Batches this device ran a hedged copy of (winner or loser).
    num_hedged: int = 0
    #: Crashed requests re-dispatched to this device's batches with backoff.
    num_retries: int = 0
    #: Seconds a failure-aware router refused to route to this device.
    blacklisted_s: float = 0.0

    @property
    def mean_pipeline_utilization(self) -> float:
        """Mean intra-batch stage utilization (bubbles inside the pipeline)."""
        if not self.pipeline_utilizations:
            return 0.0
        return float(np.mean(self.pipeline_utilizations))

    def duty_cycle(self, horizon_seconds: float) -> float:
        """Fraction of the simulated horizon this device spent executing."""
        if horizon_seconds <= 0:
            return 0.0
        return min(self.busy_seconds / horizon_seconds, 1.0)


@dataclass
class OnlineServingReport:
    """Results of one open-loop serving simulation."""

    dataset: str
    arrival_process: str
    batch_policy: str
    router: str
    scheduler: str
    offered_qps: float | None
    num_requests: int
    continuous_batching: bool = False
    #: Admission-control limit the run was configured with (None = no shedding).
    queue_limit: int | None = None
    #: SLO spec the run was configured with (JSON form; None = no deadline
    #: assignment -- requests may still carry their own deadlines).
    slo: dict | None = None
    #: Requests dropped by admission control (queue at the limit on arrival).
    num_shed: int = 0
    #: Requests dropped by the batch policy as provably late (deadline
    #: unattainable on any device even if dispatched immediately, alone).
    num_shed_late: int = 0
    #: Requests shed at *arrival* because their deadline was already
    #: unattainable (``shed_on_predicted_miss``): no device's earliest start
    #: plus its single-request estimate could meet it.
    num_shed_predicted: int = 0
    #: Batches the engine split to honor a device's admission limits
    #: (``max_batch_size`` / ``max_batch_tokens``).
    num_limit_splits: int = 0
    #: Every dropped request (admission control + late shedding), kept so
    #: deadline attainment can charge misses to the right warm-up window.
    shed_requests: list[Request] = field(default_factory=list)
    #: Shed cause per dropped request_id (``"shed"`` / ``"shed-predicted"``
    #: / ``"late"`` / ``"crashed"``); feeds per-class accounting, not
    #: serialized.
    shed_causes: dict = field(default_factory=dict)
    #: Every completed request, as columns (:attr:`records` is the row view).
    ledger: CompletionLedger = field(default_factory=CompletionLedger, repr=False)
    batches: list[BatchRecord] = field(default_factory=list)
    devices: list[DeviceSummary] = field(default_factory=list)
    #: Stepwise (time, waiting-requests) samples of the central queue.
    queue_depth_timeline: list[tuple[float, int]] = field(default_factory=list)
    #: Fault schedules injected into the run (``FaultInjector.describe()``
    #: form; None = no fault machinery attached).
    faults: list | None = None
    #: In-flight batches lost to injected device crashes (each loss counts
    #: once per dispatched copy, so a hedged pair that both die counts 2).
    num_crashes: int = 0
    #: Requests dropped after exhausting their replay + retry budget.
    num_shed_crashed: int = 0
    #: Batches dispatched with a cross-device hedge copy.
    num_hedged: int = 0
    #: Hedged batches where the mirror copy beat (or outlived) the primary.
    num_hedge_wins: int = 0
    #: Crashed requests re-dispatched with exponential backoff.
    num_retries: int = 0
    #: Crashed requests replayed immediately (the free requeue-once that
    #: mirrors the live gateway's supervision tree).
    num_replayed: int = 0
    #: Autoscaling policy that drove the run (None = static fleet).
    autoscaler: str | None = None
    #: Seconds between a scale-up decision and the device coming online
    #: (None = static fleet).
    provisioning_lag_s: float | None = None
    #: Stepwise (time, active-device-count) samples; empty for static fleets.
    scaling_timeline: list[tuple[float, int]] = field(default_factory=list)
    #: Per-class accounting (name -> :class:`~repro.serving.classes.ClassSummary`),
    #: populated by :func:`~repro.serving.classes.collect_class_stats` when
    #: at least one offered request carries a class; ``None`` keeps untagged
    #: reports byte-identical to their historical shape.
    class_summaries: dict | None = None
    #: Lower-tier batches the priority batcher deferred in favor of a
    #: pressured higher tier (None = the run's policy has no such notion).
    num_preemptions: int | None = None
    #: Prefill dispatches deferred or split because KV reservations did not
    #: fit the selected device's cache at that instant (serialized by
    #: decode reports only).
    num_kv_stalls: int = 0

    # ------------------------------------------------------------------
    # Latency / throughput
    # ------------------------------------------------------------------

    @property
    def records(self) -> list[RequestRecord]:
        """Every completed request as a record, in row order.

        A view built from :attr:`ledger` on first read and again only after
        more rows land (the live ``/stats`` path) or the end-of-run sort;
        every metric folds the ledger's columns instead.
        """
        return self.ledger.records()

    @property
    def num_completed(self) -> int:
        """Requests actually served (offered minus admission/late sheds)."""
        return len(self.ledger)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests dropped by admission control."""
        if self.num_requests <= 0:
            return 0.0
        return self.num_shed / self.num_requests

    @property
    def latencies_seconds(self) -> list[float]:
        """End-to-end per-request latencies in completion order."""
        return self.ledger.column("latency").tolist()

    def _percentile(self, column: str, percentile: float, warmup_fraction: float = 0.0) -> float:
        values = self.ledger.column(column)
        if warmup_fraction:
            values = values[self._steady(warmup_fraction)]
        if values.size == 0:
            raise ValueError("no requests were served")
        return float(np.percentile(values, percentile))

    def _percentiles_ms(self, column: str, percentiles: tuple) -> dict:
        """``{"p50": milliseconds, ...}``; all None when nothing was served."""
        served = self.num_completed
        return {f"p{q}": self._percentile(column, q) * 1e3 if served else None for q in percentiles}

    def _last(self, column: str) -> float:
        values = self.ledger.column(column)
        return float(values.max()) if values.size else 0.0

    @property
    def makespan_seconds(self) -> float:
        """Time at which the last request completed."""
        return self._last("completion")

    @property
    def sustained_qps(self) -> float:
        """Completed requests per second of simulated time."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.num_completed / self.makespan_seconds

    def latency_percentile(self, percentile: float) -> float:
        """End-to-end latency percentile in seconds."""
        return self._percentile("latency", percentile)

    def queueing_delay_percentile(self, percentile: float) -> float:
        """Queueing-delay percentile (arrival to execution start) in seconds."""
        return self._percentile("queueing_delay", percentile)

    # ------------------------------------------------------------------
    # Warm-up / steady-state statistics
    # ------------------------------------------------------------------

    @property
    def arrival_horizon_seconds(self) -> float:
        """Time of the last served arrival (the warm-up window's base)."""
        return self._last("arrival")

    def _steady(self, warmup_fraction: float) -> np.ndarray:
        """The rows of requests that arrived after the warm-up window.

        ``warmup_fraction`` of the *arrival horizon* is discarded so the
        cold-start transient (empty queues, idle devices) does not pollute
        steady-state percentiles.  The cutoff is based on arrival times, not
        the makespan: under overload completions trail arrivals by a long
        drain, and a makespan-based cutoff could discard every row.  The
        last arrival always survives; the fallback to every row only guards
        degenerate float edge cases.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        arrival = self.ledger.column("arrival")

        def rows():
            steady = np.flatnonzero(arrival >= warmup_fraction * self.arrival_horizon_seconds)
            return steady if steady.size else np.arange(arrival.size)

        return self.ledger.cached(("steady", warmup_fraction), rows)

    def steady_records(self, warmup_fraction: float = 0.0) -> list[RequestRecord]:
        """Records of requests that arrived after the warm-up window (see
        :meth:`_steady`)."""
        records = self.records
        return [records[row] for row in self._steady(warmup_fraction).tolist()]

    def steady_latency_percentile(
        self, percentile: float, warmup_fraction: float = 0.0
    ) -> float:
        """Latency percentile over the post-warm-up records."""
        return self._percentile("latency", percentile, warmup_fraction)

    def _steady_window(self, warmup_fraction: float) -> float:
        """First arrival (or the cutoff) to last completion of the steady rows."""
        steady = self._steady(warmup_fraction)
        cutoff = warmup_fraction * self.arrival_horizon_seconds
        start = min(cutoff, float(self.ledger.column("arrival")[steady].min()))
        return float(self.ledger.column("completion")[steady].max()) - start

    def steady_qps(self, warmup_fraction: float = 0.0) -> float:
        """Completed requests per second over the post-warm-up window."""
        if warmup_fraction == 0.0:
            return self.sustained_qps
        served = self._steady(warmup_fraction).size
        if not served:
            return 0.0
        window = self._steady_window(warmup_fraction)
        if window <= 0:
            return 0.0
        return served / window

    # ------------------------------------------------------------------
    # SLO attainment / goodput
    # ------------------------------------------------------------------

    @property
    def has_slo(self) -> bool:
        """Whether any offered request (served or shed) carried a deadline."""
        return bool(self.ledger.column("has_deadline").any()) or any(
            r.deadline is not None for r in self.shed_requests
        )

    def _steady_on_time(self, warmup_fraction: float) -> tuple[int, int]:
        """(deadline-carrying, on-time deadline-carrying) post-warm-up rows."""
        steady = self._steady(warmup_fraction)
        has_deadline = self.ledger.column("has_deadline")[steady]
        on_time = self.ledger.column("on_time")[steady] & has_deadline
        return int(has_deadline.sum()), int(on_time.sum())

    def steady_attainment_rate(self, warmup_fraction: float = 0.0) -> float | None:
        """Fraction of SLO-carrying requests that completed by their deadline.

        The denominator is every offered post-warm-up request with a
        deadline -- completed *and* shed (admission control or late
        shedding): a dropped request missed its SLO just as surely as a
        late one.  ``None`` when no request in the window carried a
        deadline.
        """
        cutoff = (
            warmup_fraction * self.arrival_horizon_seconds if warmup_fraction else 0.0
        )
        served, on_time = self._steady_on_time(warmup_fraction)
        shed = sum(
            1
            for r in self.shed_requests
            if r.deadline is not None and r.arrival_time >= cutoff
        )
        total = served + shed
        if total == 0:
            return None
        return on_time / total

    @property
    def attainment_rate(self) -> float | None:
        """Whole-run deadline attainment (no warm-up discarded)."""
        return self.steady_attainment_rate(0.0)

    def steady_goodput_qps(self, warmup_fraction: float = 0.0) -> float | None:
        """On-time completions per second over the post-warm-up window.

        Goodput is the SLO-aware sibling of :meth:`steady_qps`: late
        completions are work the fleet did that no one could use.  ``None``
        when no offered request carried a deadline.
        """
        if not self.has_slo:
            return None
        _, on_time = self._steady_on_time(warmup_fraction)
        if not len(self.ledger):
            return 0.0
        if warmup_fraction == 0.0:
            window = self.makespan_seconds
        else:
            window = self._steady_window(warmup_fraction)
        if window <= 0:
            return 0.0
        return on_time / window

    @property
    def goodput_qps(self) -> float | None:
        """Whole-run goodput (no warm-up discarded)."""
        return self.steady_goodput_qps(0.0)

    # ------------------------------------------------------------------
    # Queue / fleet accounting
    # ------------------------------------------------------------------

    @property
    def max_queue_depth(self) -> int:
        """Deepest the central queue got during the run."""
        return max((depth for _, depth in self.queue_depth_timeline), default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean depth of the central queue."""
        samples = self.queue_depth_timeline
        if len(samples) < 2:
            return float(samples[0][1]) if samples else 0.0
        horizon = max(self.makespan_seconds, samples[-1][0])
        if horizon <= samples[0][0]:
            return float(samples[-1][1])
        area = 0.0
        for (t0, depth), (t1, _) in zip(samples, samples[1:]):
            area += depth * (t1 - t0)
        area += samples[-1][1] * (horizon - samples[-1][0])
        return area / (horizon - samples[0][0])

    @property
    def mean_waiting_requests(self) -> float:
        """Time-averaged number of requests waiting to start (Little's law).

        Unlike :attr:`mean_queue_depth` this also counts requests already cut
        into a batch but still stuck behind a device's backlog, so it is the
        number that blows up past saturation.
        """
        horizon = self.makespan_seconds
        if horizon <= 0:
            return 0.0
        # Summed one row at a time in row order, as the records would be.
        return sum(self.ledger.column("queueing_delay").tolist()) / horizon

    @property
    def average_device_utilization(self) -> float:
        """Mean duty cycle of the fleet over the simulated horizon."""
        horizon = self.makespan_seconds
        if not self.devices or horizon <= 0:
            return 0.0
        return float(np.mean([device.duty_cycle(horizon) for device in self.devices]))

    @property
    def average_pipeline_utilization(self) -> float:
        """Mean intra-batch stage utilization across simulated-pipeline batches."""
        utils = [
            b.execution.utilization for b in self.batches if b.execution.utilization is not None
        ]
        return float(np.mean(utils)) if utils else 0.0

    @property
    def total_energy_joules(self) -> float | None:
        """Fleet energy over the run (None when no device reports energy)."""
        measured = [d.energy_joules for d in self.devices if d.energy_joules is not None]
        return float(sum(measured)) if measured else None

    # ------------------------------------------------------------------
    # Dollar-cost accounting (capacity planning)
    # ------------------------------------------------------------------

    @property
    def cost_usd(self) -> float | None:
        """Dollar cost of the run: price x provisioned hours, per device.

        A static fleet bills every device for the whole makespan (renting
        capacity costs the same whether it is busy or idle -- that is the
        whole point of capacity planning); an autoscaled run bills each
        device's online intervals, with scale-downs billed until in-flight
        work drains.  ``None`` when no device carries a price.
        """
        priced = [d for d in self.devices if d.price_per_hour_usd is not None]
        if not priced:
            return None
        horizon = self.makespan_seconds
        return sum(
            d.price_per_hour_usd
            * ((d.online_seconds if d.online_seconds is not None else horizon) / 3600.0)
            for d in priced
        )

    @property
    def average_price_per_hour_usd(self) -> float | None:
        """Average fleet spend rate over the run (cost / makespan).

        For a static fleet this is simply the sum of the device prices; for
        an autoscaled run it is the schedule-weighted average, which is the
        fair basis for comparing an autoscaled pool against a static fleet
        of some fixed size.
        """
        cost = self.cost_usd
        horizon = self.makespan_seconds
        if cost is None or horizon <= 0:
            return None
        return cost / (horizon / 3600.0)

    @property
    def joules_per_million_requests(self) -> float | None:
        """Fleet energy normalized per million served requests (J/Mreq)."""
        energy = self.total_energy_joules
        if energy is None or self.num_completed == 0:
            return None
        return energy / self.num_completed * 1e6

    @property
    def attainment_per_dollar_hour(self) -> float | None:
        """Deadline attainment bought per dollar-hour of fleet spend.

        The planner's figure of merit for scaling schedules: a policy that
        holds the same attainment on a cheaper schedule scores higher.
        ``None`` without an SLO or without priced devices.
        """
        attainment = self.attainment_rate
        rate = self.average_price_per_hour_usd
        if attainment is None or rate is None or rate <= 0:
            return None
        return attainment / rate

    @property
    def schedule_cache(self) -> dict | None:
        """Fleet-aggregate schedule-cache counters for this run.

        ``None`` when no device in the fleet caches schedules (for example a
        purely analytical fleet).
        """
        stats = [d.schedule_cache for d in self.devices if d.schedule_cache is not None]
        if not stats:
            return None
        hits = sum(s["hits"] for s in stats)
        misses = sum(s["misses"] for s in stats)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def to_dict(self) -> dict:
        """Machine-readable summary (JSON-ready; omits per-request records).

        Class-free runs produce exactly the historical key set; the
        ``num_preemptions`` and ``classes`` keys appear only when the run
        used a preemption-aware policy / carried tagged requests, so adding
        the multi-tenant machinery never perturbs existing reports.
        """
        payload = {
            "dataset": self.dataset,
            "arrival_process": self.arrival_process,
            "batch_policy": self.batch_policy,
            "router": self.router,
            "scheduler": self.scheduler,
            "continuous_batching": self.continuous_batching,
            "queue_limit": self.queue_limit,
            "slo": self.slo,
            "offered_qps": self.offered_qps,
            "num_requests": self.num_requests,
            "num_completed": self.num_completed,
            "num_shed": self.num_shed,
            "num_shed_late": self.num_shed_late,
            "num_shed_predicted": self.num_shed_predicted,
            "num_limit_splits": self.num_limit_splits,
            "shed_rate": self.shed_rate,
            "attainment_rate": self.attainment_rate,
            "goodput_qps": self.goodput_qps,
            "num_batches": len(self.batches),
            "sustained_qps": self.sustained_qps,
            "makespan_seconds": self.makespan_seconds,
            # An all-shed run (tight SLOs + predicted-miss admission) has no
            # records; percentiles render as None rather than raising.
            "latency_ms": self._percentiles_ms("latency", (50, 95, 99)),
            "queueing_delay_ms": self._percentiles_ms("queueing_delay", (50, 99)),
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "mean_waiting_requests": self.mean_waiting_requests,
            "average_device_utilization": self.average_device_utilization,
            "average_pipeline_utilization": self.average_pipeline_utilization,
            "total_energy_joules": self.total_energy_joules,
            "joules_per_million_requests": self.joules_per_million_requests,
            "cost_usd": self.cost_usd,
            "average_price_per_hour_usd": self.average_price_per_hour_usd,
            "attainment_per_dollar_hour": self.attainment_per_dollar_hour,
            "autoscaler": self.autoscaler,
            "provisioning_lag_s": self.provisioning_lag_s,
            "scaling_timeline": [[t, n] for t, n in self.scaling_timeline],
            "schedule_cache": self.schedule_cache,
            "faults": self.faults,
            "num_crashes": self.num_crashes,
            "num_shed_crashed": self.num_shed_crashed,
            "num_hedged": self.num_hedged,
            "num_hedge_wins": self.num_hedge_wins,
            "num_retries": self.num_retries,
            "num_replayed": self.num_replayed,
        }
        if self.num_preemptions is not None:
            payload["num_preemptions"] = self.num_preemptions
        if self.class_summaries is not None:
            payload["classes"] = {
                name: summary.to_dict() for name, summary in self.class_summaries.items()
            }
        payload["devices"] = [
            {
                "device": device.index,
                "accelerator": device.accelerator,
                "backend": device.backend,
                "batches": device.num_batches,
                "requests": device.num_requests,
                "busy_seconds": device.busy_seconds,
                "duty_cycle": device.duty_cycle(self.makespan_seconds),
                "pipeline_utilization": device.mean_pipeline_utilization,
                "energy_joules": device.energy_joules,
                "price_per_hour_usd": device.price_per_hour_usd,
                "online_seconds": device.online_seconds,
                "schedule_cache": device.schedule_cache,
                "num_crashes": device.num_crashes,
                "downtime_s": device.downtime_s,
                "num_hedged": device.num_hedged,
                "num_retries": device.num_retries,
                "blacklisted_s": device.blacklisted_s,
            }
            for device in self.devices
        ]
        return payload

    def as_row(self) -> dict:
        """Summary row for reports."""
        row = {
            "dataset": self.dataset,
            "arrivals": self.arrival_process,
            "policy": self.batch_policy,
            "devices": len(self.devices),
            "requests": self.num_requests,
            "offered_qps": round(self.offered_qps, 1) if self.offered_qps else None,
            "sustained_qps": round(self.sustained_qps, 1),
            "p50_ms": round(self.latency_percentile(50) * 1e3, 2) if self.num_completed else None,
            "p95_ms": round(self.latency_percentile(95) * 1e3, 2) if self.num_completed else None,
            "p99_ms": round(self.latency_percentile(99) * 1e3, 2) if self.num_completed else None,
            "waiting": round(self.mean_waiting_requests, 1),
            "device_util": round(self.average_device_utilization, 3),
            "shed_rate": round(self.shed_rate, 3),
        }
        attainment = self.attainment_rate
        if attainment is not None:
            row["attainment"] = round(attainment, 3)
            row["goodput_qps"] = round(self.goodput_qps, 1)
        cost = self.cost_usd
        if cost is not None:
            row["cost_usd"] = round(cost, 6)
        cache = self.schedule_cache
        if cache is not None:
            row["cache_hit"] = round(cache["hit_rate"], 3)
        if self.faults is not None:
            row["crashes"] = self.num_crashes
            row["crash_shed"] = self.num_shed_crashed
        if self.num_preemptions is not None:
            row["preempt"] = self.num_preemptions
        if self.class_summaries is not None:
            for name, summary in self.class_summaries.items():
                if summary.attainment is not None:
                    row[f"att[{name}]"] = round(summary.attainment, 3)
                row[f"shed[{name}]"] = summary.shed
        return row


@dataclass
class DecodeServingReport(OnlineServingReport):
    """Results of one decode serving simulation.

    Extends the encoder report with the decode phase's metrics: TTFT and
    inter-token latency percentiles, token goodput, per-device decode-step
    and KV-occupancy accounting, and the admission mode that produced them.
    """

    iteration_level: bool = True
    output_lengths: str | None = None
    ledger: CompletionLedger = field(
        default_factory=lambda: CompletionLedger(first_tokens=True), repr=False
    )
    #: Per-device decode accounting: steps, generated tokens, KV peak/cap.
    decode_devices: list[dict] = field(default_factory=list)

    @property
    def total_output_tokens(self) -> int:
        """Tokens generated across all completed requests."""
        return int(self.ledger.column("output_len").sum())

    @property
    def sustained_tokens_per_second(self) -> float:
        """Generated tokens per second of simulated time (token goodput)."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_seconds

    def ttft_percentile(self, percentile: float) -> float:
        """Time-to-first-token percentile in seconds."""
        return self._percentile("ttft", percentile)

    def inter_token_percentile(self, percentile: float) -> float | None:
        """Per-token decode latency percentile in seconds (None when the
        stream generated no tokens past prefill)."""
        ledger = self.ledger

        def gaps():
            extra = ledger.column("output_len") - 1
            decoded = extra > 0
            done, first = ledger.column("completion"), ledger.column("first_token")
            return (done[decoded] - first[decoded]) / extra[decoded]

        values = ledger.cached("inter_token", gaps)
        if values.size == 0:
            return None
        return float(np.percentile(values, percentile))

    def steady_ttft_percentile(
        self, percentile: float, warmup_fraction: float = 0.0
    ) -> float:
        """TTFT percentile over the post-warm-up records."""
        return self._percentile("ttft", percentile, warmup_fraction)

    @property
    def num_decode_steps(self) -> int:
        """Decode iterations executed across the fleet."""
        return sum(d["num_decode_steps"] for d in self.decode_devices)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        itl_p50 = self.inter_token_percentile(50)
        itl_p95 = self.inter_token_percentile(95)
        payload.update(
            {
                "iteration_level": self.iteration_level,
                "output_lengths": self.output_lengths,
                "num_kv_stalls": self.num_kv_stalls,
                "num_decode_steps": self.num_decode_steps,
                "total_output_tokens": self.total_output_tokens,
                "sustained_tokens_per_second": self.sustained_tokens_per_second,
                # Like latency_ms: an all-shed run renders None, not a raise.
                "ttft_ms": self._percentiles_ms("ttft", (50, 95)),
                "inter_token_ms": {
                    "p50": itl_p50 * 1e3 if itl_p50 is not None else None,
                    "p95": itl_p95 * 1e3 if itl_p95 is not None else None,
                },
                "decode_devices": list(self.decode_devices),
            }
        )
        return payload

    def as_row(self) -> dict:
        row = super().as_row()
        row["mode"] = "iteration" if self.iteration_level else "request"
        row["ttft_p50_ms"] = (
            round(self.ttft_percentile(50) * 1e3, 2) if self.num_completed else None
        )
        itl = self.inter_token_percentile(50)
        row["itl_p50_ms"] = round(itl * 1e3, 3) if itl is not None else None
        row["tok_per_s"] = round(self.sustained_tokens_per_second, 1)
        return row


def _as_fault_injector(faults, num_devices: int, seed: int) -> FaultInjector | None:
    """Normalize the ``faults`` argument to a :class:`FaultInjector`.

    Accepts a ready injector, one schedule or registered name, a sequence of
    either, or ``"a+b"`` composites (the sweep's ``--faults`` axis syntax).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, (str, FaultSchedule)):
        faults = [faults]
    schedules: list[FaultSchedule] = []
    for entry in faults:
        if isinstance(entry, FaultSchedule):
            schedules.append(entry)
        elif isinstance(entry, str):
            for name in entry.split("+"):
                schedules.append(get_fault_schedule(name))
        else:
            raise TypeError(
                f"fault entries must be FaultSchedule or registered names, "
                f"got {type(entry).__name__}"
            )
    return FaultInjector(tuple(schedules), num_devices=num_devices, seed=seed)


@dataclass
class _RunningRequest:
    """One request past prefill, decoding on (or waiting to join) a device."""

    request: Request
    #: The ledger's batch row of the prefill that produced the first token.
    batch_row: int
    #: When prefill finishes: the first token, and the earliest join instant.
    ready_time: float
    #: Tokens produced so far (prefill produces the first).
    generated: int = 1

    @property
    def context_length(self) -> int:
        """KV rows the next decode step attends over (prompt + generated)."""
        return self.request.length + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


@dataclass
class _DeviceDecodeState:
    """Per-device decode bookkeeping the engine loop drives."""

    running: list[_RunningRequest] = field(default_factory=list)
    #: Prefilled requests waiting to join, in join order (ready time, id).
    joiners: list[_RunningRequest] = field(default_factory=list)
    #: Request-level (gang) mode: finished members whose KV stays reserved
    #: until the whole gang drains.
    gang_done: list[_RunningRequest] = field(default_factory=list)
    #: Members of the in-flight decode step (at most one per device; empty
    #: while the device is idle).
    step_members: list[_RunningRequest] = field(default_factory=list)
    #: Next decode event: the step's end while a step runs, else the first
    #: joiner's ready time (inf when idle with no joiner).
    wake: float = math.inf
    #: KV-cache occupancy in reserved bytes, and its high-water mark.
    reserved_bytes: int = 0
    kv_peak_bytes: int = 0
    #: Pending releases for requests that complete at prefill
    #: (``output_len == 1``): (release_time, bytes) min-heap.
    release_heap: list[tuple[float, int]] = field(default_factory=list)
    num_steps: int = 0
    decode_tokens: int = 0


class _SimCore(DispatchCore):
    """The simulator's dispatch core: KV admission, prefill landing, decode steps.

    Batches land through ``DispatchCore.finalize``, whose :meth:`land` hook
    records one-token requests at once and queues the rest to decode;
    :meth:`admit` gates prefills on KV, :meth:`pump` wraps formation in the
    decode steps, and :meth:`next_action_time` / :meth:`busy` feed decode
    events to the event loop.  Devices are visited only while a request
    decodes or a KV release is pending, so encoder runs pay nothing for
    decode.  The per-device state covers the session's whole pool (an
    autoscaled run grows ``fleet`` in place).
    """

    def __init__(self, session: ServingSession, *args, **kwargs) -> None:
        super().__init__(session, *args, **kwargs)
        self.iteration_level = session.options.iteration_level
        #: Only a decode run has requests that generate more than one token.
        self._decode_run = isinstance(self.report, DecodeServingReport)
        self.states = [_DeviceDecodeState() for _ in session.fleet]
        #: A prefill was refused for KV at this instant: the policy timer
        #: must not pull the loop back to ``now`` until something frees.
        self._kv_blocked = False
        #: Requests past prefill that are still generating (joiners and
        #: running members), and KV releases pending across the devices.
        self._decoding = 0
        self._releases = 0

    # ------------------------------------------------------------------
    # KV cache
    # ------------------------------------------------------------------

    def _drain_kv_releases(self, index: int, now: float) -> None:
        state = self.states[index]
        while state.release_heap and state.release_heap[0][0] <= now + _EPS:
            _, nbytes = heapq.heappop(state.release_heap)
            state.reserved_bytes -= nbytes
            self._releases -= 1

    def admit(self, index: int, batch: list[Request], now: float) -> int:
        """Requests to dispatch now: all-or-nothing up to a capacity chunk.

        The target prefix is the longest that fits an *empty* cache (a
        whole formed batch can exceed total capacity); it dispatches only
        once the cache has room for all of it at once.  Admitting eagerly
        whenever a single slot frees would fragment prefill into tiny
        batches, which a weight-streaming accelerator pays for dearly --
        deferring (return 0) keeps prefill batches capacity-sized.  Every
        deferral or shortened batch counts one ``num_kv_stalls``.
        """
        device = self.fleet[index]
        capacity = device.kv_cache_bytes
        if capacity is None:
            return len(batch)
        self._drain_kv_releases(index, now)
        free = capacity - self.states[index].reserved_bytes
        target = 0
        need_total = 0
        for request in batch:
            need = device.kv_reservation_bytes(request.total_tokens)
            if need > capacity:
                raise ValueError(
                    f"request {request.request_id} needs {need} KV bytes "
                    f"({request.length}+{request.output_len} tokens) but device "
                    f"'{device.name}' caps its cache at {capacity}; "
                    "raise kv_cache_bytes or bound the output-length distribution"
                )
            if need_total + need > capacity:
                break
            need_total += need
            target += 1
        taken = target if need_total <= free else 0
        if taken < len(batch):
            self.report.num_kv_stalls += 1
        if taken == 0:
            self._kv_blocked = True
        return taken

    def _release_kv(self, index: int, request: Request) -> None:
        device = self.fleet[index]
        if device.kv_cache_bytes is not None:
            self.states[index].reserved_bytes -= device.kv_reservation_bytes(
                request.total_tokens
            )

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------

    def land(self, planned: PlannedBatch) -> None:
        """Land one prefill: reserve KV, record one-token requests, queue joiners.

        Runs inside :meth:`pump` for every batch, so the next batch's KV
        admission sees this batch's reservation.
        """
        index, start = planned.device_index, planned.start_time
        device, state = self.fleet[index], self.states[index]
        capacity = device.kv_cache_bytes
        if capacity is None and not self._decode_run:
            # Every request completes at prefill and reserves nothing.
            DispatchCore.land(self, planned)
            return
        ledger = self.report.ledger
        row = ledger.add_batch(planned.dispatch_time, start, index, planned.batch_id)
        done, done_at = [], []
        joined = False
        for request, offset in zip(planned.requests, planned.execution.completion_offsets):
            first_token = start + offset
            if capacity is not None:
                nbytes = device.kv_reservation_bytes(request.total_tokens)
                state.reserved_bytes += nbytes
                state.kv_peak_bytes = max(state.kv_peak_bytes, state.reserved_bytes)
            if request.output_len == 1:
                # Prefill produced the only token: the request completes
                # here, and its KV frees at completion.
                done.append(request)
                done_at.append(first_token)
                if capacity is not None:
                    heapq.heappush(state.release_heap, (first_token, nbytes))
                    self._releases += 1
            else:
                state.joiners.append(_RunningRequest(request, row, ready_time=first_token))
                self._decoding += 1
                joined = True
        ledger.extend(row, done, done_at)
        if joined:
            # Timsort keeps this cheap: only the new batch is out of order.
            state.joiners.sort(key=lambda j: (j.ready_time, j.request.request_id))
        if state.joiners and not state.step_members:
            state.wake = state.joiners[0].ready_time

    # ------------------------------------------------------------------
    # Decode steps
    # ------------------------------------------------------------------

    def _finish_step(self, index: int, step_end: float) -> None:
        state = self.states[index]
        still_running: list[_RunningRequest] = []
        for member in state.step_members:
            member.generated += 1
            state.decode_tokens += 1
            if member.done:
                self.report.ledger.extend(
                    member.batch_row, [member.request], [step_end], [member.ready_time]
                )
                self._decoding -= 1
                if self.iteration_level:
                    self._release_kv(index, member.request)
                else:
                    state.gang_done.append(member)
            else:
                still_running.append(member)
        state.running = still_running
        state.step_members = []
        if not self.iteration_level and not state.running and state.gang_done:
            # Request-level batching: the gang's KV frees only once every
            # member has finished.
            for member in state.gang_done:
                self._release_kv(index, member.request)
            state.gang_done = []

    def _start_step(self, index: int, now: float) -> None:
        """Join due joiners and start a step on an idle device; refresh its wake."""
        state = self.states[index]
        device = self.fleet[index]
        joiners = state.joiners
        # Join: iteration-level admits at any step boundary; request-level
        # only into an empty (fully drained) batch.
        if joiners and (self.iteration_level or not state.running):
            slots = len(joiners)
            if device.max_batch_size is not None:
                slots = min(slots, device.max_batch_size - len(state.running))
            due = now + _EPS
            joining = 0
            while joining < slots and joiners[joining].ready_time <= due:
                joining += 1
            state.running.extend(joiners[:joining])
            del joiners[:joining]
        if not state.running:
            state.wake = joiners[0].ready_time if joiners else math.inf
            return
        contexts = [member.context_length for member in state.running]
        latency = device.decode_step_latency_seconds(contexts)
        start = device.next_start(now)
        # A step admits nothing until it ends: book the window directly.
        device.book_interval(start, start + latency)
        state.step_members = list(state.running)
        state.wake = start + latency
        state.num_steps += 1

    # ------------------------------------------------------------------
    # Event-loop hooks
    # ------------------------------------------------------------------

    def pump(self, now: float, draining: bool = False) -> list[PlannedBatch]:
        due = now + _EPS
        visit = self._decoding > 0 or self._releases > 0
        if visit:
            for index, state in enumerate(self.states):
                if state.release_heap and state.release_heap[0][0] <= due:
                    self._drain_kv_releases(index, now)
                if state.step_members and state.wake <= due:
                    self._finish_step(index, state.wake)
        self._kv_blocked = False
        planned = DispatchCore.pump(self, now, draining)
        if visit or self._decoding:
            for index, state in enumerate(self.states):
                # Only an idle device with members or a due joiner can start
                # a step.  A step that just ended left its due end as the
                # wake (a prefill landing since sets the idle wake itself),
                # so that device restarts or refreshes its wake here.
                if not state.step_members and (state.running or state.wake <= due):
                    self._start_step(index, now)
        return planned

    def next_action_time(self, now: float) -> float | None:
        timer = self.batch_policy.next_action_time(self.queue, now)
        if not (self._decoding or self._releases):
            return timer
        # While a prefill waits for KV, a due policy timer would only
        # re-form the refused batch: wait for a decode event instead.
        if timer is None or (self._kv_blocked and timer <= now + _EPS):
            timer = math.inf
        for state in self.states:
            if state.wake < timer:
                timer = state.wake
            if state.release_heap and state.release_heap[0][0] < timer:
                timer = state.release_heap[0][0]
        return None if math.isinf(timer) else timer

    def busy(self) -> bool:
        """Whether requests past prefill still need decode events."""
        return self._decoding > 0


def simulate_online(
    devices: Accelerator | Device | Sequence[Accelerator | Device],
    dataset: DatasetConfig | str,
    arrivals: ArrivalProcess | Sequence[Request],
    num_requests: int | None = None,
    options: ServingOptions | None = None,
    **knobs,
) -> OnlineServingReport:
    """Run the event-driven serving simulation.

    Parameters
    ----------
    devices:
        One device or a fleet.  Entries are :class:`~repro.devices.Device`
        instances (cycle-accurate or analytical, freely mixed) or raw
        :class:`~repro.hardware.accelerator.Accelerator` objects, which are
        wrapped with the options' ``scheduler``.  Every device keeps its own
        backlog.
    dataset:
        Table 1 dataset whose length distribution the stream follows.
    arrivals:
        An arrival process (generates ``num_requests`` requests with ``seed``)
        or an explicit pre-built request list (``num_requests`` is ignored).
        ``num_requests`` is required for generative processes;
        :class:`~repro.serving.arrivals.TraceArrivals` replays its full trace
        when ``num_requests`` is omitted.
    options:
        The run's knobs, a :class:`~repro.serving.options.ServingOptions`
        (its fields document each one).  ``**knobs`` builds one instead
        (``simulate_online(fleet, "mrpc", arrivals, 64, slo=...)``); passing
        both is an error.

    A device built with ``kv_cache_bytes`` gates every prefill on its
    cache: a request reserves its ``total_tokens`` until it completes.

    Per-device admission limits (``Device.max_batch_size`` /
    ``Device.max_batch_tokens``) are enforced here: a batch routed to a
    device that cannot admit it whole is split at the device's admissible
    prefix and the remainder returns to the front of the formation queue
    (counted in ``num_limit_splits``).
    """
    options = ServingOptions.resolve(options, knobs)
    decoding = options.output_lengths is not None
    header, distribution = {}, None
    if decoding:
        if isinstance(arrivals, ArrivalProcess):
            from ..decode.output_lengths import get_output_lengths

            distribution = get_output_lengths(options.output_lengths)
        header = {
            "iteration_level": options.iteration_level,
            "output_lengths": distribution.name if distribution is not None else "explicit",
        }
    session = open_session(
        DecodeServingReport if decoding else OnlineServingReport,
        devices,
        dataset,
        lambda dataset: prepare_stream(
            dataset, arrivals, num_requests, options.seed, options.slo, distribution
        ),
        options,
        **header,
    )
    fleet, report, requests = session.fleet, session.report, session.requests
    if decoding:
        for device in fleet:
            if not device.supports_decode():
                raise ValueError(
                    f"device '{device.name}' ({device.backend}) has no decode cost "
                    "model (kv_bytes_per_token / kv_read_bandwidth); it cannot "
                    "serve decoder workloads"
                )
    elif not isinstance(arrivals, ArrivalProcess) and any(r.output_len > 1 for r in requests):
        raise ValueError("a request generates several tokens: pass output_lengths")
    if options.hedging and any(device.kv_cache_bytes is not None for device in fleet):
        raise ValueError("hedging is refused on a KV-capped fleet: a hedge copy skips KV admission")
    options.check_pool(len(fleet))
    injector = _as_fault_injector(options.faults, len(fleet), options.seed)
    crashes = None
    if injector is not None:
        for index, device in enumerate(fleet):
            device.bind_fault_timeline(injector.timeline(index))
        report.faults = injector.describe()
        crashes = CrashLedger(report, injector.replay, options.max_retries, options.retry_backoff_s)

    # The devices the routers see: the whole fleet when static, or the
    # currently-online prefix of the pool when autoscaled.  The list object
    # is shared with the dispatch core and mutated in place, so routers
    # (which read ``len(fleet)`` at select time) always see the live pool,
    # and ``device_index`` is always the pool index.
    autoscaling = options.autoscaler is not None
    active: list[Device] = list(fleet[: options.initial_pool]) if autoscaling else fleet

    # The simulator is one driver of the shared dispatch core (the live
    # gateway in repro.live is the other): it feeds arrivals from the
    # pre-generated stream and finalizes batches at dispatch time
    # (auto_finalize) because completion offsets are fully determined there.
    core = _SimCore(session, active, fault_injector=injector)
    _run_events(session, core, crashes)
    if decoding:
        report.decode_devices = [
            {
                "device": index,
                "num_decode_steps": state.num_steps,
                "decode_tokens": state.decode_tokens,
                "kv_cache_bytes": device.kv_cache_bytes,
                "kv_peak_bytes": (
                    state.kv_peak_bytes if device.kv_cache_bytes is not None else None
                ),
            }
            for index, (device, state) in enumerate(zip(fleet, core.states))
        ]
    session.finish(
        active=[
            summary.num_batches > 0 or state.num_steps > 0
            for summary, state in zip(report.devices, core.states)
        ]
    )
    return report


def _run_events(
    session: ServingSession, core: _SimCore, crashes: CrashLedger | None = None
) -> None:
    """The simulator's event loop: drive ``core`` on a :class:`SimClock`.

    Owns the requeue heap for crashed requests (``crashes`` decides their
    fate) and the autoscaled pool (``core.fleet``, a prefix of
    ``session.fleet`` grown and shrunk in place, driven by the session
    options' autoscaler), and folds pool billing, fault downtime and
    blacklist time into the report at the end.  The core adds its decode
    events through ``next_action_time`` and stays alive past the last
    dispatch through ``busy``.
    """
    fleet, report, requests = session.fleet, session.report, session.requests
    batch_policy, active = core.batch_policy, core.fleet
    options = session.options
    autoscaler = options.autoscaler
    if isinstance(autoscaler, str):
        autoscaler = get_autoscaler(autoscaler)
    autoscaling = autoscaler is not None
    provisioning_lag_s = options.provisioning_lag_s
    autoscale_interval_s = options.autoscale_interval_s
    min_devices = options.min_devices
    clock = SimClock()
    next_index = 0
    total = len(requests)

    #: Min-heap of (re-offer time, tiebreak, request) for crashed requests.
    requeue: list[tuple[float, int, Request]] = []
    requeue_seq = 0

    # ------------------------------------------------------------------
    # Autoscaling state (pool billing, provisioning lag, decision cadence)
    # ------------------------------------------------------------------
    online_since: dict[int, float] = {}
    online_seconds: dict[int, float] = {}
    billed_until: dict[int, float] = {}
    pending_online: list[float] = []
    next_decision = autoscale_interval_s
    arrivals_in_window = 0
    stall_signature: tuple | None = None
    stall_steps = 0
    if autoscaling:
        report.autoscaler = autoscaler.name
        report.provisioning_lag_s = provisioning_lag_s
        # Per-decision counts, read from the rows appended since the last.
        window = _DecisionWindow(report.ledger, report.shed_requests)
        for index in range(len(active)):
            online_since[index] = 0.0
        report.scaling_timeline.append((0.0, len(active)))

    def _activate(now: float) -> None:
        index = len(active)
        active.append(fleet[index])
        # A re-activated device may still be billed through its previous
        # drain interval; never bill the same instant twice.
        online_since[index] = max(now, billed_until.get(index, 0.0))

    def _deactivate(now: float) -> None:
        index = len(active) - 1
        device = active.pop()
        # Routing stops now, but billing runs until in-flight work drains.
        off = max(now, device.pending_until, online_since[index])
        online_seconds[index] = (
            online_seconds.get(index, 0.0) + off - online_since.pop(index)
        )
        billed_until[index] = off

    def _decide(now: float) -> None:
        nonlocal arrivals_in_window
        span = max(now - window.start, _EPS)
        served, on_time, shed, not_started = window.advance(now)
        resolved = served + shed
        observation = ScaleObservation(
            now=now,
            # Overload lives in the waiting-to-start population: the central
            # formation queue plus requests cut into batches that are still
            # stuck behind a device's backlog (the pump drains the former
            # into the latter at every event, so the queue alone understates
            # load).
            queue_depth=len(core.queue) + not_started,
            active_devices=len(active),
            provisioned_devices=len(active) + len(pending_online),
            min_devices=min_devices,
            max_devices=len(fleet),
            recent_attainment=on_time / resolved if resolved else None,
            recent_offered_qps=arrivals_in_window / span,
        )
        desired = max(min_devices, min(int(autoscaler.decide(observation)), len(fleet)))
        provisioned = len(active) + len(pending_online)
        while provisioned < desired:
            # The lag is constant and `now` non-decreasing, so appending
            # keeps the pending list sorted.
            pending_online.append(now + provisioning_lag_s)
            provisioned += 1
        shrank = False
        while provisioned > desired:
            if pending_online:
                pending_online.pop()  # cancel not-yet-online capacity first
            elif len(active) > min_devices:
                _deactivate(now)
                shrank = True
            else:
                break
            provisioned -= 1
        if shrank:
            report.scaling_timeline.append((now, len(active)))
        arrivals_in_window = 0

    def _apply_scaling(now: float) -> None:
        nonlocal next_decision
        while True:
            if pending_online and pending_online[0] <= now + _EPS:
                pending_online.pop(0)
                _activate(now)
                report.scaling_timeline.append((now, len(active)))
                continue
            if next_decision <= now + _EPS:
                next_decision += autoscale_interval_s
                _decide(now)
                continue
            break

    while next_index < total or core.queue or requeue or core.busy():
        now = clock.now()
        if autoscaling:
            _apply_scaling(now)
        if requeue and requeue[0][0] <= now + _EPS:
            # Crashed requests rejoin at the *front* of the formation queue
            # (they arrived before anything still waiting there), exactly
            # where the live gateway's supervisor requeues a lost batch.
            due: list[Request] = []
            while requeue and requeue[0][0] <= now + _EPS:
                due.append(heapq.heappop(requeue)[2])
            core.queue[:0] = due
        while next_index < total and requests[next_index].arrival_time <= now + _EPS:
            core.offer(requests[next_index], now)
            arrivals_in_window += 1
            next_index += 1
        core.note_queue_depth(now)

        draining = next_index >= total
        planned = core.pump(now, draining)
        if crashes is not None:
            for plan in planned:
                if not plan.crashed:
                    continue
                # Crashed requests rejoin through the ledger's replay/retry
                # decision, or are shed there once their budget is spent.
                for request in plan.requests:
                    due = crashes.recover(request, plan.crash_time, plan.device_index)
                    if due is not None:
                        heapq.heappush(requeue, (due, requeue_seq, request))
                        requeue_seq += 1

        if next_index >= total and not core.queue and not requeue and not core.busy():
            break
        next_event = requests[next_index].arrival_time if next_index < total else math.inf
        deadline = core.next_action_time(now)
        if deadline is not None:
            next_event = min(next_event, deadline)
        if requeue:
            next_event = min(next_event, requeue[0][0])
        if autoscaling:
            if math.isinf(next_event):
                # Scaling events alone cannot drain a stranded queue; detect
                # a policy that never forms another batch while decisions
                # keep the event stream alive, instead of spinning forever.
                signature = (
                    len(report.ledger),
                    len(report.shed_requests),
                    len(active),
                    len(pending_online),
                )
                if signature == stall_signature:
                    stall_steps += 1
                else:
                    stall_signature, stall_steps = signature, 0
                if stall_steps > 1000:
                    raise RuntimeError(
                        f"batch policy '{batch_policy.name}' left "
                        f"{len(core.queue)} requests stranded"
                    )
            next_event = min(next_event, next_decision)
            if pending_online:
                next_event = min(next_event, pending_online[0])
        if math.isinf(next_event):
            raise RuntimeError(
                f"batch policy '{batch_policy.name}' left {len(core.queue)} requests stranded"
            )
        requeue_due = bool(requeue) and requeue[0][0] <= now + _EPS
        if next_event <= now + _EPS and draining and not requeue_due and not core.busy():
            raise RuntimeError(f"batch policy '{batch_policy.name}' is not making progress")
        clock.advance_to(next_event)

    horizon = report.makespan_seconds
    if autoscaling:
        # Close every open billing interval at the later of the run's end and
        # the device's own drain instant, then land the totals on the report.
        for index in list(online_since):
            device = fleet[index]
            off = max(horizon, device.pending_until, online_since[index])
            online_seconds[index] = (
                online_seconds.get(index, 0.0) + off - online_since.pop(index)
            )
        for index, summary in enumerate(report.devices):
            summary.online_seconds = online_seconds.get(index, 0.0)
    injector = core.fault_injector
    if injector is not None:
        for index, summary in enumerate(report.devices):
            summary.downtime_s = injector.timeline(index).downtime_before(horizon)
        blacklisted = getattr(core.router, "blacklisted_seconds", None)
        if blacklisted is not None:
            for index, summary in enumerate(report.devices):
                summary.blacklisted_s = blacklisted(index, horizon)
