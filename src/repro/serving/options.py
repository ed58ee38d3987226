"""The serving knobs every driver and experiment shares, checked once.

:class:`ServingOptions` is the one declaration of what a serving run can be
asked to do -- batch formation, routing, admission, deadlines, elastic
pools, fault injection and decode -- and its ``__post_init__`` is the one
place those knobs are range-checked.  :func:`~repro.serving.simulate_online`
and :class:`~repro.live.LiveGateway` take one (or build one from their
keywords), pass it through :func:`~repro.serving.core.open_session` to the
dispatch core and the event loop, and the experiment configs build theirs
from their own (millisecond) fields, so a bad knob fails the same way
whichever entry point it came through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .. import config as global_config

if TYPE_CHECKING:
    from .policies import BatchPolicy
    from .routing import Router
    from .slo import SLOSpec

__all__ = ["ServingOptions"]


@dataclass(frozen=True)
class ServingOptions:
    """The knobs of one serving run (simulated or live); checked on construction."""

    #: Batch-formation policy; defaults to a fixed batch of 16.
    batch_policy: BatchPolicy | None = None
    #: Fleet routing policy; defaults to least-loaded.
    router: Router | None = None
    #: Batch scheduler used when wrapping raw accelerators; defaults to the
    #: length-aware scheduler.  Device instances keep their own scheduler.
    scheduler: Any = None
    #: Drives both arrival times and sequence lengths; the whole simulation
    #: is deterministic given the seed.
    seed: int = global_config.DEFAULT_SEED
    #: Enable device-level continuous batching: a device admits the next
    #: batch as soon as its entry stage frees (instead of blocking until the
    #: whole pipeline drains).
    continuous_batching: bool = False
    #: Admission control: an arrival is shed (dropped) when this many
    #: requests are already waiting to start service -- in the central
    #: formation queue or cut into a batch that has not reached its device
    #: yet.  Shed traffic is reported via ``num_shed`` / ``shed_rate``.
    #: ``None`` disables shedding.
    max_queue_depth: int | None = None
    #: Deadline assignment: every generated request without a deadline gets
    #: ``arrival + base_s + per_token_s * length``
    #: (:class:`~repro.serving.slo.SLOSpec`).  Requests that already carry
    #: deadlines (explicit streams, traces) keep them.  Deadline attainment
    #: and goodput are then reported via ``attainment_rate`` /
    #: ``goodput_qps`` whether or not the batch policy is deadline-aware.
    slo: SLOSpec | None = None
    #: Deadline-aware admission at *arrival*: shed a request at enqueue
    #: time when no device's earliest start plus its single-request
    #: service estimate could meet the deadline (a provable miss -- the
    #: arrival-time sibling of the EDF batcher's late shedding).  Reported
    #: via ``num_shed_predicted`` and counted against attainment.
    shed_on_predicted_miss: bool = False
    #: Per-class admission control: ``{class name: max queued}``.  An
    #: arrival whose class already has that many members in the formation
    #: queue is shed (counted in ``num_shed`` and charged to its class in
    #: the per-class summaries).  Classes without an entry are unbounded;
    #: ``None`` disables the check entirely.
    class_queue_limits: dict[str, int] | None = None
    #: Turn the fleet into an elastic *pool*: a registered policy name
    #: (``"queue-depth"``, ``"predicted-attainment"``) or an
    #: :class:`~repro.serving.autoscaler.Autoscaler` instance is consulted
    #: every ``autoscale_interval_s`` simulated seconds with a
    #: :class:`~repro.serving.autoscaler.ScaleObservation` and answers with
    #: the desired provisioned-device count, clamped to
    #: ``[min_devices, len(devices)]``.  Scale-ups come online
    #: ``provisioning_lag_s`` seconds after the decision; scale-downs stop
    #: routing immediately but bill until their in-flight work drains.
    #: ``initial_devices`` sets the starting pool (default
    #: ``min_devices``); both pool-size knobs are rejected without an
    #: autoscaler.  Billing lands in each device's
    #: ``online_seconds`` and the report's ``cost_usd`` /
    #: ``scaling_timeline``.  ``None`` (default) keeps the fleet static.
    #: With a deadline-aware arrival gate (``shed_on_predicted_miss``),
    #: the gate's device snapshot is the *initial* pool.
    autoscaler: Any = None
    provisioning_lag_s: float = 0.0
    autoscale_interval_s: float = 1.0
    min_devices: int = 1
    initial_devices: int | None = None
    #: Fault injection: a registered schedule name (``"crash-restart"``,
    #: ``"straggler"``, ``"thermal-throttle"``, ``"scripted"``; ``"a+b"``
    #: composes), a :class:`~repro.faults.FaultSchedule` (or sequence of
    #: either), or a prebuilt :class:`~repro.faults.FaultInjector`.  Each
    #: device gets a deterministic health timeline seeded from ``seed`` on
    #: a dedicated RNG stream, so the fault-free run is byte-identical
    #: whether or not the machinery is attached.  Crashed batches are lost
    #: and their requests replayed once (per the schedule's ``replay``
    #: knob, mirroring the live supervision tree), then retried with
    #: exponential backoff up to ``max_retries``, then shed
    #: (``num_shed_crashed``).  ``None`` (default) injects nothing.
    faults: Any = None
    #: Cross-device request hedging: every batch is mirrored on the best
    #: other device; the first completion wins and the loser's device time
    #: is released at the winner's completion.  A no-op on single-device
    #: fleets; refused on a fleet with a KV-capped device, because a hedge
    #: copy would skip KV admission.
    hedging: bool = False
    #: Crash-retry budget per request *after* the free replay (exponential
    #: backoff, base ``retry_backoff_s``).  ``0`` (default) sheds on the
    #: second crash, exactly like the live gateway's requeue-once.
    max_retries: int = 0
    #: Base backoff before a crash retry; retry ``k`` waits
    #: ``retry_backoff_s * 2**(k-1)`` after the crash.
    retry_backoff_s: float = 0.05
    #: Make this a decode run (see :mod:`repro.decode.engine`), returning a
    #: :class:`~repro.serving.engine.DecodeServingReport`: a registered
    #: ``output-length`` distribution name, a distribution instance or an
    #: int (a fixed length) stamps each generated request's ``output_len``;
    #: an explicit request list keeps its own.  Every device must carry a
    #: decode cost model, and ``autoscaler``, ``faults`` and ``hedging`` are
    #: refused.  ``None`` (default) is an encoder run: every request
    #: generates one token.
    output_lengths: Any = None
    #: Decode runs: requests join the running batch at any decode step
    #: (``True``, default) or only once the whole batch has drained
    #: (``False``, request-level gang admission).
    iteration_level: bool = True

    def __post_init__(self) -> None:
        if self.output_lengths is not None:
            # What a crash, a hedge or a scale-down means mid-decode is not modelled yet.
            for knob in ("autoscaler", "faults", "hedging"):
                if getattr(self, knob) not in (None, False):
                    raise ValueError(f"{knob} is not modelled for decode runs (output_lengths)")
        if not isinstance(self.iteration_level, bool):
            raise TypeError(f"iteration_level must be a bool, got {self.iteration_level!r}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None to disable shedding)")
        if not math.isfinite(self.provisioning_lag_s) or self.provisioning_lag_s < 0:
            raise ValueError("provisioning_lag_s must be finite and >= 0")
        if not math.isfinite(self.autoscale_interval_s) or self.autoscale_interval_s <= 0:
            raise ValueError("autoscale_interval_s must be finite and > 0")
        self.check_pool()
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not math.isfinite(self.retry_backoff_s) or self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be finite and >= 0")

    @classmethod
    def resolve(cls, options: ServingOptions | None, knobs: dict) -> ServingOptions:
        """``options``, or the options ``knobs`` spell out; passing both is an error."""
        if options is None:
            return cls(**knobs)
        if knobs:
            raise TypeError(f"pass options or keyword knobs, not both (got {sorted(knobs)})")
        return options

    @property
    def initial_pool(self) -> int:
        """Devices online at t=0 of an autoscaled run."""
        return self.min_devices if self.initial_devices is None else int(self.initial_devices)

    def check_pool(self, pool_size: int | None = None) -> None:
        """Check the pool-size knobs against a pool of ``pool_size`` devices.

        Without an autoscaler both knobs must keep their defaults; with one,
        ``1 <= min_devices <= initial_devices <= pool_size``.  ``None`` (the
        pool is not known yet) checks everything but the upper bound.
        """
        if self.autoscaler is None:
            if self.initial_devices is not None or self.min_devices != 1:
                knob = "initial_devices" if self.initial_devices is not None else "min_devices"
                raise ValueError(f"{knob} sizes an elastic pool and needs an autoscaler")
            return
        bound = math.inf if pool_size is None else pool_size
        size = "pool size" if pool_size is None else f"pool size {pool_size}"
        if not 1 <= self.min_devices <= bound:
            raise ValueError(f"min_devices must be in [1, {size}], got {self.min_devices}")
        if not self.min_devices <= self.initial_pool <= bound:
            raise ValueError(
                f"initial_devices must be in [min_devices, {size}], got {self.initial_pool}"
            )
