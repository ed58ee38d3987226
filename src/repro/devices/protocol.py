"""The unified cost-model protocol every serving backend implements.

The paper's evaluation spans platforms that the repo historically modeled
through two incompatible interfaces: the cycle-accurate
:class:`~repro.hardware.accelerator.Accelerator` (per-stage latencies in
cycles, driven by a batch scheduler) and the analytical
:class:`~repro.platforms.base.AnalyticalPlatform` (dense FLOPs over a
sustained-throughput roofline).  :class:`Device` is the single surface the
serving engine, routers, and evaluation harnesses talk to instead:

* ``batch_latency_seconds(lengths)`` -- batch service time;
* ``energy_joules(lengths)`` -- batch energy, or ``None`` when the backend
  has no power model;
* ``occupancy(now)`` -- how full the device is at a wall-clock instant
  (0 idle .. 1 cannot admit a batch), a gauge for plug-in routers/admission
  policies and reports (the built-in router reads backlogs through
  ``next_start``, and built-in admission control counts waiting requests);
* ``describe()`` -- a JSON-ready self-description for reports;
* ``max_batch_size`` / ``max_batch_tokens`` -- per-device admission limits
  (requests / total tokens per batch, ``None`` = unlimited) the serving
  engine enforces through :meth:`Device.admissible_prefix`.

A backend implements :meth:`Device.execute`, returning one
:class:`BatchExecution` -- latency, per-request completion offsets, and the
*admission interval* after which the device's entry stage is free again.
The admission interval is what enables device-level continuous batching: a
coarse pipeline can accept the next batch as soon as its first stage has
drained (``admit_seconds``), while an instruction-driven platform serializes
batches (``admit_seconds == latency_seconds``).  The base class layers the
serving-state bookkeeping (backlog clocks, busy-interval accounting) on top
of that single method, so adapters stay pure cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..config import DECODE_STEP_OVERHEAD_S as _DECODE_STEP_OVERHEAD_S

__all__ = ["BatchExecution", "Device"]

#: Slack when validating float bookkeeping (admission never exceeds latency).
_EPS = 1e-9


@dataclass
class BatchExecution:
    """One batch run through a device's cost model.

    ``completion_offsets[i]`` is the time after batch start at which the
    ``i``-th request of the batch completes; ``admit_seconds`` is the time
    after batch start at which the device can admit the *next* batch (its
    entry stage is free), which equals ``latency_seconds`` on backends with
    no internal pipeline.
    """

    device: str
    lengths: list[int]
    latency_seconds: float
    completion_offsets: list[float]
    admit_seconds: float
    #: Mean internal stage utilization, when the backend simulates stages.
    utilization: float | None = None
    #: Batch energy, when the backend has a power model.
    energy_joules: float | None = None

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("a batch execution needs at least one request")
        if len(self.completion_offsets) != len(self.lengths):
            raise ValueError("one completion offset per request is required")
        if self.latency_seconds <= 0:
            raise ValueError("latency_seconds must be > 0")
        if not 0 < self.admit_seconds <= self.latency_seconds + _EPS:
            raise ValueError("admit_seconds must be in (0, latency_seconds]")
        if self.energy_joules is not None and self.energy_joules < 0:
            raise ValueError("energy_joules must be >= 0")

    @property
    def makespan_seconds(self) -> float:
        """Alias kept for symmetry with :class:`ScheduleResult`."""
        return self.latency_seconds


class Device:
    """Base class: one serving backend behind the unified cost-model protocol.

    Subclasses implement :meth:`execute`; everything else -- latency/energy
    convenience queries and the serving-state clocks the engine and routers
    read -- is shared here.  The serving state models two instants per
    device:

    * ``admit`` -- when the entry stage frees up (next batch may start if
      device-level continuous batching is enabled);
    * ``drain`` -- when the whole pipeline has drained (next batch may start
      in the legacy block-per-batch mode).

    Continuous batching admits optimistically at ``admit``: the new batch's
    internal schedule is computed in isolation, so contention between a
    draining batch's tail stages and the admitted batch's head stages is
    approximated by the entry-stage constraint alone.
    """

    name: str = "device"
    backend: str = "abstract"

    def __init__(
        self,
        max_batch_size: int | None = None,
        max_batch_tokens: int | None = None,
        kv_cache_bytes: int | None = None,
        price_per_hour_usd: float | None = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1 (or None for no limit)")
        if max_batch_tokens is not None and max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1 (or None for no limit)")
        if kv_cache_bytes is not None and kv_cache_bytes < 1:
            raise ValueError("kv_cache_bytes must be >= 1 (or None for no limit)")
        if price_per_hour_usd is not None and price_per_hour_usd < 0:
            raise ValueError("price_per_hour_usd must be >= 0 (or None when unpriced)")
        #: Per-device admission limits the serving engine enforces: at most
        #: ``max_batch_size`` requests and ``max_batch_tokens`` total tokens
        #: per dispatched batch (None = unlimited).  A heterogeneous fleet
        #: can cap a memory-bound board without capping the whole system.
        self.max_batch_size = max_batch_size
        self.max_batch_tokens = max_batch_tokens
        #: KV-cache capacity (bytes) for decoder workloads; the decode engine
        #: admits requests token-by-token against this budget (None = no cap).
        self.kv_cache_bytes = kv_cache_bytes
        #: Rental price of this device (USD per hour of *online* time); the
        #: capacity planner and the autoscaled engine turn it into dollar
        #: cost per run.  ``None`` = unpriced (cost accounting skips it).
        self.price_per_hour_usd = price_per_hour_usd
        self.reset()

    def admissible_prefix(self, lengths: Sequence[int]) -> int:
        """Largest batch prefix this device's limits admit (always >= 1).

        The engine dispatches ``lengths[:n]`` and returns the remainder to
        the formation queue.  A single request above ``max_batch_tokens``
        still dispatches alone (the token limit bounds batch aggregation,
        not request size), exactly like a max-length sequence on a padded
        backend.
        """
        limit = len(lengths)
        if self.max_batch_size is not None:
            limit = min(limit, self.max_batch_size)
        if self.max_batch_tokens is not None:
            total = 0
            for index, length in enumerate(lengths[:limit]):
                total += int(length)
                if total > self.max_batch_tokens and index > 0:
                    limit = index
                    break
        return max(limit, 1)

    def batch_limits(self) -> dict:
        """JSON-ready admission-limit metadata (merged into ``describe()``)."""
        return {
            "max_batch_size": self.max_batch_size,
            "max_batch_tokens": self.max_batch_tokens,
            "kv_cache_bytes": self.kv_cache_bytes,
        }

    # ------------------------------------------------------------------
    # Cost-model queries (pure)
    # ------------------------------------------------------------------

    def execute(self, lengths: Sequence[int]) -> BatchExecution:
        """Run the cost model for one batch of sequence lengths."""
        raise NotImplementedError

    def batch_latency_seconds(self, lengths: Sequence[int]) -> float:
        """Service time of one batch, in seconds."""
        return self.execute(lengths).latency_seconds

    def energy_joules(self, lengths: Sequence[int]) -> float | None:
        """Energy of one batch, or ``None`` when the backend has no power model."""
        return self.execute(lengths).energy_joules

    def describe(self) -> dict:
        """JSON-ready self-description (reports, ``repro list`` output)."""
        return {
            "name": self.name,
            "backend": self.backend,
            "price_per_hour_usd": self.price_per_hour_usd,
            **self.batch_limits(),
        }

    # ------------------------------------------------------------------
    # Two-phase (prefill / decode) cost model
    # ------------------------------------------------------------------

    #: Top-k sparse attention during decode: each step reads at most this many
    #: KV rows per request instead of the full context (None = dense reads).
    decode_top_k: int | None = None

    #: Fixed per-step control overhead (sampling, host round trip).
    decode_step_overhead_s: float = _DECODE_STEP_OVERHEAD_S

    def kv_bytes_per_token(self) -> int | None:
        """KV-cache bytes one token occupies (K and V, all layers).

        ``None`` means the backend carries no decode cost model; the decode
        engine refuses such devices up front.
        """
        return None

    def kv_read_bandwidth(self) -> float | None:
        """Sustained bytes/second at which decode steps stream KV rows."""
        return None

    def kv_reservation_bytes(self, total_tokens: int) -> int | None:
        """KV-cache bytes ``total_tokens`` of context occupy on this backend.

        The decode engine reserves ``kv_reservation_bytes(request.total_tokens)``
        per admitted request and the live gateway tracks the same quantity for
        its in-flight batches (releasing it when a batch finalizes or its
        worker crashes).  ``None`` means the backend has no decode cost model,
        so nothing is reserved.
        """
        per_token = self.kv_bytes_per_token()
        if per_token is None:
            return None
        if total_tokens < 0:
            raise ValueError("total_tokens must be >= 0")
        return int(total_tokens) * per_token

    def decode_compute_seconds(self, batch_size: int) -> float:
        """Compute-side floor of one decode step for ``batch_size`` requests.

        It runs on every decode step, so backends derive it from per-device
        constants computed once: the weight-stream time and the ops per
        request over the peak rate.
        """
        return 0.0

    def supports_decode(self) -> bool:
        """Whether this backend models the decode phase at all."""
        return self.kv_bytes_per_token() is not None and self.kv_read_bandwidth() is not None

    def decode_step_latency_seconds(self, context_lengths: Sequence[int]) -> float:
        """One iteration of the running batch: generate one token per request.

        Each request streams ``min(context, decode_top_k) *
        kv_bytes_per_token()`` of KV rows -- top-k sparse attention reads at
        most the k highest-scoring keys, so a long context costs no more
        bandwidth than a k-token one (the paper's accuracy knob becomes a
        serving-capacity knob) -- on top of the weight-side work of the
        dense stack (``decode_compute_seconds``).  The two are additive:
        within every layer the QKV projection, the KV-reading attention, and
        the FFN form a dependency chain, so the KV stream cannot hide behind
        the weight pass.  A fixed control overhead closes the step.
        """
        top_k = self.decode_top_k
        cap = math.inf if top_k is None else int(top_k)
        batch_size = tokens = 0
        # One pass: validate each context and add its capped KV rows.
        for context in context_lengths:
            context = int(context)
            if context < 1:
                raise ValueError("decode context lengths must be >= 1")
            tokens += context if context < cap else cap
            batch_size += 1
        if not batch_size:
            raise ValueError("a decode step needs at least one running request")
        per_token = self.kv_bytes_per_token()
        bandwidth = self.kv_read_bandwidth()
        if per_token is None or bandwidth is None:
            raise NotImplementedError(
                f"device '{self.name}' ({self.backend}) has no decode cost model"
            )
        read_seconds = per_token * tokens / bandwidth
        compute_seconds = self.decode_compute_seconds(batch_size)
        return read_seconds + compute_seconds + self.decode_step_overhead_s

    @property
    def scheduler_name(self) -> str | None:
        """Name of the batch scheduler, when the backend drives one."""
        return None

    def schedule_cache_stats(self) -> dict | None:
        """Per-run schedule-cache counters, when the backend caches schedules."""
        return None

    # ------------------------------------------------------------------
    # Serving state (the engine resets, dispatches, and reads this)
    # ------------------------------------------------------------------

    def reset(self, continuous_batching: bool = False) -> None:
        """Clear the serving clocks; called once per simulation."""
        self._continuous = bool(continuous_batching)
        self._admit_at = 0.0
        self._drained_at = 0.0
        self._busy_accum = 0.0
        self._span_start = 0.0
        self._span_end = 0.0
        self._fault_timeline = None

    def bind_fault_timeline(self, timeline) -> None:
        """Attach a per-device fault timeline for this serving run.

        A bound :class:`~repro.faults.DeviceFaultTimeline` makes
        :meth:`next_start` outage-aware: a batch cannot start while the
        device is offline, so routers, deadline estimates, and admission
        gates all see crash downtime without any code of their own.
        :meth:`reset` clears the binding (timelines are per-run state).
        """
        self._fault_timeline = timeline

    @property
    def continuous_batching(self) -> bool:
        """Whether the device admits a new batch while the previous drains."""
        return self._continuous

    def next_start(self, now: float) -> float:
        """Earliest time a batch dispatched at ``now`` could start executing.

        With a bound fault timeline the start is additionally pushed past
        any offline window it lands in, so crash downtime delays work the
        same way a backlog does.
        """
        gate = self._admit_at if self._continuous else self._drained_at
        start = max(now, gate)
        if self._fault_timeline is not None:
            start = self._fault_timeline.next_online(start)
        return start

    @property
    def pending_until(self) -> float:
        """When the last dispatched batch fully drains (serving-state clock).

        The autoscaled engine keeps a deprovisioned device billed until this
        instant: scale-down stops new routing immediately, but in-flight work
        still finishes (and still costs device-hours).
        """
        return self._drained_at

    def occupancy(self, now: float) -> float:
        """How full the device is at ``now``: 0 idle, 1 cannot admit a batch.

        The gauge honors the serving discipline set at :meth:`reset`: in
        block-per-batch mode the device is fully occupied until the pipeline
        drains; under continuous batching it decays linearly once the entry
        stage frees (later stages still draining), so a plug-in router or
        admission policy can distinguish "can take a batch now" from "fully
        idle".
        """
        if now >= self._drained_at:
            return 0.0
        gate = self._admit_at if self._continuous else self._drained_at
        if now < gate:
            return 1.0
        span = self._drained_at - self._admit_at
        if span <= 0:
            return 1.0
        return min(max((self._drained_at - now) / span, 0.0), 1.0)

    def dispatch(self, execution: BatchExecution, start: float) -> None:
        """Record that ``execution`` starts on this device at ``start``."""
        self.book_interval(
            start,
            start + execution.latency_seconds,
            admit_at=start + execution.admit_seconds,
        )

    def book_interval(self, start: float, end: float, admit_at: float | None = None) -> None:
        """Low-level booking: occupy ``[start, end]`` on the serving clocks.

        :meth:`dispatch` is this with the execution's own latency and
        admission interval; failure-aware engines also book partial windows
        directly -- a cancelled hedge mirror occupies its device only until
        the winning copy completed, not for the full predicted execution.
        ``admit_at`` defaults to ``end`` (no overlapped admission).
        """
        if end < start:
            raise ValueError("book_interval end must be >= start")
        self._admit_at = max(self._admit_at, admit_at if admit_at is not None else end)
        self._drained_at = max(self._drained_at, end)
        # Merged busy-interval accounting: overlapping admissions must not be
        # double-counted in the duty cycle.
        if start > self._span_end:
            self._busy_accum += self._span_end - self._span_start
            self._span_start = start
            self._span_end = end
        else:
            self._span_end = max(self._span_end, end)

    def busy_seconds(self) -> float:
        """Total time with at least one batch in flight (merged intervals)."""
        return self._busy_accum + (self._span_end - self._span_start)

    def served_energy_joules(self) -> float | None:
        """Energy attributable to the work dispatched since the last reset.

        Power-modeled devices charge their power over the *merged* busy
        intervals, so overlapping admissions (device-level continuous
        batching) are not double-counted the way summing per-batch
        ``energy_joules`` would.  Returns ``None`` when the backend has no
        power model; backends whose energy is not power x time should
        override this.
        """
        power = getattr(self, "power_watts", None)
        if power is None:
            return None
        return power * self.busy_seconds()
