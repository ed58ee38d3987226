"""Iteration-level continuous batching for autoregressive decode workloads.

:func:`simulate_decode_online` generalizes the encoder engine
(:func:`~repro.serving.engine.simulate_online`) to two-phase requests:

* **Prefill** runs through the *identical* dispatch path as an encoder
  batch -- batch policy, router, per-device admission limits, the device's
  own ``execute`` cost model -- and produces the request's first token
  (TTFT = prefill completion).  The engine is a
  :class:`~repro.serving.core.DispatchCore` subclass driven by the encoder
  simulator's own event loop; it adds only KV admission, the landing of a
  finished prefill, and the decode steps below.
* **Decode** then generates the remaining ``output_len - 1`` tokens one
  iteration at a time: every step costs
  :meth:`~repro.devices.Device.decode_step_latency_seconds` over the running
  batch's context lengths (KV bytes read per step), and requests *join the
  running batch at any step boundary* after their prefill finishes and leave
  the instant they complete -- vLLM/Orca-style iteration-level continuous
  batching.  ``iteration_level=False`` degrades to the classic request-level
  (gang) baseline: a batch decodes to full completion before anyone joins,
  early finishers hold their KV and slots until the gang drains.

**KV-cache capacity is a first-class device resource**: a device built with
``kv_cache_bytes`` admits prefills token-by-token against its cache
occupancy -- each request reserves ``Device.kv_reservation_bytes`` of its
``total_tokens`` (prompt plus every token it will generate), and releases it
on completion (gang end in request-level mode).  A batch that
does not fit waits for releases; a request that could never fit an empty
cache raises immediately.

With every ``output_len == 1`` there is no decode phase, no joiner, and no
KV event: the loop's trajectory is the encoder engine's, record for record
-- the property tests pin this reduction down exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import config as global_config
from ..devices import Device
from ..hardware.accelerator import Accelerator
from ..transformer.configs import DatasetConfig
from ..serving.arrivals import ArrivalProcess
from ..serving.core import _EPS, DispatchCore, PlannedBatch, open_session, prepare_stream
from ..serving.engine import OnlineServingReport, _run_events
from ..serving.policies import BatchPolicy
from ..serving.request import Request
from ..serving.routing import Router
from ..serving.slo import SLOSpec, assign_deadlines
from .output_lengths import (
    OutputLengthDistribution,
    as_decode_requests,
    generate_decode_requests,
    get_output_lengths,
)
from .request import DecodeRequest, DecodeRequestRecord

# The end-of-run fold lives in ``ServingSession.finish``; these names stay
# importable here because perfbench/tracing.py wraps them by module attribute.
from ..serving.classes import collect_class_stats  # noqa: F401
from ..serving.core import collect_device_stats  # noqa: F401

__all__ = ["DecodeServingReport", "simulate_decode_online"]


@dataclass
class _RunningRequest:
    """One request past prefill, decoding on (or waiting to join) a device."""

    request: DecodeRequest
    #: The prefill batch that produced the first token.
    prefill: PlannedBatch
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

    def record(self, completion_time: float) -> DecodeRequestRecord:
        return DecodeRequestRecord(
            request=self.request,
            dispatch_time=self.prefill.dispatch_time,
            start_time=self.prefill.start_time,
            completion_time=completion_time,
            device_index=self.prefill.device_index,
            batch_id=self.prefill.batch_id,
            first_token_time=self.ready_time,
        )


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


@dataclass
class DecodeServingReport(OnlineServingReport):
    """Results of one decode serving simulation.

    Extends the encoder report with the decode phase's metrics: TTFT and
    inter-token latency percentiles, token goodput, per-device decode-step
    and KV-occupancy accounting, and the admission mode that produced them.
    """

    iteration_level: bool = True
    output_lengths: str | None = None
    #: Prefill dispatches deferred or split because KV reservations did not
    #: fit the selected device's cache at that instant.
    num_kv_stalls: int = 0
    #: Per-device decode accounting: steps, generated tokens, KV peak/cap.
    decode_devices: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Token accounting
    # ------------------------------------------------------------------

    @property
    def total_output_tokens(self) -> int:
        """Tokens generated across all completed requests."""
        return int(sum(getattr(r, "num_output_tokens", 1) for r in self.records))

    @property
    def sustained_tokens_per_second(self) -> float:
        """Generated tokens per second of simulated time (token goodput)."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_seconds

    # ------------------------------------------------------------------
    # TTFT / inter-token latency
    # ------------------------------------------------------------------

    def ttft_percentile(self, percentile: float) -> float:
        """Time-to-first-token percentile in seconds."""
        if not self.records:
            raise ValueError("no requests were served")
        return float(np.percentile(self._metric_array("ttft"), percentile))

    def _inter_token_values(self, warmup_fraction: float = 0.0) -> np.ndarray:
        records = self.steady_records(warmup_fraction)
        return np.array(
            [
                r.inter_token_latency
                for r in records
                if getattr(r, "inter_token_latency", None) is not None
            ],
            dtype=np.float64,
        )

    def inter_token_percentile(self, percentile: float) -> float | None:
        """Per-token decode latency percentile in seconds (None when the
        stream generated no tokens past prefill)."""
        values = self._inter_token_values()
        if values.size == 0:
            return None
        return float(np.percentile(values, percentile))

    def steady_ttft_percentile(
        self, percentile: float, warmup_fraction: float = 0.0
    ) -> float:
        """TTFT percentile over the post-warm-up records."""
        values = np.array(
            [r.ttft for r in self.steady_records(warmup_fraction)], dtype=np.float64
        )
        if values.size == 0:
            raise ValueError("no requests were served")
        return float(np.percentile(values, percentile))

    @property
    def num_decode_steps(self) -> int:
        """Decode iterations executed across the fleet."""
        return int(sum(d["num_decode_steps"] for d in self.decode_devices))

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
                "ttft_ms": {
                    "p50": self.ttft_percentile(50) * 1e3,
                    "p95": self.ttft_percentile(95) * 1e3,
                },
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
        row["ttft_p50_ms"] = round(self.ttft_percentile(50) * 1e3, 2)
        itl = self.inter_token_percentile(50)
        row["itl_p50_ms"] = round(itl * 1e3, 3) if itl is not None else None
        row["tok_per_s"] = round(self.sustained_tokens_per_second, 1)
        return row


class _DecodeCore(DispatchCore):
    """The dispatch core plus KV admission, prefill landing and decode steps.

    Prefill takes the base dispatch path unchanged; :meth:`admit` adds KV
    admission, :meth:`finalize` lands a prefill, :meth:`pump` wraps
    formation in the decode steps, and :meth:`next_action_time` /
    :meth:`busy` feed the decode events to the shared event loop.
    """

    def __init__(self, *args, iteration_level: bool, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.iteration_level = iteration_level
        self.states = [_DeviceDecodeState() for _ in self.fleet]
        #: A prefill was refused for KV at this instant: the policy timer
        #: must not pull the loop back to ``now`` until something frees.
        self._kv_blocked = False

    # ------------------------------------------------------------------
    # KV cache
    # ------------------------------------------------------------------

    def _drain_kv_releases(self, index: int, now: float) -> None:
        state = self.states[index]
        while state.release_heap and state.release_heap[0][0] <= now + _EPS:
            _, nbytes = heapq.heappop(state.release_heap)
            state.reserved_bytes -= nbytes

    def admit(self, index: int, batch: list[DecodeRequest], now: float) -> int:
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

    def _release_kv(self, index: int, request: DecodeRequest) -> None:
        device = self.fleet[index]
        if device.kv_cache_bytes is not None:
            self.states[index].reserved_bytes -= device.kv_reservation_bytes(
                request.total_tokens
            )

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------

    def finalize(self, planned: PlannedBatch) -> None:
        """Land one prefill: reserve KV, record one-token requests, queue joiners.

        Runs inside :meth:`pump` for every batch, so the next batch's KV
        admission sees this batch's reservation.
        """
        device = self.fleet[planned.device_index]
        state = self.states[planned.device_index]
        for position, request in enumerate(planned.requests):
            first_token = planned.start_time + planned.execution.completion_offsets[position]
            if device.kv_cache_bytes is not None:
                nbytes = device.kv_reservation_bytes(request.total_tokens)
                state.reserved_bytes += nbytes
                state.kv_peak_bytes = max(state.kv_peak_bytes, state.reserved_bytes)
            member = _RunningRequest(request, planned, ready_time=first_token)
            if request.output_len == 1:
                # Prefill produced the only token: the request completes as
                # an encoder request would, and its KV frees at completion.
                self.report.records.append(member.record(first_token))
                if device.kv_cache_bytes is not None:
                    heapq.heappush(state.release_heap, (first_token, nbytes))
            else:
                state.joiners.append(member)
        # Timsort keeps this cheap: only the new batch is out of order.
        state.joiners.sort(key=lambda j: (j.ready_time, j.request.request_id))
        if not state.step_members and state.joiners:
            state.wake = state.joiners[0].ready_time
        self.book_batch(planned)

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
                self.report.records.append(member.record(step_end))
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
        for index, state in enumerate(self.states):
            if state.release_heap and state.release_heap[0][0] <= due:
                self._drain_kv_releases(index, now)
            if state.step_members and state.wake <= due:
                self._finish_step(index, state.wake)
        self._kv_blocked = False
        planned = super().pump(now, draining)
        for index, state in enumerate(self.states):
            # Only an idle device with members or a due joiner can start a
            # step.  A step that just ended left its due end as the wake (a
            # prefill landing since sets the idle wake itself), so that
            # device restarts or refreshes its wake here.
            if not state.step_members and (state.running or state.wake <= due):
                self._start_step(index, now)
        return planned

    def next_action_time(self, now: float) -> float | None:
        timer = super().next_action_time(now)
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
        return any(s.wake < math.inf for s in self.states)


def simulate_decode_online(
    devices: Accelerator | Device | Sequence[Accelerator | Device],
    dataset: DatasetConfig | str,
    arrivals: ArrivalProcess | Sequence[Request],
    num_requests: int | None = None,
    output_lengths: OutputLengthDistribution | str | int = "geometric",
    batch_policy: BatchPolicy | None = None,
    router: Router | None = None,
    scheduler=None,
    seed: int = global_config.DEFAULT_SEED,
    continuous_batching: bool = False,
    max_queue_depth: int | None = None,
    slo: SLOSpec | None = None,
    iteration_level: bool = True,
    shed_on_predicted_miss: bool = False,
    class_queue_limits: dict[str, int] | None = None,
) -> DecodeServingReport:
    """Run the two-phase (prefill/decode) serving simulation.

    Parameters mirror :func:`~repro.serving.engine.simulate_online`; the
    decode-specific ones:

    output_lengths:
        How many tokens each generated request produces: a registered
        ``output-length`` distribution name (``"fixed"``, ``"uniform"``,
        ``"geometric"``), a distribution instance, or an int shorthand for a
        fixed length.  Ignored when ``arrivals`` is an explicit request list
        (those carry their own ``output_len``; plain requests mean 1).
    iteration_level:
        ``True`` (default): requests join the running batch at any decode
        step after prefill and leave on completion.  ``False``: request-level
        (gang) admission -- the running batch decodes to full completion
        before anyone joins, and early finishers hold KV and slots until the
        gang drains.  The default strictly dominates at saturation; the knob
        exists to measure by how much.

    Every device must carry a decode cost model
    (:meth:`~repro.devices.Device.supports_decode`); devices built with
    ``kv_cache_bytes`` enforce token-level KV admission as described in the
    module docstring.
    """
    if not isinstance(iteration_level, bool):
        raise TypeError(f"iteration_level must be a bool, got {iteration_level!r}")
    generative = isinstance(arrivals, ArrivalProcess)
    distribution = get_output_lengths(output_lengths) if generative else None

    def stream(dataset: DatasetConfig):
        if not generative:
            requests, arrival_name, offered_qps = prepare_stream(
                dataset, arrivals, num_requests, seed, slo
            )
            return as_decode_requests(requests), arrival_name, offered_qps
        requests = generate_decode_requests(dataset, arrivals, num_requests, distribution, seed)
        if not requests:
            raise ValueError("the arrival stream is empty")
        if slo is not None:
            requests = assign_deadlines(requests, slo)
        return requests, arrivals.name, arrivals.rate_qps

    session = open_session(
        DecodeServingReport,
        devices,
        dataset,
        stream,
        scheduler=scheduler,
        batch_policy=batch_policy,
        router=router,
        continuous_batching=continuous_batching,
        max_queue_depth=max_queue_depth,
        slo=slo,
        iteration_level=iteration_level,
        output_lengths=distribution.name if generative else "explicit",
    )
    fleet, report = session.fleet, session.report
    for device in fleet:
        if not device.supports_decode():
            raise ValueError(
                f"device '{device.name}' ({device.backend}) has no decode cost "
                "model (kv_bytes_per_token / kv_read_bandwidth); it cannot "
                "serve decoder workloads"
            )

    core = _DecodeCore(
        fleet,
        report,
        session.batch_policy,
        session.router,
        max_queue_depth=max_queue_depth,
        shed_on_predicted_miss=shed_on_predicted_miss,
        class_queue_limits=class_queue_limits,
        iteration_level=iteration_level,
    )
    _run_events(session, core)

    for index, device in enumerate(fleet):
        state = core.states[index]
        report.decode_devices.append(
            {
                "device": index,
                "num_decode_steps": state.num_steps,
                "decode_tokens": state.decode_tokens,
                "kv_cache_bytes": device.kv_cache_bytes,
                "kv_peak_bytes": (
                    state.kv_peak_bytes if device.kv_cache_bytes is not None else None
                ),
            }
        )
    session.finish(
        active=[
            report.devices[i].num_batches > 0 or core.states[i].num_steps > 0
            for i in range(len(fleet))
        ]
    )
    return report
