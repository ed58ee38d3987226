"""Per-device actors: the execution half of the live gateway.

Each device in the fleet gets one :class:`DeviceActor` -- an asyncio worker
coroutine fed planned batches through a queue, plus a supervisor that
restarts the worker when it crashes.  The worker *is* the device: it sleeps
through the cost model's predicted ``batch_latency_seconds`` (and, for
decode requests on decode-capable backends, through every predicted decode
step) and then finalizes the batch on the gateway, which is the only point
at which records enter the report.

Supervision contract:

* a worker crash (any exception, including the test-only injected faults)
  increments ``restarts``, hands the in-flight batch back to the gateway --
  which requeues its requests **exactly once** and releases the batch's
  KV-cache reservation -- and restarts the worker on the same queue;
* :meth:`DeviceActor.abort` interrupts the in-flight sleep (graceful
  shutdown with ``abort_in_flight=True``) through the same requeue path;
* :meth:`DeviceActor.stop` enqueues a stop sentinel, so the worker drains
  every batch already queued before exiting -- the graceful half of
  shutdown.

Fault injection (``fail_next_batches``, ``fail_on_pickups``,
``fail_after_decode_steps``) exists so the supervision tree is testable --
and the crash-scenario sim-vs-live contract reproducible -- without
monkeypatching asyncio; the knobs are one-shot and unused in production
paths.  ``fail_on_pickups`` crashes the worker when its monotonic pickup
counter hits a cue, which is how the live half of a scripted fault schedule
is pinned to a specific batch.
"""

from __future__ import annotations

import asyncio

from ..serving.core import PlannedBatch

__all__ = ["DeviceActor"]

#: Queue sentinel: the worker exits after draining everything ahead of it.
_STOP = object()


class _Aborted(Exception):
    """The gateway interrupted this worker's in-flight batch."""


class DeviceActor:
    """One device's worker + supervisor inside the live gateway."""

    def __init__(self, gateway, device_index: int) -> None:
        self.gateway = gateway
        self.device_index = device_index
        self.device = gateway.fleet[device_index]
        self.queue: asyncio.Queue = asyncio.Queue()
        self.in_flight: PlannedBatch | None = None
        #: Times the supervisor restarted a crashed worker.
        self.restarts = 0
        #: Batches this worker has picked up (monotonic across restarts).
        self.pickups = 0
        #: Fault injection: crash the worker on pickup of the next N batches.
        self.fail_next_batches = 0
        #: Fault injection: crash the worker when its pickup counter hits one
        #: of these values (1-based; each cue fires once).  This is the
        #: deterministic "crash on cue" the crash-scenario validation trace
        #: uses to mirror the simulator's scripted fault schedule.
        self.fail_on_pickups: set[int] = set()
        #: Fault injection: crash after this many decode steps of the next
        #: decode batch (one-shot; None = never).
        self.fail_after_decode_steps: int | None = None
        self._abort = asyncio.Event()
        self._supervisor: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._supervisor = asyncio.create_task(self._supervise())

    def put(self, planned: PlannedBatch) -> None:
        self.queue.put_nowait(planned)

    def abort(self) -> None:
        """Interrupt the in-flight batch (it will be requeued, not lost)."""
        if self.in_flight is not None:
            self._abort.set()

    async def stop(self) -> None:
        """Drain the queue, then stop the worker and its supervisor."""
        self.queue.put_nowait(_STOP)
        if self._supervisor is not None:
            await self._supervisor

    @property
    def pending(self) -> bool:
        """Whether this actor still holds work (queued or in flight)."""
        return self.in_flight is not None or not self.queue.empty()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    async def _supervise(self) -> None:
        while True:
            try:
                await self._run()
                return
            except asyncio.CancelledError:
                raise
            except _Aborted:
                self._abort.clear()
                self._hand_back(crashed=False)
            except Exception:
                self.restarts += 1
                self._hand_back(crashed=True)

    def _hand_back(self, crashed: bool) -> None:
        planned = self.in_flight
        self.in_flight = None
        if planned is not None:
            self.gateway._requeue(planned, crashed=crashed)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    async def _sleep(self, seconds: float) -> None:
        """Sleep that an :meth:`abort` can interrupt."""
        if self._abort.is_set():
            raise _Aborted
        if seconds <= 0:
            return
        try:
            await asyncio.wait_for(self._abort.wait(), timeout=seconds)
        except asyncio.TimeoutError:
            return
        raise _Aborted

    async def _run(self) -> None:
        while True:
            item = await self.queue.get()
            if item is _STOP:
                return
            if self.gateway._hedge_cancelled(item):
                # The hedge mirror on another device already won this batch
                # while it sat in our queue; drop it without executing.
                continue
            self.in_flight = item
            self.pickups += 1
            if self.fail_next_batches > 0:
                self.fail_next_batches -= 1
                raise RuntimeError("injected fault: worker crashed before execution")
            if self.pickups in self.fail_on_pickups:
                self.fail_on_pickups.discard(self.pickups)
                raise RuntimeError("injected fault: worker crashed on cue")
            # Sleep until the cost model says the batch has drained.  The
            # predicted start already accounts for the device's backlog
            # (DispatchCore used Device.next_start at dispatch), so actors
            # never busy-wait on each other.
            await self._sleep(self.gateway.clock.seconds_until(item.end_time))
            await self._decode_phase(item)
            self.in_flight = None
            self.gateway._finalize(item)

    async def _decode_phase(self, planned: PlannedBatch) -> None:
        """Gang-decode the batch's autoregressive requests, one step at a time.

        Mirrors the simulator's iteration-level decode in miniature:
        every step generates one token for each still-running request at the
        cost model's ``decode_step_latency_seconds`` for the current context
        set.  Completion offsets are extended in place, so the finalized
        records carry last-token completion times.  Encoder-only batches (or
        devices with no decode model) skip this entirely -- which is why the
        sim-vs-live validation contract is encoder-only.
        """
        running = {
            position: request
            for position, request in enumerate(planned.requests)
            if request.output_len > 1
        }
        if not running or not self.device.supports_decode():
            return
        contexts = {pos: req.length + 1 for pos, req in running.items()}
        remaining = {pos: req.output_len - 1 for pos, req in running.items()}
        elapsed = 0.0
        step = 0
        while remaining:
            order = sorted(remaining)
            step_latency = self.device.decode_step_latency_seconds(
                [contexts[pos] for pos in order]
            )
            await self._sleep(step_latency)
            if (
                self.fail_after_decode_steps is not None
                and step >= self.fail_after_decode_steps
            ):
                self.fail_after_decode_steps = None
                raise RuntimeError("injected fault: worker crashed during a decode step")
            elapsed += step_latency
            for pos in order:
                contexts[pos] += 1
                remaining[pos] -= 1
                if remaining[pos] == 0:
                    del remaining[pos]
                    planned.execution.completion_offsets[pos] = (
                        planned.execution.latency_seconds + elapsed
                    )
            step += 1
