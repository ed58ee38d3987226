"""The live serving gateway: the wall-clock driver of the dispatch core.

:class:`LiveGateway` is the second driver of
:class:`repro.serving.core.DispatchCore` (the simulator's
:func:`~repro.serving.engine.simulate_online` is the first).  It runs the
*same* registered batch policies, routers, admission control, and SLO
machinery over the same report type -- the only differences are who owns time
and who finalizes batches:

* time is a :class:`WallClock` (re-based to 0 at first ingest so a replayed
  trace's timestamps share the simulator's axis);
* arrivals come from :meth:`submit` (HTTP ingest, trace replay, tests)
  instead of a pre-generated stream;
* batch formation runs in an asyncio dispatcher task that wakes on ingest,
  on batch completion, and on the policy's own timers;
* each planned batch is executed by a per-device :class:`~repro.live.actors.
  DeviceActor` that sleeps through the cost model's predicted latency and
  only then finalizes -- so ``/stats`` never counts a batch that did not
  actually finish, and a crashed worker's batch can be requeued without ever
  having touched the report.

Because both drivers share the dispatch core, a trace replayed through the
gateway and through ``simulate_online`` agrees on attainment, goodput, and
shed accounting up to wall-clock jitter (see :mod:`repro.live.validation`
for the checked-in contract).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, fields

from ..devices import Device
from ..serving.classes import get_request_class
from ..serving.core import CrashLedger, DispatchCore, PlannedBatch, open_session
from ..serving.options import ServingOptions
from ..serving.request import Request, RequestRecord
from ..transformer.configs import DatasetConfig
from .actors import DeviceActor

__all__ = ["LiveGateway", "SubmitResult", "WallClock"]

#: Options a wall-clock gateway does not model: no seeded stream, no elastic
#: pool, no injected faults (a worker crash is requeued exactly once, like
#: the simulator at ``max_retries=0``) and no decode scheduler of its own.
_UNMODELLED_OPTIONS = (
    "seed", "autoscaler", "provisioning_lag_s", "autoscale_interval_s", "min_devices",
    "initial_devices", "faults", "max_retries", "retry_backoff_s", "output_lengths",
    "iteration_level",
)
_DEFAULTS = {f.name: f.default for f in fields(ServingOptions)}

#: Poll interval while draining (the dispatcher is event-driven; this only
#: bounds how quickly shutdown notices that the last actor went idle).
_DRAIN_POLL_S = 0.005


class WallClock:
    """The OS monotonic clock, re-based to 0 at construction and by :meth:`rebase`.

    The gateway rebases at first ingest, so a replayed trace's timestamps
    line up with the simulator's (whose first arrival defines t=0) instead
    of carrying the gateway's startup delay.
    """

    def __init__(self) -> None:
        self.rebase()

    def rebase(self) -> None:
        """Restart ``now()`` at 0."""
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def seconds_until(self, instant: float) -> float:
        """Seconds from now until ``instant`` on this clock (>= 0)."""
        return max(instant - self.now(), 0.0)


@dataclass
class SubmitResult:
    """Outcome of one ingest attempt.

    ``status`` is the dispatch core's admission verdict (``"queued"``,
    ``"shed"``, ``"shed-predicted"``) or ``"draining"`` when the gateway is
    shutting down and refuses new work; ``request`` is the stamped request
    object for admitted *and* shed arrivals (None only when draining).
    """

    status: str
    request: Request | None

    @property
    def accepted(self) -> bool:
        return self.status == "queued"


class LiveGateway:
    """An asyncio serving gateway over a fleet of catalog devices.

    Construction mirrors :func:`~repro.serving.engine.simulate_online`:
    any :class:`~repro.devices.Device` fleet and a
    :class:`~repro.serving.options.ServingOptions` (or its keywords) -- any
    registered batch policy and router, bounded-queue and per-class
    admission control, deadline assignment (``slo``), deadline-aware arrival
    shedding, continuous batching and hedging.  The options it does not
    model (``seed``, the autoscaler and its pool knobs, ``faults``, crash
    retries, ``output_lengths`` and ``iteration_level``) are refused by name
    when set away from their defaults.  Lifecycle::

        gateway = LiveGateway(build_fleet(("gpu-rtx6000",)), "mrpc")
        await gateway.start()
        result = gateway.submit(length=64, slo_ms=100.0)
        record = await gateway.wait_for(result.request.request_id)
        stats = await gateway.shutdown()          # drains, then final stats

    The gateway is single-event-loop: ``submit`` is synchronous and must be
    called from the loop that ran :meth:`start` (the HTTP front end in
    :mod:`repro.live.http` does exactly that).
    """

    def __init__(
        self,
        devices,
        dataset: DatasetConfig | str = "mrpc",
        options: ServingOptions | None = None,
        *,
        rebase_on_first_ingest: bool = True,
        **knobs,
    ) -> None:
        options = ServingOptions.resolve(options, knobs)
        unmodelled = [
            name for name in _UNMODELLED_OPTIONS if getattr(options, name) != _DEFAULTS[name]
        ]
        if unmodelled:
            raise ValueError(f"the live gateway does not model {', '.join(unmodelled)}")
        self.session = session = open_session(
            devices, dataset, lambda dataset: ([], "live", None), options
        )
        fleet = session.fleet
        self.fleet: list[Device] = fleet
        self.dataset = session.dataset
        self.slo = options.slo
        self.rebase_on_first_ingest = rebase_on_first_ingest
        self.report = session.report
        # The gateway finalizes batches itself (auto_finalize=False): records
        # land only after the device actor has slept through the execution.
        self.core = DispatchCore(session, auto_finalize=False)
        self.clock = WallClock()
        self.actors = [DeviceActor(self, index) for index in range(len(fleet))]
        #: Bytes of KV cache currently reserved by in-flight batches, per
        #: device (observational; released at finalize or worker crash).
        self.kv_reserved_bytes = [0] * len(fleet)
        self._kv_in_flight: dict[int, tuple[int, int]] = {}
        self._requeued_batches: set[int] = set()
        #: Cross-device request hedging (first completion wins; the losing
        #: copy is aborted or dropped at pickup).  A no-op on 1-device fleets.
        self.hedging = options.hedging and len(fleet) > 1
        #: Hedge linkage: each live copy's batch_id -> its peer's batch_id.
        #: A copy's entry is removed when that copy dies or is cancelled, so
        #: "my peer's entry still exists" means the peer may still win.
        self._hedge_peer: dict[int, int] = {}
        #: batch_ids of mirror (secondary) hedge copies, for num_hedge_wins.
        self._hedge_mirrors: set[int] = set()
        #: Losing hedge copies: cancelled, never finalized, never requeued.
        self._hedge_discarded: set[int] = set()
        #: Crash replay/shed decisions: the first crash replays a request
        #: (requeue-exactly-once), the second sheds it (``num_shed_crashed``).
        self._crashes = CrashLedger(self.report, replay=True, max_retries=0)
        self._next_request_id = 0
        self._ingested_any = False
        self._started = False
        self._draining = False
        self._stopped = False
        self._wake = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None
        self._waiters: dict[int, asyncio.Future] = {}
        self._done: dict[int, RequestRecord] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher task and every device actor."""
        if self._started:
            raise RuntimeError("gateway already started")
        self._started = True
        for actor in self.actors:
            actor.start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    @property
    def draining(self) -> bool:
        return self._draining

    async def shutdown(self, abort_in_flight: bool = False) -> dict:
        """Drain and stop the gateway; returns the final :meth:`stats`.

        Graceful by default: ingest is refused immediately (``"draining"``),
        the formation queue is flushed (the policy sees ``draining=True``,
        exactly like the simulator at end-of-stream), and every in-flight
        batch runs to completion.  With ``abort_in_flight`` the in-flight
        batches are interrupted instead: each is requeued exactly once, cut
        into fresh batches, and served during the drain -- no request is
        lost and none is recorded twice.
        """
        if self._stopped:
            return self.stats()
        self._draining = True
        if abort_in_flight:
            for actor in self.actors:
                actor.abort()
        self._wake.set()
        while self.core.queue or any(actor.pending for actor in self.actors):
            self._wake.set()
            await asyncio.sleep(_DRAIN_POLL_S)
        self._stopped = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        await asyncio.gather(*(actor.stop() for actor in self.actors))
        self.session.finish()
        return self.stats()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def submit(
        self,
        length: int,
        *,
        output_len: int = 1,
        slo_ms: float | None = None,
        request_class: str | None = None,
    ) -> SubmitResult:
        """Offer one request to the dispatch core at the current wall time.

        ``output_len > 1`` makes it a decode request (the device actor runs
        decode steps after prefill on decode-capable backends); ``slo_ms``
        stamps an explicit relative deadline, else the request's class SLO
        (``request_class``, a registered ``request-class`` name), else the
        gateway-level :class:`~repro.serving.slo.SLOSpec` applies (if any).
        """
        cls = get_request_class(request_class) if request_class is not None else None
        if not self._started or self._draining:
            return SubmitResult(status="draining", request=None)
        if not self._ingested_any:
            self._ingested_any = True
            if self.rebase_on_first_ingest:
                # A replayed trace's first arrival defines t=0 in the
                # simulator; re-basing here removes the gateway's startup
                # delay from every wall-clock timestamp so the two reports
                # share one axis.
                self.clock.rebase()
        now = self.clock.now()
        request_id = self._next_request_id
        self._next_request_id += 1
        spec = cls.slo if cls is not None and cls.slo is not None else self.slo
        if slo_ms is not None:
            deadline = now + slo_ms / 1e3
        elif spec is not None:
            deadline = now + spec.budget_seconds(length, output_len)
        else:
            deadline = None
        request = Request(
            request_id=request_id,
            length=length,
            arrival_time=now,
            deadline=deadline,
            request_class=cls.name if cls is not None else None,
            output_len=output_len,
        )
        self.report.num_requests += 1
        status = self.core.offer(request, now)
        self.core.note_queue_depth(now)
        if status == "queued":
            self._wake.set()
        return SubmitResult(status=status, request=request)

    async def wait_for(self, request_id: int) -> RequestRecord:
        """Await the completion record of an admitted request."""
        record = self._done.get(request_id)
        if record is not None:
            return record
        future = self._waiters.get(request_id)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            self._waiters[request_id] = future
        return await future

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Pump the core on ingest, completions, and the policy's timers."""
        while True:
            self._wake.clear()
            now = self.clock.now()
            for planned in self.core.pump(now, self._draining):
                self._reserve_kv(planned)
                mirror = self._plan_hedge_mirror(planned, now) if self.hedging else None
                self.actors[planned.device_index].put(planned)
                if mirror is not None:
                    self._reserve_kv(mirror)
                    self.actors[mirror.device_index].put(mirror)
            deadline = self.core.next_action_time(self.clock.now())
            if deadline is None:
                await self._wake.wait()
                continue
            delay = self.clock.seconds_until(deadline)
            if delay <= 0:
                # The policy's timer is due but it formed nothing this round
                # (sub-millisecond scheduling skew); yield briefly instead of
                # spinning the loop hot.
                await asyncio.sleep(0.001)
                continue
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------

    def _plan_hedge_mirror(self, primary: PlannedBatch, now: float) -> PlannedBatch | None:
        """Mirror ``primary`` on the best other device (first completion wins).

        The mirror is a full second copy: it gets its own batch_id, books
        the mirror device's serving clocks, and runs on that device's actor.
        Whichever copy finalizes first wins; the loser is aborted (or
        dropped at pickup) and never touches the report.  Unlike the
        simulator -- which knows the winner at dispatch and books the loser
        only up to the winner's completion -- the live loser's booking
        stands in full: a wall-clock worker cannot un-sleep, so the device
        clocks stay conservative.  ``None`` when no other device admits the
        whole batch.
        """
        mirror = self.core.plan_mirror(primary, now)
        if mirror is None:
            return None
        # Both live copies are tracked in flight, so the mirror needs an id
        # of its own.
        mirror.batch_id = mirror_id = self.core.new_batch_id()
        self.fleet[mirror.device_index].dispatch(mirror.execution, mirror.start_time)
        self._hedge_peer[primary.batch_id] = mirror_id
        self._hedge_peer[mirror_id] = primary.batch_id
        self._hedge_mirrors.add(mirror_id)
        return mirror

    def _hedge_cancelled(self, planned: PlannedBatch) -> bool:
        """Actor pickup check: was this copy's peer already finalized?"""
        if planned.batch_id in self._hedge_discarded:
            self._release_kv(planned)
            return True
        return False

    # ------------------------------------------------------------------
    # Actor callbacks (finalize / requeue) and KV accounting
    # ------------------------------------------------------------------

    def _reserve_kv(self, planned: PlannedBatch) -> None:
        device = self.fleet[planned.device_index]
        if device.kv_cache_bytes is None:
            return
        total_tokens = sum(request.total_tokens for request in planned.requests)
        reserved = device.kv_reservation_bytes(total_tokens)
        if reserved is None:
            return
        self._kv_in_flight[planned.batch_id] = (planned.device_index, reserved)
        self.kv_reserved_bytes[planned.device_index] += reserved

    def _release_kv(self, planned: PlannedBatch) -> None:
        entry = self._kv_in_flight.pop(planned.batch_id, None)
        if entry is not None:
            index, reserved = entry
            self.kv_reserved_bytes[index] -= reserved

    def _finalize(self, planned: PlannedBatch) -> None:
        """A device actor finished a batch: land its records and wake waiters."""
        if planned.batch_id in self._hedge_discarded:
            # The peer copy finalized in the same tick; this one lost.
            self._release_kv(planned)
            return
        peer_id = self._hedge_peer.pop(planned.batch_id, None)
        if peer_id is not None:
            if self._hedge_peer.pop(peer_id, None) is not None:
                # First completion wins: cancel the still-live losing copy
                # (aborted mid-sleep, or dropped when its actor picks it up).
                self._hedge_discarded.add(peer_id)
                for actor in self.actors:
                    flight = actor.in_flight
                    if flight is not None and flight.batch_id == peer_id:
                        actor.abort()
                        break
            if planned.batch_id in self._hedge_mirrors:
                self._hedge_mirrors.discard(planned.batch_id)
                self.report.num_hedge_wins += 1
        self._release_kv(planned)
        self.core.finalize(planned)
        ledger = self.report.ledger
        for row in range(len(ledger) - len(planned.requests), len(ledger)):
            record = ledger.record(row)
            request_id = record.request.request_id
            self._done[request_id] = record
            future = self._waiters.pop(request_id, None)
            if future is not None and not future.done():
                future.set_result(record)
        self._wake.set()

    def _requeue(self, planned: PlannedBatch, crashed: bool = False) -> None:
        """Return a crashed/aborted batch's requests to the queue, exactly once.

        The batch never finalized, so nothing about it is in the report; its
        requests rejoin the *front* of the formation queue (they arrived
        before anything still waiting there) and will be cut into fresh
        batches.  The ``batch_id`` guard makes a double failure report
        (supervisor crash handling racing an explicit abort) a no-op.

        ``crashed`` batches (supervisor-visible worker deaths, as opposed to
        explicit aborts) also feed the report's fault accounting: the crash
        is counted against the device, each request is replayed exactly once
        (``num_replayed``), and a request whose *replacement* batch crashes
        again is shed (``num_shed_crashed``) instead of looping -- the live
        twin of the simulator's replay/retry budget at ``max_retries=0``.
        A crashed copy of a hedged batch requeues nothing while its peer is
        still running (the peer may yet win); only the death of the last
        copy releases the requests, once per group.

        The device's time booking for the crashed batch deliberately stands:
        the cost model cannot know how much of the batch actually ran before
        the failure, so the conservative choice is to treat the whole window
        as lost and re-dispatch the requeued requests behind it.
        """
        self._release_kv(planned)
        if planned.batch_id in self._hedge_discarded:
            return  # losing hedge copy: already cancelled, nothing to requeue
        if planned.batch_id in self._requeued_batches:
            return
        self._requeued_batches.add(planned.batch_id)
        if crashed:
            self.report.num_crashes += 1
            self.report.devices[planned.device_index].num_crashes += 1
        peer_id = self._hedge_peer.pop(planned.batch_id, None)
        if peer_id is not None and peer_id in self._hedge_peer:
            return  # the other hedge copy is still running and may win
        if crashed:
            survivors = []
            now = self.clock.now()
            for request in planned.requests:
                if self._crashes.recover(request, now, planned.device_index) is not None:
                    survivors.append(request)
                else:
                    future = self._waiters.pop(request.request_id, None)
                    if future is not None and not future.done():
                        future.set_exception(
                            RuntimeError(
                                f"request {request.request_id} shed after "
                                "repeated worker crashes"
                            )
                        )
        else:
            survivors = list(planned.requests)
        if survivors:
            self.core.queue[:0] = survivors
        self.core.note_queue_depth(self.clock.now())
        self._wake.set()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The report's ``to_dict()`` plus a ``"live"`` block of gateway state.

        Exactly the metrics the simulator reports -- this is what the
        sim-vs-live validation compares -- with live-only extras: uptime,
        drain state, worker restarts, in-flight batch count, and the KV bytes
        currently reserved per device.  The key set is the same before and
        after the first completion.
        """
        self.session.refresh()
        payload = self.report.to_dict()
        payload["live"] = {
            "uptime_seconds": self.clock.now(),
            "draining": self._draining,
            "stopped": self._stopped,
            "queue_depth": len(self.core.queue),
            "in_flight_batches": sum(
                1 for actor in self.actors if actor.in_flight is not None
            ),
            "worker_restarts": [actor.restarts for actor in self.actors],
            "worker_pickups": [actor.pickups for actor in self.actors],
            "requeued_batches": len(self._requeued_batches),
            "kv_reserved_bytes": list(self.kv_reserved_bytes),
        }
        return payload
