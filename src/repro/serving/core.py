"""The dispatch core shared by the simulator and the live gateway.

Historically :func:`repro.serving.engine.simulate_online` owned the whole
serving loop -- queueing, admission control, batch formation, routing,
per-device limit splits, and all the accounting that ends up in an
:class:`~repro.serving.engine.OnlineServingReport`.  The live gateway
(:mod:`repro.live`) needs the *same* loop driven by a wall clock and real
sockets instead of simulated events, so the loop lives here as
:class:`DispatchCore` and both engines are thin drivers over it:

* the **simulator** feeds arrivals from a pre-generated stream, pumps the
  core at every event instant, and finalizes each planned batch immediately
  (completion times are fully determined at dispatch);
* the **live gateway** feeds arrivals from HTTP ingest, pumps the core from
  an asyncio dispatcher task, and hands each :class:`PlannedBatch` to a
  device actor that sleeps until the predicted completion before finalizing
  (so ``/stats`` only ever counts batches that actually finished).

Because both drivers share this code path -- the same
:class:`~repro.serving.policies.BatchPolicy`, the same
:class:`~repro.serving.routing.Router`, the same admission bookkeeping, the
same report -- a trace replayed through both produces the same attainment /
goodput / shed accounting up to wall-clock jitter, which is the validation
contract the live subsystem is built around.

Everything else the drivers share lives here too, so each driver owns only
its clock loop: :func:`open_session` validates the fleet, binds the policy
and router, resets the devices and builds the report header;
:meth:`ServingSession.finish` is the end-of-run fold; :class:`CrashLedger`
makes the replay / backoff-retry / shed decision for crashed requests.

The core also implements **deadline-aware admission at arrival**
(``shed_on_predicted_miss``): an arriving request is shed immediately when
no device's earliest start plus its single-request service estimate can meet
the request's deadline.  The bound is optimistic (device clocks only move
later; the queue ahead is ignored), so every shed is a provable miss -- the
arrival-time sibling of the EDF batcher's provably-late shedding.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..devices import BatchExecution, CycleAccurateDevice, Device
from ..hardware.accelerator import Accelerator
from ..scheduling.length_aware import LengthAwareScheduler
from ..transformer.configs import DatasetConfig, get_dataset_config
from .arrivals import ArrivalProcess
from .classes import collect_class_stats, get_request_class
from .options import ServingOptions
from .policies import BatchPolicy, FixedSizeBatcher, LengthBucketedBatcher
from .request import Request
from .routing import LeastLoadedRouter, LengthShardedRouter, Router
from .slo import ProvablyLate, SLOSpec

if TYPE_CHECKING:
    from .engine import OnlineServingReport

__all__ = [
    "CrashLedger",
    "DispatchCore",
    "PlannedBatch",
    "ServingSession",
    "collect_device_stats",
    "note_shed",
    "open_session",
    "prepare_stream",
]

#: Tolerance when comparing floating-point event times.
_EPS = 1e-12


def note_shed(report, request: Request, cause: str) -> None:
    """Append one shed request to the report, remembering its cause.

    The cause map (``report.shed_causes``, request_id -> ``"shed"`` /
    ``"shed-predicted"`` / ``"late"`` / ``"crashed"``) is what per-class
    accounting uses to keep the per-cause counters disjoint.
    """
    report.shed_requests.append(request)
    report.shed_causes[request.request_id] = cause


def prepare_stream(
    dataset,
    arrivals: ArrivalProcess | list[Request],
    num_requests: int | None,
    seed: int,
    slo: SLOSpec | None,
    output_lengths=None,
) -> tuple[list[Request], str, float | None]:
    """Materialize the request stream: (requests, arrival name, offered QPS).

    An :class:`~repro.serving.arrivals.ArrivalProcess` generates the stream
    (deterministic in ``seed``) with its output lengths (an
    ``output_lengths`` distribution,
    :class:`~repro.decode.OutputLengthDistribution`) and deadlines (class
    SLOs, then ``slo``) already stamped.  An explicit request list is sorted
    by arrival and keeps its own output lengths and deadlines; a
    deadline-less request gets its registered class's SLO, else ``slo``, as
    :meth:`~repro.live.LiveGateway.submit` stamps it.
    """
    if isinstance(arrivals, ArrivalProcess):
        requests = arrivals.generate(
            dataset, num_requests, seed=seed, slo=slo, output_lengths=output_lengths
        )
        arrival_name = arrivals.name
        offered_qps = arrivals.rate_qps
    else:
        requests = sorted(arrivals, key=lambda r: (r.arrival_time, r.request_id))
        class_slos: dict = {}
        for position, request in enumerate(requests):
            name = request.request_class
            if name is not None and name not in class_slos:
                try:
                    class_slos[name] = get_request_class(name).slo
                except KeyError:  # an unregistered class carries no SLO
                    class_slos[name] = None
            spec = class_slos.get(name) or slo
            if request.deadline is None and spec is not None:
                requests[position] = replace(request, deadline=spec.deadline_for(request))
        arrival_name = "explicit"
        last = requests[-1].arrival_time if requests else 0.0
        offered_qps = len(requests) / last if last > 0 else None
    if not requests:
        raise ValueError("the arrival stream is empty")
    return requests, arrival_name, offered_qps


def _as_fleet(
    devices: Accelerator | Device | Sequence[Accelerator | Device], scheduler
) -> list[Device]:
    """Normalize the fleet argument to Device instances.

    Raw accelerators are wrapped into :class:`CycleAccurateDevice` with the
    given batch scheduler (length-aware by default), preserving the legacy
    ``simulate_online(accelerator, ...)`` call shape; Device instances keep
    the scheduler they were built with.
    """
    if isinstance(devices, (Accelerator, Device)):
        devices = [devices]
    fleet: list[Device] = []
    seen_ids: set[int] = set()
    wrap_scheduler = None
    for entry in devices:
        if isinstance(entry, Device):
            if id(entry) in seen_ids:
                # Serving state lives on the Device (admission/drain clocks),
                # so one instance in two slots would silently serialize the
                # "fleet" and double-count its busy time and energy.
                raise ValueError(
                    f"device '{entry.name}' appears twice in the fleet; build a "
                    "separate instance per slot (e.g. repro.devices.build_fleet "
                    "with replicas=2)"
                )
            seen_ids.add(id(entry))
            fleet.append(entry)
        elif isinstance(entry, Accelerator):
            if wrap_scheduler is None:
                wrap_scheduler = scheduler or LengthAwareScheduler()
            fleet.append(CycleAccurateDevice(entry, scheduler=wrap_scheduler))
        else:
            raise TypeError(
                f"fleet entries must be Device or Accelerator, got {type(entry).__name__}"
            )
    return fleet


def _fleet_scheduler_label(fleet: list[Device]) -> str:
    names = {device.scheduler_name for device in fleet if device.scheduler_name}
    if not names:
        return "n/a"
    if len(names) == 1:
        return next(iter(names))
    return "mixed"


@dataclass
class ServingSession:
    """One run's validated fleet, bound policies, offered stream and report."""

    fleet: list[Device]
    dataset: DatasetConfig
    batch_policy: BatchPolicy
    router: Router
    report: OnlineServingReport
    requests: list[Request]
    options: ServingOptions

    def refresh(self) -> None:
        """Fold device, preemption and class state into the report.

        Idempotent and leaves the record order alone, so a live driver may
        call it mid-run.
        """
        collect_device_stats(self.report, self.fleet)
        preemptions = getattr(self.batch_policy, "num_preemptions", None)
        if preemptions is not None:
            self.report.num_preemptions = preemptions
        collect_class_stats(self.report)

    def finish(self) -> None:
        """The end-of-run fold: ledger rows in completion order, then :meth:`refresh`."""
        self.report.ledger.sort()
        self.refresh()


def open_session(
    devices: Accelerator | Device | Sequence[Accelerator | Device],
    dataset: DatasetConfig | str,
    stream: Callable[[DatasetConfig], tuple[list[Request], str, float | None]],
    options: ServingOptions,
    output_lengths: str | None = None,
) -> ServingSession:
    """The setup every driver shares, up to an empty report.

    Coerces the dataset, builds and validates the fleet, materializes the
    offered stream (``stream(dataset)`` returns the requests, the arrival
    process name and the offered QPS), defaults and fleet-binds the batch
    policy and router of ``options``, resets every device, and builds the
    report header with one :class:`~repro.serving.engine.DeviceSummary` per
    device.  ``output_lengths`` names a decode run's output-length
    distribution (``"explicit"`` for a request list); it is the one source of
    "this is a decode run" for the report, its ledger and the simulator core.
    The session keeps ``options`` for the dispatch core and the event loop.
    """
    from .engine import DeviceSummary, OnlineServingReport  # local import: engine imports core

    if isinstance(dataset, str):
        dataset = get_dataset_config(dataset)
    fleet = _as_fleet(devices, options.scheduler)
    if not fleet:
        raise ValueError("need at least one device")
    requests, arrival_name, offered_qps = stream(dataset)

    batch_policy = options.batch_policy or FixedSizeBatcher()
    router = options.router or LeastLoadedRouter()
    batch_policy.prepare(dataset)
    router.prepare(len(fleet), dataset)
    # SLO-aware policies estimate batch latencies through the fleet's cost
    # models; the hook is a no-op for FIFO policies (and absent on plug-in
    # policies written before it existed).
    bind_fleet = getattr(batch_policy, "bind_fleet", None)
    if bind_fleet is not None:
        bind_fleet(fleet)
    if (
        isinstance(router, LengthShardedRouter)
        and len(fleet) > 1
        and not isinstance(batch_policy, LengthBucketedBatcher)
    ):
        # FIFO-formed batches mix the whole length distribution, so every
        # batch's mean length lands in the same shard and the rest of the
        # fleet idles.
        warnings.warn(
            "length-sharded routing needs length-bucketed batching to spread "
            "batches across devices; with a FIFO batch policy most batches "
            "route to a single shard",
            UserWarning,
            stacklevel=3,
        )
    for device in fleet:
        device.reset(continuous_batching=options.continuous_batching)

    report = OnlineServingReport(
        dataset=dataset.name,
        arrival_process=arrival_name,
        batch_policy=batch_policy.name,
        router=router.name,
        scheduler=_fleet_scheduler_label(fleet),
        offered_qps=offered_qps,
        num_requests=len(requests),
        continuous_batching=options.continuous_batching,
        queue_limit=options.max_queue_depth,
        slo=options.slo.to_dict() if options.slo is not None else None,
        devices=[
            DeviceSummary(
                index=i,
                accelerator=device.name,
                backend=device.backend,
                price_per_hour_usd=getattr(device, "price_per_hour_usd", None),
            )
            for i, device in enumerate(fleet)
        ],
        output_lengths=output_lengths,
        iteration_level=options.iteration_level,
    )
    return ServingSession(fleet, dataset, batch_policy, router, report, requests, options)


class CrashLedger:
    """Per-request crash counts and the replay / retry / shed decision.

    A request's first crash replays it at the crash instant when ``replay``
    is on (the free requeue-once of a supervision tree).  Each further crash
    spends one of ``max_retries`` retries, the ``k``-th re-offered
    ``retry_backoff_s * 2**(k-1)`` after its crash.  Past the budget the
    request is shed and counted against attainment like any other drop.
    """

    def __init__(
        self, report, replay: bool, max_retries: int, retry_backoff_s: float = 0.0
    ) -> None:
        self.report = report
        self._free_replays = 1 if replay else 0
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._counts: dict[int, int] = {}

    def recover(self, request: Request, crash_time: float, device_index: int) -> float | None:
        """Book one crashed request: when to re-offer it, or ``None`` once shed."""
        count = self._counts.get(request.request_id, 0) + 1
        self._counts[request.request_id] = count
        retries_used = count - self._free_replays
        if retries_used <= 0:
            self.report.num_replayed += 1
            return crash_time
        if retries_used <= self.max_retries:
            self.report.num_retries += 1
            self.report.devices[device_index].num_retries += 1
            return crash_time + self.retry_backoff_s * (2.0 ** (retries_used - 1))
        self.report.num_shed_crashed += 1
        note_shed(self.report, request, "crashed")
        return None


@dataclass
class PlannedBatch:
    """One batch the core has routed and costed but not yet finalized.

    The simulator finalizes immediately (completion offsets are known at
    dispatch); the live gateway finalizes once the device actor has actually
    slept through the predicted execution, so a crashed worker's batch can
    be requeued without ever having touched the report.
    """

    batch_id: int
    device_index: int
    requests: list[Request]
    execution: BatchExecution
    dispatch_time: float
    start_time: float
    #: Fault injection: this batch is lost to a device crash inside its
    #: execution window (the simulator skips finalize and hands the
    #: requests to the replay/retry machinery instead).
    crashed: bool = False
    #: When the crash strikes (the supervisor notices and requeues here).
    crash_time: float | None = None
    #: When the crashed device is back online.
    recover_time: float | None = None

    @property
    def end_time(self) -> float:
        return self.start_time + self.execution.latency_seconds


class DispatchCore:
    """One policy/routing/accounting loop, driven by a sim or wall clock.

    The core owns the central formation queue and every counter on the
    report that the serving loop touches; the driver owns time (when to
    ``offer`` arrivals and when to ``pump``) and, through ``auto_finalize``,
    when a planned batch's records land in the report.  It serves
    ``session``'s fleet (or ``fleet``, the simulator's autoscaled prefix of
    it) with the session's bound policies, and copies the knobs it reads
    per event out of ``session.options`` once, here.

    ``offer``, ``dispatch`` and ``finalize`` stay defined on this class:
    ``perfbench/tracing.py`` wraps them by class attribute, and its traced
    repeats fail if one moves.
    """

    def __init__(
        self,
        session: ServingSession,
        fleet: list[Device] | None = None,
        *,
        auto_finalize: bool = True,
        fault_injector=None,
    ) -> None:
        options = session.options
        self.fleet = session.fleet if fleet is None else fleet
        self.report = session.report
        self.batch_policy = session.batch_policy
        self.router = session.router
        self.max_queue_depth = options.max_queue_depth
        #: Per-class admission control: a request whose class already has
        #: this many members in the formation queue is shed on arrival
        #: (``None`` / absent class = unbounded).  Counts toward ``num_shed``
        #: exactly like the global bound; per-class accounting charges the
        #: drop to the request's own class.
        self.class_queue_limits = options.class_queue_limits or None
        self.auto_finalize = auto_finalize
        #: Optional :class:`repro.faults.FaultInjector`; when set, dispatch
        #: consults each device's health timeline (latency multipliers,
        #: crashes inside the execution window).
        self.fault_injector = fault_injector
        #: Cross-device request hedging: mirror each batch on the best other
        #: device, first completion wins, the loser's booking is truncated
        #: at the winner's completion.  A driver that finalizes batches
        #: itself (the live gateway) runs each copy as a batch of its own.
        self.hedging = options.hedging and auto_finalize
        self.queue: list[Request] = []
        #: Start times of dispatched requests that have not begun executing
        #: yet; together with the formation queue they are the "waiting"
        #: population the admission-control limit bounds.
        self._pending_starts: list[float] = []
        self._take_shed = getattr(self.batch_policy, "take_shed", None)
        #: Arrival gate: snapshots the fleet it is built with (the initial
        #: pool when autoscaled).
        self._predicted_miss = (
            ProvablyLate(self.fleet) if options.shed_on_predicted_miss else None
        )
        self._next_batch_id = 0

    # ------------------------------------------------------------------
    # Ingest / admission
    # ------------------------------------------------------------------

    def waiting_requests(self, now: float) -> int:
        """Requests waiting to start service (queued or dispatched-not-started)."""
        while self._pending_starts and self._pending_starts[0] <= now + _EPS:
            heapq.heappop(self._pending_starts)
        return len(self.queue) + len(self._pending_starts)

    def offer(self, request: Request, now: float) -> str:
        """Admit one arrival: ``"queued"``, ``"shed"``, or ``"shed-predicted"``.

        Admission control (the bounded queue) is checked first, exactly as
        the engine always has; deadline-aware arrival shedding then drops
        requests whose deadline is provably unattainable, reported through
        its own ``num_shed_predicted`` counter.  Both kinds of shed count
        against attainment via ``shed_requests``.
        """
        if (
            self.max_queue_depth is not None
            and self.waiting_requests(now) >= self.max_queue_depth
        ):
            self.report.num_shed += 1
            note_shed(self.report, request, "shed")
            return "shed"
        if self.class_queue_limits is not None:
            limit = self.class_queue_limits.get(request.request_class)
            if limit is not None:
                queued = sum(
                    1 for r in self.queue if r.request_class == request.request_class
                )
                if queued >= limit:
                    self.report.num_shed += 1
                    note_shed(self.report, request, "shed")
                    return "shed"
        if self._predicted_miss is not None and self._predicted_miss(request, now):
            self.report.num_shed_predicted += 1
            note_shed(self.report, request, "shed-predicted")
            return "shed-predicted"
        self.queue.append(request)
        return "queued"

    def note_queue_depth(self, now: float) -> None:
        self.report.queue_depth_timeline.append((now, len(self.queue)))

    # ------------------------------------------------------------------
    # Formation / dispatch
    # ------------------------------------------------------------------

    def admit(self, index: int, batch: list[Request], now: float) -> int:
        """How many of ``batch`` (already limit-split) device ``index`` takes now.

        All of it here; a subclass guarding a device resource (the
        simulator's KV cache) may take a prefix, or 0 to refuse the batch.
        """
        return len(batch)

    def dispatch(self, batch: list[Request], now: float) -> PlannedBatch | None:
        """Route, limit-split, admit and cost one formed batch.

        Updates the device's serving clocks and the fleet accounting that is
        determined at dispatch time; the per-request records land via
        :meth:`finalize` (immediately under ``auto_finalize``).  Returns
        ``None`` when :meth:`admit` refuses the batch, which then waits at
        the head of the formation queue.
        """
        index = self.router.select(self.fleet, batch, now)
        if not 0 <= index < len(self.fleet):
            raise IndexError(f"router '{self.router.name}' picked invalid device {index}")
        device = self.fleet[index]
        admitted = device.admissible_prefix([r.length for r in batch])
        taken = self.admit(index, batch[:admitted], now)
        if taken == 0:
            self.queue[:0] = batch
            return None
        if admitted < len(batch):
            self.report.num_limit_splits += 1
        if taken < len(batch):
            # Run the prefix and hand the remainder back to the head of the
            # formation queue (those requests arrived before anything still
            # waiting there).
            self.queue[:0] = batch[taken:]
            batch = batch[:taken]
        start = device.next_start(now)
        planned = self._plan(index, batch, now, start, self.new_batch_id())
        if self.max_queue_depth is not None and start > now + _EPS:
            # Dispatched but not yet started: still "waiting" for admission
            # control, which is the only reader of this bookkeeping.
            for _ in batch:
                heapq.heappush(self._pending_starts, start)
        if self.hedging and len(self.fleet) > 1:
            planned = self._dispatch_hedged(planned, now)
        else:
            device.dispatch(planned.execution, planned.start_time)
            self._note_outcome(planned)
        return planned

    def new_batch_id(self) -> int:
        """Allocate the next batch id."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        return batch_id

    def _plan(
        self, index: int, requests: list[Request], now: float, start: float, batch_id: int
    ) -> PlannedBatch:
        """Cost ``requests`` on device ``index`` starting at ``start``, faults applied."""
        execution = self.fleet[index].execute([r.length for r in requests])
        crash = None
        if self.fault_injector is not None:
            execution, crash = self._apply_faults(index, start, execution)
        planned = PlannedBatch(
            batch_id=batch_id,
            device_index=index,
            requests=requests,
            execution=execution,
            dispatch_time=now,
            start_time=start,
        )
        if crash is not None:
            planned.crashed = True
            planned.crash_time, planned.recover_time = crash
        return planned

    # ------------------------------------------------------------------
    # Fault injection / hedging
    # ------------------------------------------------------------------

    def _apply_faults(
        self, index: int, start: float, execution: BatchExecution
    ) -> tuple[BatchExecution, tuple[float, float] | None]:
        """Stretch the execution by the device's health multiplier and detect
        a crash inside the (stretched) execution window.

        Returns the possibly-rescaled execution and ``(crash_time,
        recover_time)`` or ``None``.  The fault-free path never reaches this
        method, so the no-injector float arithmetic is untouched.
        """
        timeline = self.fault_injector.timeline(index)
        factor = timeline.multiplier(start)
        if factor != 1.0:
            execution = replace(
                execution,
                latency_seconds=execution.latency_seconds * factor,
                completion_offsets=[o * factor for o in execution.completion_offsets],
                admit_seconds=execution.admit_seconds * factor,
            )
        crash = timeline.first_crash_in(start, start + execution.latency_seconds)
        return execution, crash

    def _note_outcome(self, planned: PlannedBatch) -> None:
        """Record a dispatched copy's fate: crash counters + router health."""
        if self.fault_injector is None:
            return
        if planned.crashed:
            self.report.num_crashes += 1
            self.report.devices[planned.device_index].num_crashes += 1
            note = getattr(self.router, "note_failure", None)
            if note is not None:
                note(planned.device_index, planned.crash_time)
        else:
            note = getattr(self.router, "note_success", None)
            if note is not None:
                note(planned.device_index, planned.end_time)

    def plan_mirror(self, primary: PlannedBatch, now: float) -> PlannedBatch | None:
        """Cost a hedge copy of ``primary`` on the best other device.

        The best device admits the whole batch and can start it earliest
        (ties go to the lower index).  The copy shares the primary's
        ``batch_id`` and is counted in the hedge counters; nothing is booked
        on the device yet.  ``None`` when no other device admits the batch.
        """
        lengths = [r.length for r in primary.requests]
        best = None
        for index, device in enumerate(self.fleet):
            if index == primary.device_index:
                continue
            if device.admissible_prefix(lengths) < len(lengths):
                continue
            start = device.next_start(now)
            if best is None or (start, index) < best:
                best = (start, index)
        if best is None:
            return None
        start, index = best
        self.report.num_hedged += 1
        self.report.devices[primary.device_index].num_hedged += 1
        self.report.devices[index].num_hedged += 1
        return self._plan(index, primary.requests, now, start, primary.batch_id)

    def _dispatch_hedged(self, primary: PlannedBatch, now: float) -> PlannedBatch:
        """Mirror ``primary`` on the best other device; first completion wins.

        The loser's device time is released: its booking is truncated at the
        winner's completion (it was cancelled there).  A crashed copy's
        booking stands in full, mirroring the live gateway where a crashed
        worker's reservation is never unwound.  When both copies crash the
        batch is lost and the caller's replay/retry machinery takes over at
        the later crash.
        """
        primary_device = self.fleet[primary.device_index]
        mirror = self.plan_mirror(primary, now)
        if mirror is None:
            # No other device admits the whole batch: fall back to unhedged.
            primary_device.dispatch(primary.execution, primary.start_time)
            self._note_outcome(primary)
            return primary
        mirror_device = self.fleet[mirror.device_index]
        primary_ok = not primary.crashed
        mirror_ok = not mirror.crashed
        if primary_ok and (not mirror_ok or primary.end_time <= mirror.end_time):
            winner, loser = primary, mirror
        elif mirror_ok:
            winner, loser = mirror, primary
            self.report.num_hedge_wins += 1
        else:
            # Both copies crash: book both windows in full (neither worker
            # was cancelled before its crash) and surface the batch as lost
            # at the moment the *last* copy dies.
            primary_device.dispatch(primary.execution, primary.start_time)
            mirror_device.dispatch(mirror.execution, mirror.start_time)
            self._note_outcome(primary)
            self._note_outcome(mirror)
            if mirror.crash_time > primary.crash_time:
                primary.crash_time = mirror.crash_time
                primary.recover_time = mirror.recover_time
            return primary
        self.fleet[winner.device_index].dispatch(winner.execution, winner.start_time)
        loser_device = self.fleet[loser.device_index]
        if loser.crashed:
            # The loser died before the cancel mattered: its window stands.
            loser_device.dispatch(loser.execution, loser.start_time)
        else:
            cutoff = max(loser.start_time, min(loser.end_time, winner.end_time))
            loser_device.book_interval(loser.start_time, cutoff)
        self._note_outcome(winner)
        self._note_outcome(loser)
        return winner

    def finalize(self, planned: PlannedBatch) -> None:
        """Land one planned batch's records (:meth:`land`) and summaries in the report."""
        self.land(planned)
        self.book_batch(planned)

    def land(self, planned: PlannedBatch) -> None:
        """Land one ledger row per request, completing at its completion offset."""
        ledger, start = self.report.ledger, planned.start_time
        row = ledger.add_batch(planned.dispatch_time, start, planned.device_index, planned.batch_id)
        offsets = planned.execution.completion_offsets
        ledger.extend(row, planned.requests, [start + offset for offset in offsets])

    def book_batch(self, planned: PlannedBatch) -> None:
        """Append the batch's :class:`BatchRecord` and charge its device summary."""
        from .engine import BatchRecord  # local import: engine imports core

        report = self.report
        device = self.fleet[planned.device_index]
        report.batches.append(
            BatchRecord(
                batch_id=planned.batch_id,
                device_index=planned.device_index,
                dispatch_time=planned.dispatch_time,
                start_time=planned.start_time,
                execution=planned.execution,
                request_ids=[r.request_id for r in planned.requests],
            )
        )
        summary = report.devices[planned.device_index]
        summary.num_batches += 1
        summary.num_requests += len(planned.requests)
        if planned.execution.utilization is not None:
            summary.pipeline_utilizations.append(planned.execution.utilization)
        # Power-modeled devices are charged over merged busy intervals at the
        # end of the run (served_energy_joules); per-batch accumulation is
        # only for backends whose energy is not power x time.
        if (
            planned.execution.energy_joules is not None
            and device.served_energy_joules() is None
        ):
            summary.energy_joules = (
                summary.energy_joules or 0.0
            ) + planned.execution.energy_joules

    def collect_policy_shed(self) -> None:
        """Drain the policy's provably-late drops into the report."""
        if self._take_shed is None:
            return
        for request in self._take_shed():
            # Deadline-aware policies drop requests that are provably late;
            # they count against attainment, not against admission control.
            self.report.num_shed_late += 1
            note_shed(self.report, request, "late")

    def pump(self, now: float, draining: bool = False) -> list[PlannedBatch]:
        """Cut and dispatch every batch the policy forms at ``now``, up to a refusal."""
        planned: list[PlannedBatch] = []
        while True:
            batch = self.batch_policy.form_batch(self.queue, now, draining)
            if batch is None:
                break
            if not batch:
                raise RuntimeError(
                    f"batch policy '{self.batch_policy.name}' formed an empty batch"
                )
            plan = self.dispatch(batch, now)
            if plan is None:
                self.note_queue_depth(now)
                break
            if self.auto_finalize and not plan.crashed:
                # A crashed plan never touches the report's records; the
                # driver requeues/retries/sheds its requests instead.
                self.finalize(plan)
            planned.append(plan)
            self.note_queue_depth(now)
        self.collect_policy_shed()
        return planned

    def next_action_time(self, now: float) -> float | None:
        """The policy's next timer instant for the current queue (or None)."""
        return self.batch_policy.next_action_time(self.queue, now)


def collect_device_stats(report, fleet: list[Device]) -> None:
    """Fold end-of-run device state into the report's summaries.

    Copies each device's merged busy time and schedule-cache counters into
    its :class:`~repro.serving.engine.DeviceSummary` and charges
    power-modeled devices over their merged busy intervals (continuous
    batching must not double-count overlap).  A device that ran a decode
    step also ran the prefill batch its requests came from, so its batch
    count alone shows whether it did work.
    """
    for index, device in enumerate(fleet):
        summary = report.devices[index]
        summary.busy_seconds = device.busy_seconds()
        summary.schedule_cache = device.schedule_cache_stats()
        served_energy = device.served_energy_joules()
        if served_energy is not None and summary.num_batches > 0:
            summary.energy_joules = served_energy
