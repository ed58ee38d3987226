"""SLO-aware serving: deadlines, EDF batch formation, cost-model routing.

The rest of the serving stack is deadline-blind: :class:`TimeoutBatcher`
fires on a wall-clock knob that knows nothing about individual requests, and
:class:`LeastLoadedRouter` reads backlogs but never asks a device how long
the batch at hand would actually take.  This module adds the SLO-aware
counterparts on top of the unified :class:`~repro.devices.Device` cost-model
protocol:

* :class:`SLOSpec` -- how deadlines are assigned: each request gets
  ``arrival + base_s + per_token_s * length`` (absolute or
  length-proportional budgets, or a mix).  :func:`assign_deadlines` stamps a
  request stream with the resulting absolute deadlines.
* :class:`DeadlineBatcher` -- earliest-deadline-first batch formation.  The
  queue is kept in EDF order and the batcher *asks the fleet* what the
  candidate batch would cost (``Device.batch_latency_seconds``); it
  dispatches exactly when waiting any longer would make the tightest
  admissible deadline unattainable, and sheds requests that are provably
  late (no device could finish them in time even if dispatched alone,
  immediately).
* :class:`CostModelRouter` -- scores every candidate device with its actual
  predicted completion time for *this* batch -- current backlog plus the
  device's own ``batch_latency_seconds`` on the batch, split into
  limit-sized chunks where per-device batch limits apply -- so long
  sequences route away from padding-bound devices for free.

All three plug into the shared registry (``batch-policy``/``deadline``,
``router``/``cost-model``) and are therefore reachable from the CLI:
``python -m repro serve --batch-policy deadline --routing cost-model
--slo-ms 50``.  The engine reports the outcome as ``attainment_rate`` (the
fraction of SLO-carrying requests that finished on time) and
``goodput_qps`` (on-time completions per second).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import is_

from .. import config as global_config
from ..devices.fleet import FleetCostOracle
from ..registry import register
from .policies import _TIME_EPS, BatchPolicy, check_formation_knobs
from .request import Request
from .routing import Router

__all__ = [
    "SLOSpec",
    "assign_deadlines",
    "ProvablyLate",
    "DeadlineBatcher",
    "CostModelRouter",
]


@dataclass(frozen=True)
class SLOSpec:
    """How per-request deadlines are derived from the arrival stream.

    Each request's absolute deadline is ``arrival_time + base_s +
    per_token_s * length`` -- a fixed latency budget (``base_s``, seconds),
    a length-proportional budget (``per_token_s``, seconds per token), or
    any mix of the two.  A pure zero budget (both knobs 0) is legal and
    models zero-slack requests: nothing can meet them, so an SLO-aware
    policy sheds them immediately while a deadline-blind one wastes device
    time serving them late.
    """

    base_s: float = 0.05
    per_token_s: float = 0.0
    #: Decoder workloads: extra budget per *generated* token, so a request
    #: sampling a long output earns a proportionally later deadline (an
    #: inter-token-latency SLO).  Encoder requests generate one token.
    per_output_token_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("base_s", "per_token_s", "per_output_token_s"):
            value = getattr(self, name)
            # ``nan < 0`` is False: a NaN budget would stamp NaN deadlines.
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite number >= 0")

    def budget_seconds(self, length: int, output_len: int = 1) -> float:
        """The latency budget for a request of ``length`` prompt tokens."""
        return (
            self.base_s
            + self.per_token_s * length
            + self.per_output_token_s * output_len
        )

    def deadline_for(self, request: Request) -> float:
        """The absolute deadline this spec assigns to ``request``."""
        return request.arrival_time + self.budget_seconds(request.length, request.output_len)

    def to_dict(self) -> dict:
        """JSON-ready form (reports).

        ``per_output_token_s`` appears only when set: encoder-side reports
        (and their downstream consumers) keep their historical two-key shape.
        """
        payload = {"base_s": self.base_s, "per_token_s": self.per_token_s}
        if self.per_output_token_s:
            payload["per_output_token_s"] = self.per_output_token_s
        return payload


def assign_deadlines(requests: list[Request], slo: SLOSpec) -> list[Request]:
    """Stamp a request stream with the deadlines ``slo`` assigns.

    Requests that already carry a deadline (an explicit stream or a trace
    with recorded SLOs) keep it; only deadline-less requests are stamped.
    """
    deadline_for = slo.deadline_for
    return [
        r
        if r.deadline is not None
        else Request(
            r.request_id, r.length, r.arrival_time, deadline_for(r), r.request_class, r.output_len
        )
        for r in requests
    ]


class ProvablyLate:
    """Could no device meet a request's deadline, even serving it alone now?

    True when every device's earliest start (``next_start(now)``) plus its
    own single-request estimate overshoots the deadline.  Start clocks only
    move later and the queue ahead is ignored, so the bound is optimistic:
    a request judged late is unsalvageable.  The EDF batchers shed such
    requests, sweeping their queue with :meth:`late_requests`; the dispatch
    core's ``shed_on_predicted_miss`` gate calls the instance on each
    arrival.  The fleet is snapshotted at construction.
    """

    def __init__(self, fleet: list) -> None:
        self._fleet = [d for d in fleet if hasattr(d, "batch_latency_seconds")]
        self._estimates: dict[tuple[int, int], float] = {}

    def single_estimate(self, index: int, length: int) -> float:
        """Memoized single-request service estimate on device ``index``."""
        key = (index, length)
        cached = self._estimates.get(key)
        if cached is None:
            cached = self._fleet[index].batch_latency_seconds([length])
            self._estimates[key] = cached
        return cached

    def __call__(self, request: Request, now: float) -> bool:
        if request.deadline is None or not self._fleet:
            return False
        deadline = request.deadline + _TIME_EPS
        for index, device in enumerate(self._fleet):
            next_start = getattr(device, "next_start", None)
            start = next_start(now) if next_start is not None else now
            if start + self.single_estimate(index, request.length) <= deadline:
                return False
        return True

    def late_requests(self, queue: list[Request], now: float) -> list[Request]:
        """``[r for r in queue if self(r, now)]``, in queue order.

        Each device's start is read lazily, at most once per sweep, instead
        of once per request: nothing dispatches during a sweep, and a fault
        timeline draws its windows by horizon, not by query pattern, so the
        start is the same value and the same windows get drawn.
        """
        if not self._fleet:
            return []
        starts: list[float | None] = [None] * len(self._fleet)
        estimates = self._estimates
        late = []
        for request in queue:
            if request.deadline is None:
                continue
            deadline = request.deadline + _TIME_EPS
            length = request.length
            for index, device in enumerate(self._fleet):
                start = starts[index]
                if start is None:
                    next_start = getattr(device, "next_start", None)
                    start = starts[index] = next_start(now) if next_start is not None else now
                estimate = estimates.get((index, length))
                if estimate is None:
                    estimate = self.single_estimate(index, length)
                if start + estimate <= deadline:
                    break
            else:
                late.append(request)
        return late


class _Tier:
    """One priority tier of an :class:`_EDFView`, in EDF order.

    ``keys`` parallels ``requests`` (their ``_edf_key``), so an arrival goes
    in with ``bisect``.  ``latest`` memoizes the latest start of the tier's
    candidate batch (its first ``batch_size`` requests) and ``oldest`` its
    earliest arrival; ``None`` means not computed since the tier changed.
    """

    __slots__ = ("priority", "requests", "keys", "latest", "oldest")

    def __init__(self, priority: int) -> None:
        self.priority = priority
        self.requests: list[Request] = []
        self.keys: list[tuple] = []
        self.latest: float | None = None
        self.oldest: float | None = None


class _EDFView:
    """A batcher's EDF tiers, kept across calls for the queue in ``synced``.

    ``synced`` holds the queue contents (the very objects) the tiers were
    last brought up to date with; ``tiers`` lists the non-empty tiers,
    highest priority first.
    """

    __slots__ = ("tiers", "by_priority", "synced")

    def __init__(self) -> None:
        self.tiers: list[_Tier] = []
        self.by_priority: dict[int, _Tier] = {}
        self.synced: list[Request] = []

    def tier(self, priority: int) -> _Tier:
        """The tier for ``priority``, created in rank order if missing."""
        tier = self.by_priority.get(priority)
        if tier is None:
            tier = self.by_priority[priority] = _Tier(priority)
            rank = 0
            while rank < len(self.tiers) and self.tiers[rank].priority > priority:
                rank += 1
            self.tiers.insert(rank, tier)
        return tier

    def discard_if_empty(self, tier: _Tier) -> None:
        if not tier.requests:
            self.tiers.remove(tier)
            del self.by_priority[tier.priority]


@register("batch-policy", "deadline", aliases=("edf", "slo"))
@dataclass
class DeadlineBatcher(BatchPolicy):
    """EDF batch formation that dispatches on deadline pressure.

    Config knobs: ``batch_size`` (max requests per batch), ``timeout_s``
    (seconds; fallback maximum wait for deadline-less requests, exactly the
    :class:`~repro.serving.policies.TimeoutBatcher` knob), ``margin_s``
    (seconds of safety slack subtracted from the computed
    latest-dispatch time), and ``shed_late`` (drop provably-late requests
    instead of serving them past their deadline).

    The batcher looks at the queue in earliest-deadline-first order (ties
    break on arrival, then id).  The candidate batch is the ``batch_size``
    tightest requests; it dispatches when it is full, when the stream is
    draining, or when the clock reaches ``tightest deadline - estimated
    batch latency - margin_s`` -- the last instant the fleet's fastest
    device could still meet the tightest admissible deadline (the estimate
    is the minimum of ``Device.batch_latency_seconds`` over the fleet the
    engine bound via :meth:`bind_fleet`).  Before forming a batch the policy
    sheds every queued request that is *provably* late: even dispatched
    alone and immediately, no device could finish it by its deadline.  Shed
    requests are handed back to the engine through :meth:`take_shed` and
    reported as ``num_shed_late`` / counted against ``attainment_rate``.

    The EDF order is a private view that persists between calls instead of
    a sort per call.  Each call compares the queue, object by object, with
    the contents the view was last synced to: an unchanged queue costs
    nothing, new requests appended at the tail are inserted with ``bisect``,
    and any other change (a crash requeue, a refused batch put back at the
    head) rebuilds the view.  The view memoizes each tier's candidate latest
    start until its first ``batch_size`` requests change, so the fleet sees
    exactly the queries a sort per call would make, in the same order.
    """

    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    timeout_s: float = 20e-3
    margin_s: float = 0.0
    shed_late: bool = True
    name: str = "deadline"
    _fleet: list = field(default_factory=list, init=False, repr=False, compare=False)
    _shed: list[Request] = field(default_factory=list, init=False, repr=False, compare=False)
    _estimates: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _late: ProvablyLate | None = field(default=None, init=False, repr=False, compare=False)
    _view: _EDFView | None = field(default=None, init=False, repr=False, compare=False)
    _oracle: FleetCostOracle = field(
        default_factory=FleetCostOracle, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_formation_knobs(self.batch_size, self.timeout_s)
        if not (math.isfinite(self.margin_s) and self.margin_s >= 0):
            raise ValueError(f"margin_s must be >= 0 and finite, got {self.margin_s!r}")

    def bind_fleet(self, fleet: list) -> None:
        self._fleet = [d for d in fleet if hasattr(d, "batch_latency_seconds")]
        self._shed = []
        self._estimates = {}
        self._late = ProvablyLate(self._fleet)
        self._view = None

    # ------------------------------------------------------------------
    # Cost estimates (through the Device protocol)
    # ------------------------------------------------------------------

    def _estimate(self, lengths: tuple[int, ...]) -> float:
        """Fastest-device service estimate for a batch (0 when unbound).

        Memoized on the length multiset; the devices' own schedule cache
        makes the underlying simulations cheap, but analytical platforms
        recompute, so the local memo keeps EDF formation O(1) per probe.
        """
        sorted_lengths = tuple(sorted(lengths))
        key = ("batch", sorted_lengths)
        cached = self._estimates.get(key)
        if cached is None:
            if not self._fleet:
                cached = 0.0
            else:
                cached = min(self._oracle.service_seconds(self._fleet, list(sorted_lengths)))
            self._estimates[key] = cached
        return cached

    @staticmethod
    def _edf_key(request: Request) -> tuple:
        deadline = request.deadline if request.deadline is not None else float("inf")
        return (deadline, request.arrival_time, request.request_id)

    def _latest_start(self, candidate: list[Request]) -> float:
        """Last instant the tightest deadline in ``candidate`` is attainable."""
        deadlines = [r.deadline for r in candidate if r.deadline is not None]
        if not deadlines:
            return float("inf")
        lengths = tuple(r.length for r in candidate)
        return min(deadlines) - self._estimate(lengths) - self.margin_s

    # ------------------------------------------------------------------
    # The EDF view
    # ------------------------------------------------------------------

    def _priority(self, request: Request) -> int:
        """The tier ``request`` belongs to (higher forms first); one tier here."""
        return 0

    def _insert(self, view: _EDFView, request: Request) -> None:
        tier = view.tier(self._priority(request))
        key = self._edf_key(request)
        position = bisect_right(tier.keys, key)
        tier.keys.insert(position, key)
        tier.requests.insert(position, request)
        if position < self.batch_size:
            tier.latest = None
        if tier.oldest is not None and request.arrival_time < tier.oldest:
            tier.oldest = request.arrival_time

    def _sync(self, queue: list[Request]) -> _EDFView:
        """The view, brought up to date with ``queue``."""
        view = self._view
        if view is not None:
            synced = view.synced
            known = len(synced)
            if len(queue) >= known and all(map(is_, queue, synced)):
                if len(queue) > known:
                    fresh = queue[known:]
                    for request in fresh:
                        self._insert(view, request)
                    synced.extend(fresh)
                return view
        view = self._view = _EDFView()
        for request in queue:
            self._insert(view, request)
        view.synced = queue[:]
        return view

    def _tier_latest(self, tier: _Tier) -> float:
        latest = tier.latest
        if latest is None:
            latest = tier.latest = self._latest_start(tier.requests[: self.batch_size])
        return latest

    @staticmethod
    def _tier_oldest(tier: _Tier) -> float:
        oldest = tier.oldest
        if oldest is None:
            oldest = tier.oldest = min(r.arrival_time for r in tier.requests)
        return oldest

    def _take(self, queue: list[Request], view: _EDFView, tier: _Tier) -> list[Request]:
        """Remove ``tier``'s candidate batch from it and from ``queue``; return it."""
        chosen = tier.requests[: self.batch_size]
        count = len(chosen)
        del tier.requests[:count]
        del tier.keys[:count]
        tier.latest = tier.oldest = None
        view.discard_if_empty(tier)
        taken = {r.request_id for r in chosen}
        queue[:] = [r for r in queue if r.request_id not in taken]
        if len(queue) + count == len(view.synced):
            view.synced = queue[:]
        else:
            # Another queued request shared a taken id: start over.
            self._view = None
        return chosen

    # ------------------------------------------------------------------
    # BatchPolicy interface
    # ------------------------------------------------------------------

    def take_shed(self) -> list[Request]:
        shed, self._shed = self._shed, []
        return shed

    def next_action_time(self, queue: list[Request], now: float) -> float | None:
        if not queue:
            return None
        tiers = self._sync(queue).tiers
        action = min(self._tier_oldest(tier) for tier in tiers) + self.timeout_s
        for tier in tiers:
            action = min(action, self._tier_latest(tier))
        # Never hand the engine a timer in the past: act at `now` instead
        # (form_batch dispatches under the same comparison, so the engine's
        # progress guarantee holds).
        return max(action, now)

    def _shed_late(self, queue: list[Request], view: _EDFView, now: float) -> None:
        """Move every provably-late request from ``queue`` (and the view) to the shed list."""
        if self.shed_late and self._fleet:
            late = self._late.late_requests(queue, now)
            if late:
                dropped = {r.request_id for r in late}
                queue[:] = [r for r in queue if r.request_id not in dropped]
                self._shed.extend(late)
                for tier in view.tiers[:]:
                    kept = [i for i, r in enumerate(tier.requests) if r.request_id not in dropped]
                    if len(kept) < len(tier.requests):
                        tier.requests = [tier.requests[i] for i in kept]
                        tier.keys = [tier.keys[i] for i in kept]
                        tier.latest = tier.oldest = None
                        view.discard_if_empty(tier)
                view.synced = queue[:]

    def _due(self, tier: _Tier, now: float, draining: bool) -> bool:
        """Whether ``tier``'s candidate batch should dispatch at ``now``."""
        timed_out = now + _TIME_EPS >= self._tier_oldest(tier) + self.timeout_s
        pressured = now + _TIME_EPS >= self._tier_latest(tier)
        full = len(tier.requests) >= self.batch_size
        return full or draining or pressured or timed_out

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        view = self._sync(queue)
        self._shed_late(queue, view, now)
        if not queue:
            return None
        tier = view.tiers[0]
        if self._due(tier, now, draining):
            return self._take(queue, view, tier)
        return None


@register("router", "cost-model", aliases=("cost",))
@dataclass
class CostModelRouter(Router):
    """Route each batch to the device that would finish it earliest.

    Config knobs: ``blacklist_s`` (seconds; ``0`` keeps the router purely
    cost-driven).  Every candidate device is scored with its predicted
    completion time for *this* batch: seconds of backlog until it could
    start (:meth:`~repro.serving.routing.Router.backlog_seconds`) plus its
    own ``batch_latency_seconds`` on the batch.  Where a per-device batch
    limit (``max_batch_size`` / ``max_batch_tokens``) would force the engine
    to split the batch, the score sums the latencies of the limit-sized
    chunks, so capped devices are penalized by exactly the serial work they
    would cause.  On a heterogeneous fleet this routes long sequences away
    from padding-bound devices for free: a padding-bound device quotes a
    long batch at its max-length cost while the length-aware design quotes
    the actual lengths.  Ties break on device index, keeping runs
    deterministic.  Legacy float fleets (backlog clocks only) fall back to
    least-loaded scoring.

    With ``blacklist_s > 0`` the router becomes **failure-aware** (circuit
    breaker): a device whose batch crashes (the dispatch core's
    :meth:`note_failure`) is blacklisted for ``blacklist_s`` seconds,
    doubling on every further crash; once the window expires the device is
    *half-open* -- it may win exactly one trial batch, and a clean
    completion (:meth:`note_success`) closes the breaker and resets the
    backoff, while another crash re-opens it at the doubled duration.  When
    every device is blacklisted the router falls back to pure cost scoring
    (serving degraded beats serving nothing).  Time spent refusing a device
    is reported per device as ``blacklisted_s``.
    """

    name: str = "cost-model"
    #: Base circuit-breaker window after a crash (seconds; 0 disables the
    #: failure-aware path entirely -- the router is then byte-identical to
    #: the historical cost-only scorer).
    blacklist_s: float = 0.0
    #: Blacklist expiry instant per device index (open breaker windows).
    _until: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Start of the currently-open breaker window (accounting).
    _open_start: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Next breaker duration per device (exponential backoff, base
    #: ``blacklist_s``).
    _backoff: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Devices whose half-open trial batch is outstanding.
    _probing: set = field(default_factory=set, init=False, repr=False, compare=False)
    #: Closed breaker windows, accumulated seconds per device.
    _accumulated: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Scores each run of twin replicas with one schedule lookup.
    _oracle: FleetCostOracle = field(
        default_factory=FleetCostOracle, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.blacklist_s) and self.blacklist_s >= 0):
            raise ValueError(f"blacklist_s must be >= 0 and finite, got {self.blacklist_s!r}")

    def prepare(self, num_devices: int, dataset) -> None:
        # Reset breaker state so a reused router gives identical runs.
        self._until = {}
        self._open_start = {}
        self._backoff = {}
        self._probing = set()
        self._accumulated = {}

    def _routable(self, index: int, now: float) -> bool:
        until = self._until.get(index)
        if until is None:
            return True
        if now + _TIME_EPS < until:
            return False  # breaker open: still blacklisted
        return index not in self._probing  # half-open: one trial at a time

    def select(self, fleet: list, batch: list[Request], now: float) -> int:
        lengths = [r.length for r in batch]
        if self.blacklist_s <= 0:
            # Fault-agnostic fast path: exactly the historical scorer.
            service = self._oracle.service_seconds(fleet, lengths, split=True)
            scores = [self.backlog_seconds(e, now) + s for e, s in zip(fleet, service)]
            return min(range(len(scores)), key=lambda i: (scores[i], i))
        candidates = [i for i in range(len(fleet)) if self._routable(i, now)]
        if not candidates:
            # Whole fleet blacklisted: degrade to pure cost scoring.
            candidates = list(range(len(fleet)))
        service = self._oracle.service_seconds(fleet, lengths, candidates, split=True)
        scores = {i: self.backlog_seconds(fleet[i], now) + s for i, s in zip(candidates, service)}
        index = min(candidates, key=lambda i: (scores[i], i))
        until = self._until.get(index)
        if until is not None and now + _TIME_EPS >= until:
            self._probing.add(index)  # this batch is the half-open trial
        return index

    # ------------------------------------------------------------------
    # Device-health hooks (called by the dispatch core under injection)
    # ------------------------------------------------------------------

    def _close_window(self, index: int, at: float) -> None:
        """Fold the open breaker window (clamped at ``at``) into the total."""
        until = self._until.pop(index, None)
        start = self._open_start.pop(index, None)
        if until is None or start is None:
            return
        self._accumulated[index] = self._accumulated.get(index, 0.0) + max(
            min(until, at) - start, 0.0
        )

    def note_failure(self, index: int, now: float) -> None:
        if self.blacklist_s <= 0:
            return
        self._probing.discard(index)
        self._close_window(index, now)
        duration = self._backoff.get(index, self.blacklist_s)
        self._open_start[index] = now
        self._until[index] = now + duration
        self._backoff[index] = duration * 2.0

    def note_success(self, index: int, now: float) -> None:
        if self.blacklist_s <= 0:
            return
        self._probing.discard(index)
        if index in self._until:
            # Half-open trial succeeded: close the breaker, reset backoff.
            self._close_window(index, now)
            self._backoff.pop(index, None)

    def blacklisted_seconds(self, index: int, until: float) -> float:
        """Total seconds device ``index`` was refused traffic, up to ``until``."""
        total = self._accumulated.get(index, 0.0)
        open_until = self._until.get(index)
        if open_until is not None:
            start = self._open_start[index]
            total += max(min(open_until, until) - min(start, until), 0.0)
        return total
