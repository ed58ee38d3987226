"""Multi-tenant request classes: SLO tiers sharing one fleet.

One fleet rarely serves one kind of traffic.  Production serving mixes
*interactive* requests (tight deadlines, revenue-critical), *batch* work
(loose deadlines, throughput-oriented), and *best-effort* background jobs
(no SLO at all -- they soak up whatever capacity is left).  This module
makes that mix a first-class scenario:

* :class:`RequestClass` -- a named tier with a ``priority`` (higher wins),
  an optional per-class :class:`~repro.serving.slo.SLOSpec` (how deadlines
  are stamped for members of the tier), and a ``weight`` (the tier's fair
  share of the fleet, used by capacity-isolation baselines).  Classes
  register under ``kind="request-class"``; the built-ins are
  ``interactive``, ``batch``, and ``best-effort``.
* :class:`ClassMixArrivals` -- wraps *any* arrival process and tags each
  generated request with a class sampled from a weighted mix.  Sampling
  uses a dedicated RNG stream (salt ``0xC1A5``), so the wrapped process's
  timing and length draws -- and therefore every untagged replay -- stay
  byte-identical.
* :class:`PriorityDeadlineBatcher` -- priority-tiered EDF batch formation:
  each tier runs the :class:`~repro.serving.slo.DeadlineBatcher` discipline
  internally, higher tiers always form first, and a lower tier that is due
  is **preempted** (left at the head of its tier, work conserved) whenever
  dispatching it would push a higher tier past its latest feasible start.
* :class:`ClassSummary` / :func:`collect_class_stats` -- per-class
  offered/completed/shed-by-cause/attainment/goodput accounting, derived
  post-hoc from the report's records and shed lists so every engine (sim,
  decode, live) gets it from one code path.

Untagged runs are the compatibility contract: when no request carries a
class, no per-class machinery activates and reports keep their historical
byte-identical shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..registry import REGISTRY, register
from .arrivals import ArrivalProcess
from .policies import _TIME_EPS
from .request import Request
from .slo import DeadlineBatcher, SLOSpec

__all__ = [
    "RequestClass",
    "ClassMixArrivals",
    "ClassSummary",
    "PriorityDeadlineBatcher",
    "collect_class_stats",
    "get_request_class",
    "parse_class_mix",
    "parse_class_queue_limits",
    "register_request_class",
]

_CLASS_KIND = "request-class"

#: RNG-stream salt for class sampling.  Distinct from the arrival-timing
#: stream (``0x5E12``) and the fault stream (``0xFA17``), so tagging a
#: stream with classes never perturbs its timing or length draws.
_CLASS_SALT = 0xC1A5


@dataclass(frozen=True)
class RequestClass:
    """One SLO tier: a name, a priority, a deadline policy, and a fair share.

    ``priority`` is unitless (higher dispatches first); ``slo`` is the
    :class:`~repro.serving.slo.SLOSpec` stamped on members that arrive
    without a deadline (``None`` = the tier carries no SLO); ``weight`` is
    the tier's fair share of fleet capacity (a fraction; isolation baselines
    size a dedicated fleet as ``ceil(weight * fleet_size)``).
    """

    name: str
    priority: int = 0
    slo: SLOSpec | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("request class needs a name")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "priority": self.priority,
            "slo": self.slo.to_dict() if self.slo is not None else None,
            "weight": self.weight,
        }


def register_request_class(cls: RequestClass, aliases: tuple[str, ...] = ()) -> RequestClass:
    """Register ``cls`` under ``kind="request-class"``; returns it."""
    REGISTRY.add(_CLASS_KIND, cls.name, cls, aliases=aliases)
    return cls


def get_request_class(name: str) -> RequestClass:
    """Look up a registered request class by name (KeyError lists the known)."""
    cls = REGISTRY.resolve(_CLASS_KIND, name)
    if not isinstance(cls, RequestClass):
        raise TypeError(f"'{name}' is not a RequestClass")
    return cls


#: The built-in tiers.  Interactive gets a tight deadline and top priority;
#: batch gets a loose deadline; best-effort carries no SLO and yields to
#: everything (it exists to absorb shedding under overload).
INTERACTIVE = register_request_class(
    RequestClass(name="interactive", priority=2, slo=SLOSpec(base_s=0.05), weight=0.5)
)
BATCH_CLASS = register_request_class(
    RequestClass(name="batch", priority=1, slo=SLOSpec(base_s=0.5), weight=0.3)
)
BEST_EFFORT = register_request_class(
    RequestClass(name="best-effort", priority=0, slo=None, weight=0.2), aliases=("be",)
)


def parse_class_mix(spec: str) -> tuple[tuple[str, float], ...]:
    """Parse a class-mix spec: ``"interactive:0.5,batch:0.3,best-effort:0.2"``.

    Weights are optional (``"interactive,best-effort"`` splits evenly) and
    are normalized to sum to 1.  Every named class must be registered.
    """
    entries: list[tuple[str, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, raw = part.partition(":")
            share = float(raw)
            if share <= 0:
                raise ValueError(f"class share must be > 0, got {part!r}")
        else:
            name, share = part, 1.0
        entries.append((get_request_class(name).name, share))
    if not entries:
        raise ValueError("the class mix is empty")
    if len({name for name, _ in entries}) != len(entries):
        raise ValueError(f"duplicate class in mix {spec!r}")
    total = sum(share for _, share in entries)
    return tuple((name, share / total) for name, share in entries)


def parse_class_queue_limits(spec: str) -> dict[str, int]:
    """Parse per-class queue limits: ``"best-effort:8,batch:16"``.

    Every named class must be registered and every limit must be a positive
    integer (the most members of that class the formation queue may hold;
    arrivals beyond it are shed at admission).
    """
    limits: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition(":")
        if not sep:
            raise ValueError(f"class queue limit {part!r} needs a 'class:limit' form")
        canonical = get_request_class(name).name
        if canonical in limits:
            raise ValueError(f"duplicate class in queue limits {spec!r}")
        limit = int(raw)
        if limit < 1:
            raise ValueError(f"class queue limit must be >= 1, got {part!r}")
        limits[canonical] = limit
    if not limits:
        raise ValueError("the class queue limit spec is empty")
    return limits


@dataclass
class ClassMixArrivals(ArrivalProcess):
    """Tag any arrival process's stream with sampled request classes.

    Config knobs: ``base`` (the wrapped :class:`ArrivalProcess`) and ``mix``
    (``(class name, share)`` pairs, shares normalized to 1; see
    :func:`parse_class_mix` for the string form).  The wrapped process
    generates exactly the stream it would alone -- same RNG draws, same
    timing -- and the tags ride on a separate salted stream, so dropping the
    wrapper reproduces the untagged run byte-for-byte.
    """

    base: ArrivalProcess = None  # type: ignore[assignment]
    mix: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, ArrivalProcess):
            raise TypeError("ClassMixArrivals wraps an ArrivalProcess")
        if isinstance(self.mix, str):
            self.mix = parse_class_mix(self.mix)
        if not self.mix:
            raise ValueError("the class mix is empty")
        for name, _ in self.mix:
            get_request_class(name)  # fail fast on unknown classes

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.base.name}+classes"

    @property
    def rate_qps(self) -> float | None:  # type: ignore[override]
        return self.base.rate_qps

    def columns(self, dataset, num_requests, seed):
        """The wrapped stream's columns plus a class column.

        Sampling runs on its own salted RNG stream, keyed by ``seed`` alone,
        so the tags are independent of the stream's timing/length draws.
        """
        lengths, times, _ = self.base.columns(dataset, num_requests, seed)
        rng = np.random.default_rng([seed, _CLASS_SALT])
        names = [get_request_class(name).name for name, _ in self.mix]
        shares = np.asarray([share for _, share in self.mix], dtype=np.float64)
        picks = rng.choice(len(names), size=len(lengths), p=shares / shares.sum())
        return lengths, times, [names[pick] for pick in picks.tolist()]


# ----------------------------------------------------------------------
# Priority-tiered EDF batch formation
# ----------------------------------------------------------------------


@register("batch-policy", "priority-deadline", aliases=("priority",))
@dataclass
class PriorityDeadlineBatcher(DeadlineBatcher):
    """Priority-tiered EDF formation with lower-tier preemption.

    Config knobs are exactly the :class:`~repro.serving.slo.DeadlineBatcher`
    set (``batch_size``, ``timeout_s``, ``margin_s``, ``shed_late``).  The
    queue is partitioned by class priority (``request-class`` registry
    lookup; untagged requests ride at priority 0), each tier is kept in EDF
    order by the parent's persistent view (one tier per priority, synced to
    the queue by identity: appended arrivals are inserted, any other change
    rebuilds it), and tiers are examined highest priority first:

    * a tier dispatches under the parent's conditions -- full batch,
      draining, deadline pressure, or the oldest member timing out;
    * a *lower* tier that is due is **preempted** whenever serving it now
      would push some higher tier past its latest feasible start
      (``now + estimate(lower batch) > latest_start(higher batch)``): the
      higher tier's batch -- partial if need be -- dispatches instead, and
      the preempted candidate stays at the head of its tier with every
      request intact (work conserved).  Preemptions are counted in
      :attr:`num_preemptions` and surface on the report.

    Provably-late shedding applies to every tier alike; per-class shed
    accounting charges each drop to its own class.
    """

    name: str = "priority-deadline"
    #: Lower-tier batches deferred because dispatching them would have made
    #: a higher tier miss its latest feasible start.
    num_preemptions: int = field(default=0, init=False)
    _priorities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bind_fleet(self, fleet: list) -> None:
        super().bind_fleet(fleet)
        self.num_preemptions = 0
        self._priorities = {}

    def _priority(self, request: Request) -> int:
        name = request.request_class
        if name is None:
            return 0
        cached = self._priorities.get(name)
        if cached is None:
            try:
                cached = get_request_class(name).priority
            except KeyError:
                cached = 0
            self._priorities[name] = cached
        return cached

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        view = self._sync(queue)
        self._shed_late(queue, view, now)
        if not queue:
            return None
        tiers = view.tiers
        for rank, tier in enumerate(tiers):
            if not self._due(tier, now, draining):
                continue
            # The highest due tier wants to dispatch; check whether serving
            # it now would starve any *strictly higher* tier past its latest
            # feasible start.  If so, the higher tier preempts: its batch
            # (partial if need be) dispatches instead and the due candidate
            # never leaves its tier -- work conserved by construction.
            candidate = tier.requests[: self.batch_size]
            service = self._estimate(tuple(r.length for r in candidate))
            for higher in tiers[:rank]:
                if now + service > self._tier_latest(higher) + _TIME_EPS:
                    self.num_preemptions += 1
                    return self._take(queue, view, higher)
            return self._take(queue, view, tier)
        return None


# ----------------------------------------------------------------------
# Per-class report accounting
# ----------------------------------------------------------------------


@dataclass
class ClassSummary:
    """Aggregate accounting for one request class in a run."""

    name: str
    #: Requests offered (completed + shed) in this class.
    offered: int = 0
    completed: int = 0
    #: Completions that met their deadline (equals ``completed`` for
    #: deadline-less classes, where every completion is vacuously on time).
    on_time: int = 0
    #: Sheds by cause; the causes partition ``shed`` (disjoint by request).
    shed: int = 0
    shed_admission: int = 0
    shed_predicted: int = 0
    shed_late: int = 0
    shed_crashed: int = 0
    #: Fraction of this class's deadline-carrying offered requests that
    #: completed on time (None when the class carries no deadlines).
    attainment: float | None = None
    #: On-time completions of this class per second of run makespan.
    goodput_qps: float | None = None

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "on_time": self.on_time,
            "shed": self.shed,
            "shed_admission": self.shed_admission,
            "shed_predicted": self.shed_predicted,
            "shed_late": self.shed_late,
            "shed_crashed": self.shed_crashed,
            "attainment": self.attainment,
            "goodput_qps": self.goodput_qps,
        }


#: Display name for requests without a class when a run mixes tagged and
#: untagged traffic (all-untagged runs produce no class block at all).
UNTAGGED = "untagged"

#: The :class:`ClassSummary` counter each shed cause charges (any other
#: cause is admission control).
_SHED_COUNTERS = {
    "shed-predicted": "shed_predicted",
    "late": "shed_late",
    "crashed": "shed_crashed",
}


def collect_class_stats(report) -> None:
    """Derive per-class summaries from a finished report (any engine).

    Populates ``report.class_summaries`` (name -> :class:`ClassSummary`,
    insertion-ordered by descending priority then name) when at least one
    offered request carries a class, and leaves it ``None`` otherwise so
    untagged runs keep their historical report shape.  Shed causes come from
    the report's ``shed_causes`` map (request_id -> cause), which every shed
    site in the dispatch core and the engines maintains.
    """
    ledger, shed = report.ledger, report.shed_requests
    classes = ledger.column("request_class")
    if all(name is None for name in classes) and all(r.request_class is None for r in shed):
        report.class_summaries = None
        return
    causes = report.shed_causes
    summaries: dict[str, ClassSummary] = {}
    # Per class: deadline-carrying offered requests, and those met.
    with_deadline: dict[str, list] = {}

    def entry(name: str | None, count: int, slo: bool) -> ClassSummary:
        key = name if name is not None else UNTAGGED
        summary = summaries.setdefault(key, ClassSummary(name=key))
        summary.offered += count
        with_deadline.setdefault(key, [0, 0])[0] += count if slo else 0
        return summary

    # Completions per (class, on time, carries a deadline), counted in one pass.
    on_time_rows = ledger.column("on_time").tolist()
    outcomes = zip(classes, on_time_rows, ledger.column("has_deadline").tolist())
    for (name, on_time, slo), count in Counter(outcomes).items():
        summary = entry(name, count, slo)
        summary.completed += count
        if on_time:
            summary.on_time += count
            with_deadline[summary.name][1] += count if slo else 0
    for request in shed:
        summary = entry(request.request_class, 1, request.deadline is not None)
        summary.shed += 1
        cause = _SHED_COUNTERS.get(causes.get(request.request_id), "shed_admission")
        setattr(summary, cause, getattr(summary, cause) + 1)
    makespan = report.makespan_seconds
    for key, summary in summaries.items():
        offered_slo, met = with_deadline[key]
        if offered_slo:
            summary.attainment = met / offered_slo
        if makespan > 0:
            on_time_slo = met if offered_slo else summary.on_time
            summary.goodput_qps = on_time_slo / makespan

    def sort_key(item: tuple[str, ClassSummary]) -> tuple:
        try:
            priority = get_request_class(item[0]).priority
        except (KeyError, TypeError):
            priority = 0
        return (-priority, item[0])

    report.class_summaries = {
        key: summary for key, summary in sorted(summaries.items(), key=sort_key)
    }
