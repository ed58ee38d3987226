"""Fleet-composition search: the cheapest fleet that meets the target.

The search space is every *composition* -- a count per catalog device name,
bounded by ``max_per_type`` and ``max_total`` -- and the objective is the
cheapest composition (by fleet $/hr) whose deadline attainment on the
workload reaches ``attainment_target``.  Three properties make the search
practical and reproducible:

* **Price-ordered enumeration.**  Candidates are sorted by
  ``(fleet $/hr, counts)`` before any evaluation, so the first feasible
  candidate in that order *is* the cheapest feasible fleet, with
  deterministic tie-breaking.
* **Exact superset pruning.**  Once a composition is known feasible, every
  strict componentwise superset is skipped: device prices are positive, so
  a superset costs strictly more and can never be the cheapest feasible
  fleet.  (It also cannot improve the Pareto frontier's cost axis; the
  extra idle hardware only adds cost and idle energy.)  Pruned candidates
  are reported with the composition that eliminated them.
* **Wave-parallel evaluation.**  Candidates are evaluated through
  :func:`repro.serving.simulate_online` in fixed-size waves whose
  partitioning does **not** depend on ``jobs``; pruning decisions happen
  only at wave boundaries.  Workers return plain scalar summaries, so
  ``jobs=1`` and ``jobs=4`` produce byte-identical results.

The module also computes the Pareto frontier over the three axes a buyer
actually trades off: fleet $/hr (minimize), attainment (maximize), and
J/Mreq (minimize).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..devices import Device, build_device, build_fleet, split_fleet_spec
from ..evaluation.fan_out import fan_out
from ..evaluation.serving_sweep import slo_spec_from_ms
from ..serving.arrivals import TraceArrivals
from ..serving.engine import OnlineServingReport, simulate_online
from ..serving.policies import get_batch_policy
from ..serving.routing import get_router

if TYPE_CHECKING:
    from .experiment import PlanConfig

#: Candidates evaluated per wave.  Fixed (never derived from ``jobs``) so
#: the pruning decisions -- taken at wave boundaries -- are identical
#: whatever the parallelism, which is what makes ``--jobs`` byte-stable.
_WAVE_SIZE = 8

__all__ = [
    "CandidateResult",
    "PlanSearchResult",
    "enumerate_compositions",
    "evaluate_composition",
    "fleet_price_per_hour",
    "pareto_frontier",
    "reference_trace_path",
    "search_fleets",
]


def reference_trace_path() -> Path:
    """The checked-in reference arrival trace the default plan runs against."""
    return Path(__file__).resolve().parent / "traces" / "reference_trace.json"


def enumerate_compositions(
    num_types: int, max_per_type: int, max_total: int
) -> list[tuple[int, ...]]:
    """All count vectors with ``1 <= sum(counts) <= max_total``, each ``<= max_per_type``."""
    if num_types < 1:
        raise ValueError("need at least one device type")
    if max_per_type < 1:
        raise ValueError("max_per_type must be >= 1")
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    compositions: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            if 0 < sum(prefix) <= max_total:
                compositions.append(prefix)
            return
        for count in range(max_per_type + 1):
            if sum(prefix) + count > max_total:
                break
            extend(prefix + (count,), remaining - 1)

    extend((), num_types)
    return compositions


def fleet_price_per_hour(
    counts: tuple[int, ...], prices: tuple[float, ...]
) -> float:
    """Dollar rate of a static composition: sum of count x device price."""
    return float(sum(count * price for count, price in zip(counts, prices)))


def _is_strict_superset(counts: tuple[int, ...], base: tuple[int, ...]) -> bool:
    """True when ``counts`` contains ``base`` componentwise and adds devices."""
    return counts != base and all(c >= b for c, b in zip(counts, base))


@dataclass
class CandidateResult:
    """One evaluated fleet composition with its planner-facing scalars."""

    devices: tuple[str, ...]
    counts: tuple[int, ...]
    price_per_hour_usd: float
    attainment: float | None = None
    goodput_qps: float | None = None
    cost_usd: float | None = None
    joules_per_mreq: float | None = None
    makespan_seconds: float | None = None
    num_completed: int | None = None
    meets_target: bool = False
    evaluated: bool = False
    #: The feasible composition whose superset relation pruned this one.
    pruned_by: tuple[int, ...] | None = None

    @property
    def fleet(self) -> str:
        """Human-readable composition, e.g. ``2x sparse-fpga + 1x cpu-xeon``."""
        parts = [
            f"{count}x {name}"
            for name, count in zip(self.devices, self.counts)
            if count > 0
        ]
        return " + ".join(parts)

    def to_dict(self) -> dict:
        return {
            "fleet": self.fleet,
            "counts": list(self.counts),
            "price_per_hour_usd": round(self.price_per_hour_usd, 6),
            "attainment": None if self.attainment is None else round(self.attainment, 6),
            "goodput_qps": None if self.goodput_qps is None else round(self.goodput_qps, 6),
            "cost_usd": None if self.cost_usd is None else round(self.cost_usd, 6),
            "joules_per_mreq": (
                None if self.joules_per_mreq is None else round(self.joules_per_mreq, 3)
            ),
            "makespan_seconds": (
                None if self.makespan_seconds is None else round(self.makespan_seconds, 6)
            ),
            "num_completed": self.num_completed,
            "meets_target": self.meets_target,
            "evaluated": self.evaluated,
            "pruned_by": None if self.pruned_by is None else list(self.pruned_by),
        }


@dataclass
class PlanSearchResult:
    """Outcome of one fleet search: the winner plus the full evaluated field."""

    devices: tuple[str, ...]
    device_prices: tuple[float, ...]
    attainment_target: float
    num_enumerated: int
    #: Evaluated candidates, in (fleet $/hr, counts) order.
    candidates: list[CandidateResult] = field(default_factory=list)
    #: Candidates skipped by superset pruning, in the same order.
    pruned: list[CandidateResult] = field(default_factory=list)
    #: Cheapest feasible composition, or None when nothing met the target.
    chosen: CandidateResult | None = None
    #: Pareto-optimal evaluated candidates over ($/hr min, attainment max,
    #: J/Mreq min), in (fleet $/hr, counts) order.
    frontier: list[CandidateResult] = field(default_factory=list)


def _composition_fleet(config: PlanConfig, counts: tuple[int, ...]) -> list[Device]:
    """Build the fleet holding ``counts[i]`` copies of catalog entry ``i``."""
    names: list[str] = []
    for name, count in zip(split_fleet_spec(config.devices), counts):
        names.extend([name] * count)
    return build_fleet(
        names,
        model=config.model,
        dataset=config.dataset,
        cache_length_bucket=config.cache_length_bucket,
    )


def _replay_trace(
    config: PlanConfig, trace: tuple, fleet: list[Device], **engine_knobs
) -> OnlineServingReport:
    """Replay the plan's trace on one fleet with the plan's serving knobs."""
    return simulate_online(
        fleet,
        config.dataset,
        TraceArrivals(trace=trace),
        num_requests=config.requests,
        batch_policy=get_batch_policy(
            config.batch_policy,
            batch_size=config.batch_size,
            timeout_s=config.timeout_ms * 1e-3,
        ),
        router=get_router(config.routing),
        seed=config.seed,
        continuous_batching=config.continuous_batching,
        slo=slo_spec_from_ms(config.slo_ms, config.slo_per_token_ms),
        **engine_knobs,
    )


def evaluate_composition(config: PlanConfig, trace: tuple, counts: tuple[int, ...]) -> dict:
    """Replay the plan's trace on one composition; return plain scalars only.

    The return value must stay picklable *and* free of anything
    runtime-dependent (timings, cache counters), because ``--jobs 1`` and
    ``--jobs 4`` must produce byte-identical plans.
    """
    report = _replay_trace(config, trace, _composition_fleet(config, counts))
    return {
        "attainment": report.attainment_rate,
        "goodput_qps": report.goodput_qps,
        "cost_usd": report.cost_usd,
        "joules_per_mreq": report.joules_per_million_requests,
        "makespan_seconds": report.makespan_seconds,
        "num_completed": report.num_completed,
    }


def _catalog_prices(config: PlanConfig) -> tuple[float, ...]:
    """Per-hour price of each catalog entry, read off probe devices.

    Building a probe honours registry aliases and any factory defaults, so
    the ordering prices are exactly what the evaluated fleets will bill.
    """
    prices = []
    for name in split_fleet_spec(config.devices):
        device = build_device(name, model=config.model, dataset=config.dataset)
        price = getattr(device, "price_per_hour_usd", None)
        if price is None or price <= 0:
            raise ValueError(
                f"device '{name}' has no positive price_per_hour_usd; the "
                "planner can only rank priced devices"
            )
        prices.append(float(price))
    return tuple(prices)


def pareto_frontier(candidates: list[CandidateResult]) -> list[CandidateResult]:
    """Non-dominated candidates over ($/hr min, attainment max, J/Mreq min).

    A candidate is dominated when another is at least as good on all three
    axes and strictly better on one.  Missing attainment counts as worst
    (never served a deadline), missing energy as worst (unmetered fleet).
    """

    def axes(candidate: CandidateResult) -> tuple[float, float, float]:
        attainment = -1.0 if candidate.attainment is None else candidate.attainment
        energy = float("inf") if candidate.joules_per_mreq is None else candidate.joules_per_mreq
        return (candidate.price_per_hour_usd, -attainment, energy)

    frontier = []
    for candidate in candidates:
        mine = axes(candidate)
        dominated = False
        for other in candidates:
            if other is candidate:
                continue
            theirs = axes(other)
            if all(t <= m for t, m in zip(theirs, mine)) and theirs != mine:
                dominated = True
                break
        if not dominated:
            frontier.append(candidate)
    return frontier


def search_fleets(config: PlanConfig, trace: tuple) -> PlanSearchResult:
    """Run the fleet-composition search of one ``plan`` config over ``trace``.

    The frozen config carries everything else: the device catalog, the SLO,
    batching and routing knobs, the search bounds ``max_per_type`` /
    ``max_total`` / ``attainment_target``, ``prune``, and ``jobs``, which
    parallelizes evaluation inside each wave (workers receive the config
    and the trace as they are; the result is byte-identical whatever
    ``jobs`` is).
    """
    devices = tuple(split_fleet_spec(config.devices))
    prices = _catalog_prices(config)
    compositions = enumerate_compositions(len(devices), config.max_per_type, config.max_total)
    ordered = sorted(
        compositions, key=lambda counts: (fleet_price_per_hour(counts, prices), counts)
    )

    result = PlanSearchResult(
        devices=devices,
        device_prices=prices,
        attainment_target=config.attainment_target,
        num_enumerated=len(ordered),
    )
    feasible: list[tuple[int, ...]] = []

    def make_candidate(counts: tuple[int, ...]) -> CandidateResult:
        return CandidateResult(
            devices=result.devices,
            counts=counts,
            price_per_hour_usd=fleet_price_per_hour(counts, prices),
        )

    def record(candidate: CandidateResult, summary: dict) -> None:
        candidate.evaluated = True
        for key, value in summary.items():
            setattr(candidate, key, value)
        candidate.meets_target = (
            candidate.attainment is not None
            and candidate.attainment >= config.attainment_target
        )
        result.candidates.append(candidate)
        if candidate.meets_target:
            feasible.append(candidate.counts)
            if result.chosen is None:
                result.chosen = candidate

    queue = list(ordered)
    with fan_out(config.jobs) as run:
        while queue:
            wave, queue = queue[:_WAVE_SIZE], queue[_WAVE_SIZE:]
            kept: list[tuple[int, ...]] = []
            for counts in wave:
                pruned_by = next(
                    (base for base in feasible if _is_strict_superset(counts, base)),
                    None,
                )
                if config.prune and pruned_by is not None:
                    candidate = make_candidate(counts)
                    candidate.pruned_by = pruned_by
                    result.pruned.append(candidate)
                else:
                    kept.append(counts)
            summaries = run(evaluate_composition, [(config, trace, counts) for counts in kept])
            for counts, summary in zip(kept, summaries):
                record(make_candidate(counts), summary)

    result.frontier = pareto_frontier(result.candidates)
    return result
