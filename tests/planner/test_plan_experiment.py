"""End-to-end tests of the ``plan`` experiment on the reference trace."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_report
from repro.experiments.spec import run_experiment
from repro.planner import PlanConfig, fleet_price_per_hour

_REPO_ROOT = Path(__file__).resolve().parents[2]
_REFERENCE_FRONTIER = _REPO_ROOT / "benchmarks" / "results" / "planner_pareto.json"


@pytest.fixture(scope="module")
def reference_plan():
    """One search of the checked-in reference trace, shared across tests."""
    return run_experiment("plan")


class TestReferencePlan:
    def test_chosen_is_cheapest_feasible(self, reference_plan):
        search = reference_plan.search
        chosen = search.chosen
        assert chosen is not None
        assert chosen.meets_target
        assert chosen.attainment >= 0.95
        # Cheapest: every evaluated candidate that costs less missed the target.
        for candidate in search.candidates:
            if candidate.price_per_hour_usd < chosen.price_per_hour_usd:
                assert not candidate.meets_target
        # Ordering puts the winner first among feasible candidates.
        feasible = [c for c in search.candidates if c.meets_target]
        assert feasible[0] is chosen

    def test_reference_trace_picks_two_rtx6000(self, reference_plan):
        # Pinned outcome on the checked-in trace: one RTX 6000 tops out at
        # ~51% attainment during the diurnal peak, two clear 95%, and every
        # cheaper composition (xeons, single FPGA) falls short.
        assert reference_plan.search.chosen.fleet == "2x gpu-rtx6000"
        assert reference_plan.search.chosen.price_per_hour_usd == pytest.approx(2.50)

    def test_pruned_are_supersets_of_feasible(self, reference_plan):
        search = reference_plan.search
        assert search.pruned, "the default search should prune something"
        feasible = {c.counts for c in search.candidates if c.meets_target}
        for candidate in search.pruned:
            assert not candidate.evaluated
            assert candidate.pruned_by in feasible
            assert all(
                mine >= base
                for mine, base in zip(candidate.counts, candidate.pruned_by)
            )
            # Pruning is exact for the objective: a superset always costs more.
            assert candidate.price_per_hour_usd > fleet_price_per_hour(
                candidate.pruned_by, search.device_prices
            )

    def test_bookkeeping_adds_up(self, reference_plan):
        search = reference_plan.search
        assert search.num_enumerated == len(search.candidates) + len(search.pruned)
        assert reference_plan.num_requests == 300

    def test_energy_frontier_includes_fpga_fleet(self, reference_plan):
        # The three-axis frontier is the point of the report: the cheapest
        # feasible fleet is GPU-based, but the paper's sparse FPGA buys the
        # lowest J/Mreq at a higher price -- both must survive domination.
        frontier_fleets = {c.fleet for c in reference_plan.search.frontier}
        assert "2x gpu-rtx6000" in frontier_fleets
        assert "2x sparse-fpga" in frontier_fleets

    def test_frontier_matches_checked_in_reference(self, reference_plan):
        reference = json.loads(_REFERENCE_FRONTIER.read_text())
        frontier = [c.to_dict() for c in reference_plan.search.frontier]
        assert frontier == reference["pareto_frontier"]
        assert reference_plan.search.chosen.to_dict() == reference["chosen"]


class TestJobsDeterminism:
    def test_parallel_plan_is_byte_identical(self):
        serial = run_report("plan", {"jobs": 1})
        parallel = run_report("plan", {"jobs": 4})
        # The config payload records the jobs knob; the plan itself -- chosen
        # fleet, candidate metrics, frontier -- must be byte-identical.
        assert json.dumps(serial.payload["result"], indent=2) == json.dumps(
            parallel.payload["result"], indent=2
        )
        assert serial.payload["config"]["jobs"] == 1
        assert parallel.payload["config"]["jobs"] == 4


class TestPruningKnob:
    def test_prune_off_evaluates_everything(self):
        result = run_experiment("plan", prune=False, max_per_type=1, max_total=2)
        assert not result.search.pruned
        assert len(result.search.candidates) == result.search.num_enumerated

    def test_prune_never_changes_the_winner(self):
        kwargs = {"max_per_type": 1, "max_total": 2}
        pruned = run_experiment("plan", prune=True, **kwargs)
        full = run_experiment("plan", prune=False, **kwargs)
        assert pruned.search.chosen.to_dict() == full.search.chosen.to_dict()


class TestGeneratedWorkloads:
    def test_rate_driven_arrival_builds_a_plan(self):
        result = run_experiment(
            "plan",
            arrival="poisson",
            qps=40.0,
            requests=64,
            devices=("gpu-rtx6000",),
            max_per_type=2,
            max_total=2,
        )
        assert result.trace_source == "poisson@40qps"
        assert result.search.num_enumerated == 2

    def test_rate_driven_arrival_requires_qps_and_requests(self):
        with pytest.raises(ValueError, match="qps"):
            PlanConfig(arrival="poisson").validate()
        with pytest.raises(ValueError, match="requests"):
            PlanConfig(arrival="poisson", qps=50.0).validate()


class TestConfigValidation:
    def test_rejects_unknown_device(self):
        with pytest.raises(ValueError):
            PlanConfig(devices=("no-such-device",)).validate()

    def test_rejects_duplicate_catalog_entry(self):
        with pytest.raises(ValueError, match="repeat"):
            PlanConfig(devices=("sparse-fpga", "sparse-fpga")).validate()

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            PlanConfig(attainment_target=0.0).validate()
        with pytest.raises(ValueError):
            PlanConfig(attainment_target=1.5).validate()

    def test_rejects_deadline_free_plan(self):
        with pytest.raises(ValueError, match="slo_ms"):
            PlanConfig(slo_ms=0.0).validate()

    def test_rejects_unpriced_catalog(self):
        # An unpriced device would make "cheapest" meaningless and break the
        # pruning argument; the search refuses to rank such a catalog.
        from repro.devices import Device
        from repro.planner.search import _catalog_prices
        from repro.registry import REGISTRY

        class _Free(Device):
            name = "tiny-free"
            backend = "test"

            def __init__(self, model="bert-base", dataset="mrpc"):
                super().__init__()

        if "tiny-free" not in REGISTRY.available("device"):
            REGISTRY.add("device", "tiny-free", lambda **kw: _Free(**kw))
        with pytest.raises(ValueError, match="price"):
            _catalog_prices(PlanConfig(devices=("tiny-free",)))
