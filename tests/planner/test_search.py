"""Unit tests of the planner's search machinery (no simulation runs)."""

from __future__ import annotations

import json

import pytest

from repro.planner import (
    CandidateResult,
    enumerate_compositions,
    fleet_price_per_hour,
    pareto_frontier,
    reference_trace_path,
)
from repro.planner.search import _is_strict_superset
from repro.serving.arrivals import load_trace


class TestEnumeration:
    def test_counts_and_bounds(self):
        compositions = enumerate_compositions(3, max_per_type=2, max_total=3)
        assert len(compositions) == 16  # 3^3 - empty - ten over-budget vectors
        assert all(1 <= sum(c) <= 3 for c in compositions)
        assert all(max(c) <= 2 for c in compositions)
        assert len(set(compositions)) == len(compositions)

    def test_single_type(self):
        assert enumerate_compositions(1, max_per_type=4, max_total=2) == [(1,), (2,)]

    def test_total_cap_binds(self):
        compositions = enumerate_compositions(2, max_per_type=5, max_total=1)
        assert sorted(compositions) == [(0, 1), (1, 0)]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            enumerate_compositions(0, 1, 1)
        with pytest.raises(ValueError):
            enumerate_compositions(2, 0, 1)
        with pytest.raises(ValueError):
            enumerate_compositions(2, 1, 0)


class TestPriceMath:
    # Hand-computed against the catalog defaults: sparse-fpga $1.65/hr,
    # gpu-rtx6000 $1.25/hr, cpu-xeon $0.45/hr.
    PRICES = (1.65, 1.25, 0.45)

    def test_hand_computed_rates(self):
        assert fleet_price_per_hour((1, 0, 0), self.PRICES) == pytest.approx(1.65)
        assert fleet_price_per_hour((0, 2, 0), self.PRICES) == pytest.approx(2.50)
        assert fleet_price_per_hour((1, 2, 0), self.PRICES) == pytest.approx(4.15)
        assert fleet_price_per_hour((1, 1, 1), self.PRICES) == pytest.approx(3.35)
        assert fleet_price_per_hour((0, 0, 0), self.PRICES) == 0.0

    def test_price_order_is_search_order(self):
        compositions = enumerate_compositions(3, 2, 3)
        ordered = sorted(
            compositions, key=lambda c: (fleet_price_per_hour(c, self.PRICES), c)
        )
        rates = [fleet_price_per_hour(c, self.PRICES) for c in ordered]
        assert rates == sorted(rates)
        assert ordered[0] == (0, 0, 1)  # one cpu-xeon is the cheapest fleet


class TestSupersetPruning:
    def test_strict_superset(self):
        assert _is_strict_superset((1, 2, 0), (0, 2, 0))
        assert _is_strict_superset((1, 1, 1), (1, 1, 0))
        assert not _is_strict_superset((0, 2, 0), (0, 2, 0))  # not strict
        assert not _is_strict_superset((2, 0, 0), (0, 1, 0))  # not a superset


def _candidate(price, attainment, energy):
    return CandidateResult(
        devices=("a",),
        counts=(1,),
        price_per_hour_usd=price,
        attainment=attainment,
        joules_per_mreq=energy,
        evaluated=True,
    )


class TestParetoFrontier:
    def test_dominated_point_dropped(self):
        cheap_good = _candidate(1.0, 0.9, 100.0)
        dear_worse = _candidate(2.0, 0.8, 200.0)  # worse on all three axes
        frontier = pareto_frontier([cheap_good, dear_worse])
        assert frontier == [cheap_good]

    def test_three_axis_tradeoff_all_kept(self):
        cheapest = _candidate(1.0, 0.5, 300.0)
        most_on_time = _candidate(3.0, 1.0, 300.0)
        greenest = _candidate(2.0, 0.5, 50.0)
        frontier = pareto_frontier([cheapest, most_on_time, greenest])
        assert frontier == [cheapest, most_on_time, greenest]

    def test_missing_metrics_count_as_worst(self):
        measured = _candidate(1.0, 0.9, 100.0)
        unmetered = _candidate(1.0, 0.9, None)
        no_deadlines = _candidate(1.0, None, 100.0)
        frontier = pareto_frontier([measured, unmetered, no_deadlines])
        assert frontier == [measured]


class TestReferenceTrace:
    def test_checked_in_and_loadable(self):
        path = reference_trace_path()
        assert path.is_file()
        trace = load_trace(path)
        assert len(trace) == 300
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert all(length >= 1 for _, length in trace)

    def test_load_trace_plain_times(self, tmp_path):
        path = tmp_path / "times.json"
        path.write_text(json.dumps([0.0, 0.5, 1.0]))
        assert load_trace(path) == (0.0, 0.5, 1.0)

    def test_load_trace_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_trace(path)
