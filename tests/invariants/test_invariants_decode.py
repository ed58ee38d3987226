"""Cross-scenario invariants of the two-phase (prefill/decode) engine.

The decode engine runs on the simulator's dispatch core and event loop but
adds KV admission and iteration-level decode steps, so the conservation /
immutability / work invariants are re-asserted here over a subset of the
scenario space (fault injection is not wired through the decode engine).
"""

from __future__ import annotations

import pytest

from invariant_harness import (
    Scenario,
    build_scenario_fleet,
    check_all,
    check_zero_class_shape,
    generate_scenarios,
    offered_requests,
    scenario_engine_kwargs,
)
from repro.decode.engine import simulate_decode_online

#: Decode scenarios: an independent seed, faults stripped (unsupported).
SCENARIOS = [
    s for s in generate_scenarios(count=12, seed=0xDEC0) if s.fault is None
]


def _run(scenario: Scenario, iteration_level: bool = True):
    fleet = build_scenario_fleet(scenario)
    kwargs = scenario_engine_kwargs(scenario)
    return simulate_decode_online(
        fleet,
        "mrpc",
        output_lengths="geometric",
        iteration_level=iteration_level,
        **kwargs,
    )


@pytest.mark.parametrize("scenario", SCENARIOS, ids=str)
def test_scenario_invariants(scenario):
    report = _run(scenario)
    offered = offered_requests(scenario)
    check_all(report, offered)
    if scenario.mix is None:
        assert report.class_summaries is None
    else:
        assert report.class_summaries is not None


def test_gang_admission_upholds_invariants_too():
    scenario = next(s for s in SCENARIOS if s.mix is not None)
    report = _run(scenario, iteration_level=False)
    check_all(report, offered_requests(scenario))


def test_zero_class_decode_report_has_no_class_keys():
    scenario = next(
        s for s in SCENARIOS if s.mix is None and s.policy != "priority-deadline"
    )
    check_zero_class_shape(_run(scenario))
