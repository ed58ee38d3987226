"""Fault injection, chaos remedies, and failure-aware routing (repro.faults).

The anchor tests here are the two the fault subsystem was built around:

* **Zero-fault identity** -- injecting a schedule whose every rate is zero
  must leave the serving report *byte-identical* (JSON compare) to a run
  with no injector at all, proving the fault plumbing costs nothing when
  dormant and never perturbs the deterministic replay contract.
* **Remedies beat no remedies** -- on a seeded crash+straggler schedule at
  equal offered load, the remedied stack (hedging + retry-with-backoff +
  failure-aware cost-model routing) must achieve *strictly higher* deadline
  attainment than the unremedied baseline.
"""

from __future__ import annotations

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import build_device, build_fleet
from repro.faults import (
    CrashRestartFaults,
    FaultInjector,
    ScriptedFaults,
    StragglerFaults,
    ThermalThrottleFaults,
    compose_timelines,
    get_fault_schedule,
)
from repro.serving import (
    PoissonArrivals,
    SLOSpec,
    TimeoutBatcher,
    get_router,
    simulate_online,
)


def _run(fleet, *, faults=None, router=None, slo_ms=None, qps=120.0, requests=96, **kwargs):
    return simulate_online(
        fleet,
        "mrpc",
        arrivals=PoissonArrivals(rate_qps=qps),
        num_requests=requests,
        batch_policy=TimeoutBatcher(batch_size=8, timeout_s=0.02),
        router=router or get_router("least-loaded"),
        slo=SLOSpec(base_s=slo_ms * 1e-3) if slo_ms is not None else None,
        faults=faults,
        **kwargs,
    )


class TestZeroFaultIdentity:
    def test_all_rates_zero_injection_is_byte_identical(self):
        """An inert injector must not move a single float in the payload."""
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        baseline = _run(fleet, slo_ms=200.0)
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        inert = _run(
            fleet,
            slo_ms=200.0,
            faults=[
                CrashRestartFaults(mtbf_s=0.0),
                StragglerFaults(mtbs_s=0.0),
                ThermalThrottleFaults(peak_multiplier=1.0),
            ],
        )
        base_payload = baseline.to_dict()
        inert_payload = inert.to_dict()
        # The only allowed difference: the injected (inert) schedule list.
        assert base_payload.pop("faults") is None
        assert inert_payload.pop("faults") is not None
        assert json.dumps(base_payload, sort_keys=True) == json.dumps(
            inert_payload, sort_keys=True
        )
        assert inert.num_crashes == 0
        assert inert.num_replayed == 0

    def test_fault_free_replay_unperturbed_by_unrelated_schedule_draws(self):
        """The fault RNG is its own stream: a crashy run on one fleet must
        not change the request stream (arrival times / lengths) it sees."""
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        crashy = _run(fleet, faults=[CrashRestartFaults(mtbf_s=0.3, downtime_s=0.05)])
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        clean = _run(fleet)
        crashy_arrivals = sorted(r.request.arrival_time for r in crashy.records)
        # Completed sets can differ (crashes shed), but every request that
        # completed in both runs arrived at the same instant with the same
        # length -- the fault stream never consumed arrival RNG.
        clean_by_id = {r.request.request_id: r.request for r in clean.records}
        for record in crashy.records:
            twin = clean_by_id.get(record.request.request_id)
            if twin is None:
                continue
            assert record.request.arrival_time == twin.arrival_time
            assert record.request.length == twin.length
        assert crashy_arrivals  # the crashy run did complete work


class TestScheduleDeterminism:
    def test_same_seed_same_timelines(self):
        schedules = (CrashRestartFaults(mtbf_s=1.0, downtime_s=0.2),)
        a = FaultInjector(schedules, num_devices=3, seed=7)
        b = FaultInjector(schedules, num_devices=3, seed=7)
        for device in range(3):
            ta, tb = a.timeline(device), b.timeline(device)
            assert ta.first_crash_in(0.0, 50.0) == tb.first_crash_in(0.0, 50.0)
            assert ta.crashes_before(50.0) == tb.crashes_before(50.0)
            assert ta.downtime_before(50.0) == tb.downtime_before(50.0)

    def test_different_seed_or_device_different_crashes(self):
        schedules = (CrashRestartFaults(mtbf_s=1.0, downtime_s=0.2),)
        a = FaultInjector(schedules, num_devices=2, seed=7)
        b = FaultInjector(schedules, num_devices=2, seed=8)
        assert (
            a.timeline(0).first_crash_in(0.0, 100.0)
            != b.timeline(0).first_crash_in(0.0, 100.0)
        )
        assert (
            a.timeline(0).first_crash_in(0.0, 100.0)
            != a.timeline(1).first_crash_in(0.0, 100.0)
        )

    def test_draw_count_independent_of_query_pattern(self):
        """Probing a timeline densely vs sparsely must not shift its events."""
        schedules = (CrashRestartFaults(mtbf_s=0.5, downtime_s=0.1),)
        dense = FaultInjector(schedules, num_devices=1, seed=3).timeline(0)
        sparse = FaultInjector(schedules, num_devices=1, seed=3).timeline(0)
        t = 0.0
        while t < 10.0:  # dense: every 10 ms
            dense.first_crash_in(t, t + 0.01)
            t += 0.01
        assert dense.first_crash_in(10.0, 20.0) == sparse.first_crash_in(10.0, 20.0)

    def test_registry_resolves_fault_kind(self):
        for name in ("crash-restart", "straggler", "thermal-throttle", "scripted"):
            assert get_fault_schedule(name) is not None

    def test_scripted_schedule_validates_events(self):
        with pytest.raises(ValueError):
            ScriptedFaults(crashes=((0, 1.0, 0.0),))
        with pytest.raises(ValueError):
            ScriptedFaults(slowdowns=((0, 2.0, 1.0, 1.5),))


def _scanned_next_online(timeline, t: float) -> float:
    """Reference ``next_online``: walk the windows from the first one."""
    timeline._ensure(t)
    online = t
    for crash, recover in timeline._windows:
        if crash > online:
            break
        if crash <= online < recover:
            online = recover
            timeline._ensure(online)
    return online


@st.composite
def _scripted_crashes(draw) -> ScriptedFaults:
    """Crash windows on device 0 that may touch (recover == next crash),
    leave a gap, or overlap the previous window."""
    crash = draw(st.floats(0.0, 1.0))
    crashes = []
    for _ in range(draw(st.integers(0, 8))):
        downtime = draw(st.floats(0.01, 1.0))
        crashes.append((0, crash, downtime))
        gap = draw(st.sampled_from([0.0, 0.3, -0.5 * downtime]))
        crash = max(crash + downtime + gap, 0.0)
    return ScriptedFaults(crashes=tuple(crashes))


def _query_times(data, timelines) -> float:
    """A time to query: arbitrary, or exactly a crash or recover instant."""
    instants = sorted({x for timeline in timelines for w in timeline._windows for x in w})
    anytime = st.floats(0.0, 12.0)
    return data.draw(anytime | st.sampled_from(instants) if instants else anytime)


_RENEWAL = st.builds(
    CrashRestartFaults, mtbf_s=st.floats(0.05, 2.0), downtime_s=st.floats(0.01, 1.0)
)


class TestNextOnline:
    """The bisected ``next_online`` equals the linear scan it replaced."""

    @given(data=st.data(), schedule=_RENEWAL | _scripted_crashes(), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_bisect_matches_linear_scan(self, data, schedule, seed):
        bisected = schedule.build_timeline(0, seed)
        scanned = schedule.build_timeline(0, seed)
        for _ in range(data.draw(st.integers(1, 20))):
            t = _query_times(data, [scanned])
            assert bisected.next_online(t) == _scanned_next_online(scanned, t)
            # Lazy extension generated the same history on both.
            assert bisected._windows == scanned._windows

    @given(
        data=st.data(), renewal=_RENEWAL, scripted=_scripted_crashes(), seed=st.integers(0, 99)
    )
    @settings(max_examples=40, deadline=None)
    def test_composite_matches_linear_scan(self, data, renewal, scripted, seed):
        bisected = compose_timelines(
            [renewal.build_timeline(0, seed), scripted.build_timeline(0, seed, 1)]
        )
        children = [renewal.build_timeline(0, seed), scripted.build_timeline(0, seed, 1)]
        for child in children:
            child.next_online = partial(_scanned_next_online, child)
        scanned = compose_timelines(children)
        for _ in range(data.draw(st.integers(1, 20))):
            t = _query_times(data, children)
            assert bisected.next_online(t) == scanned.next_online(t)

    def test_back_to_back_windows_chain(self):
        timeline = ScriptedFaults(crashes=((0, 1.0, 0.5), (0, 1.5, 0.25))).build_timeline(0, 0)
        assert timeline.next_online(1.0) == 1.75  # at a crash instant
        assert timeline.next_online(1.2) == 1.75  # recover == next crash
        assert timeline.next_online(1.75) == 1.75  # at the last recovery
        assert timeline.next_online(0.5) == 0.5


class TestCrashAccounting:
    def test_crashes_conserve_requests(self):
        """completed + shed (all causes) == offered, even under heavy crashing."""
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        report = _run(
            fleet,
            faults=[CrashRestartFaults(mtbf_s=0.2, downtime_s=0.05)],
            requests=96,
        )
        assert report.num_crashes > 0
        # Shed counters are per-cause and disjoint; shed_requests holds all.
        assert report.num_completed + len(report.shed_requests) == report.num_requests
        assert report.num_shed_crashed > 0
        assert report.num_shed == 0  # no admission control in this run
        per_device = sum(d.num_crashes for d in report.devices)
        assert per_device == report.num_crashes

    def test_requeue_exactly_once_then_shed(self):
        """Replay-once semantics: with max_retries=0, a request whose batch
        crashes twice is shed, not retried forever (mirrors the live
        gateway's requeue-exactly-once)."""
        device = build_device("gpu-rtx6000", dataset="mrpc")
        # One device, crashing so often that replayed batches crash again.
        report = _run(
            [device],
            faults=[CrashRestartFaults(mtbf_s=0.05, downtime_s=0.01)],
            requests=64,
            max_retries=0,
        )
        assert report.num_crashes > 1
        assert report.num_shed_crashed > 0
        assert report.num_retries == 0
        assert report.num_completed + len(report.shed_requests) == report.num_requests

    def test_retry_budget_reduces_crash_shedding(self):
        """Retries with backoff convert crash-sheds into completions."""
        kwargs = dict(
            faults=[CrashRestartFaults(mtbf_s=0.05, downtime_s=0.01)],
            requests=64,
        )
        no_retry = _run([build_device("gpu-rtx6000", dataset="mrpc")], **kwargs)
        retried = _run(
            [build_device("gpu-rtx6000", dataset="mrpc")],
            max_retries=4,
            retry_backoff_s=0.01,
            **kwargs,
        )
        assert retried.num_retries > 0
        assert retried.num_shed_crashed < no_retry.num_shed_crashed

    def test_downtime_and_blacklist_surface_in_payload(self):
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        router = get_router("cost-model", blacklist_s=0.1)
        report = _run(
            fleet,
            faults=[CrashRestartFaults(mtbf_s=0.2, downtime_s=0.05)],
            router=router,
            slo_ms=200.0,
        )
        payload = report.to_dict()
        assert payload["num_crashes"] == report.num_crashes > 0
        devices = payload["devices"]
        assert sum(d["num_crashes"] for d in devices) == report.num_crashes
        assert sum(d["downtime_s"] for d in devices) > 0.0
        assert sum(d["blacklisted_s"] for d in devices) > 0.0


class TestHedging:
    def test_hedging_is_deterministic(self):
        def once():
            fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
            report = _run(
                fleet,
                faults=[
                    CrashRestartFaults(mtbf_s=0.3, downtime_s=0.05),
                    StragglerFaults(mtbs_s=0.3, duration_s=0.1, multiplier=3.0),
                ],
                router=get_router("cost-model", blacklist_s=0.1),
                slo_ms=200.0,
                hedging=True,
            )
            return json.dumps(report.to_dict(), sort_keys=True)

        assert once() == once()

    def test_hedge_wins_counted_and_bounded(self):
        fleet = build_fleet("gpu-rtx6000", replicas=2, dataset="mrpc")
        report = _run(
            fleet,
            faults=[CrashRestartFaults(mtbf_s=0.3, downtime_s=0.05)],
            hedging=True,
        )
        assert report.num_hedged > 0
        assert 0 <= report.num_hedge_wins <= report.num_hedged
        assert sum(d.num_hedged for d in report.devices) == 2 * report.num_hedged


class TestRemediesBeatBaseline:
    def test_remedied_stack_strictly_higher_attainment(self):
        """The acceptance scenario matrix: hedging + backoff retries +
        failure-aware cost-model routing vs. an unremedied baseline, same
        seeded crash+straggler schedule, equal offered load."""
        faults = lambda: [  # noqa: E731 - fresh schedule objects per run
            CrashRestartFaults(mtbf_s=0.25, downtime_s=0.08),
            StragglerFaults(mtbs_s=0.25, duration_s=0.15, multiplier=3.0),
        ]
        common = dict(slo_ms=150.0, qps=80.0, requests=128)
        baseline = _run(
            build_fleet("gpu-rtx6000", replicas=3, dataset="mrpc"),
            faults=faults(),
            router=get_router("cost-model"),
            **common,
        )
        remedied = _run(
            build_fleet("gpu-rtx6000", replicas=3, dataset="mrpc"),
            faults=faults(),
            router=get_router("cost-model", blacklist_s=0.2),
            hedging=True,
            max_retries=2,
            retry_backoff_s=0.01,
            **common,
        )
        assert baseline.num_crashes > 0, "scenario must actually crash"
        assert remedied.attainment_rate > baseline.attainment_rate
        # Remedies also recover work: strictly fewer crash-sheds.
        assert remedied.num_shed_crashed <= baseline.num_shed_crashed
