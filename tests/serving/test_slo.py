"""Tests for SLO-aware serving: deadlines, EDF batching, cost routing, limits."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import AnalyticalDevice, CycleAccurateDevice, ScheduleCache, build_fleet
from repro.faults import CrashRestartFaults, FaultInjector, StragglerFaults
from repro.hardware.accelerator import build_sparse_accelerator
from repro.hardware.buffers import DoubleBuffer
from repro.platforms.devices import RTX_6000
from repro.serving import (
    ClosedLoopArrivals,
    CostModelRouter,
    DeadlineBatcher,
    FixedSizeBatcher,
    LengthBucketedBatcher,
    LengthShardedRouter,
    PoissonArrivals,
    PriorityDeadlineBatcher,
    Request,
    RoundRobinRouter,
    SLOSpec,
    TimeoutBatcher,
    assign_deadlines,
    simulate_online,
)
from repro.serving.policies import _TIME_EPS
from repro.serving.slo import ProvablyLate
from repro.transformer.configs import MRPC, ModelConfig

_SMALL_MODEL = ModelConfig(name="slo-2L", num_layers=2, hidden_dim=768, num_heads=12)


def _build(dataset=MRPC):
    return build_sparse_accelerator(
        _SMALL_MODEL, top_k=30, avg_seq=dataset.avg_length, max_seq=dataset.max_length
    )


@pytest.fixture(scope="module")
def capacity_qps():
    return simulate_online(
        _build(),
        MRPC,
        ClosedLoopArrivals(sort_by_length=True),
        num_requests=64,
        batch_policy=FixedSizeBatcher(batch_size=16),
    ).sustained_qps


class TestRequestDeadlines:
    def test_deadline_validates_against_arrival(self):
        Request(request_id=0, length=10, arrival_time=1.0, deadline=1.0)  # zero slack ok
        with pytest.raises(ValueError):
            Request(request_id=0, length=10, arrival_time=1.0, deadline=0.5)

    def test_slo_seconds(self):
        request = Request(request_id=0, length=10, arrival_time=1.0, deadline=1.25)
        assert request.slo_seconds == pytest.approx(0.25)
        assert Request(request_id=1, length=10, arrival_time=0.0).slo_seconds is None

    def test_spec_assigns_base_plus_per_token(self):
        spec = SLOSpec(base_s=0.1, per_token_s=0.001)
        stamped = assign_deadlines(
            [Request(request_id=0, length=50, arrival_time=2.0)], spec
        )
        assert stamped[0].deadline == pytest.approx(2.0 + 0.1 + 0.05)

    @pytest.mark.parametrize(
        "request_",
        [
            Request(request_id=3, length=50, arrival_time=2.0, request_class="batch"),
            Request(request_id=4, length=50, arrival_time=2.0, output_len=7),
        ],
    )
    def test_stamping_matches_dataclasses_replace(self, request_):
        spec = SLOSpec(base_s=0.1, per_token_s=0.001, per_output_token_s=0.01)
        (stamped,) = assign_deadlines([request_], spec)
        expected = dataclasses.replace(request_, deadline=spec.deadline_for(request_))
        assert type(stamped) is type(request_)
        assert stamped == expected

    def test_existing_deadlines_are_preserved(self):
        explicit = Request(request_id=0, length=50, arrival_time=2.0, deadline=2.01)
        assert assign_deadlines([explicit], SLOSpec(base_s=9.9))[0].deadline == 2.01

    def test_spec_rejects_negative_budgets(self):
        with pytest.raises(ValueError):
            SLOSpec(base_s=-0.1)
        with pytest.raises(ValueError):
            SLOSpec(per_token_s=-1e-6)


    @pytest.mark.parametrize("knob", ["base_s", "per_token_s", "per_output_token_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_budgets(self, knob, value):
        # NaN slips past a plain `< 0` check and would stamp NaN deadlines.
        with pytest.raises(ValueError, match="finite"):
            SLOSpec(**{knob: value})


class TestAttainmentAccounting:
    def test_no_slo_reports_none(self):
        report = simulate_online(
            _build(), MRPC, PoissonArrivals(rate_qps=200), num_requests=32
        )
        assert report.attainment_rate is None
        assert report.goodput_qps is None
        assert "attainment" not in report.as_row()
        assert report.to_dict()["attainment_rate"] is None

    def test_generous_slo_attains_everything(self, capacity_qps):
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=0.3 * capacity_qps),
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.005),
            slo=SLOSpec(base_s=60.0),
        )
        assert report.attainment_rate == 1.0
        assert report.goodput_qps == pytest.approx(report.sustained_qps)
        assert report.num_shed_late == 0
        row = report.as_row()
        assert row["attainment"] == 1.0

    def test_on_time_matches_deadline_comparison(self, capacity_qps):
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=0.8 * capacity_qps),
            num_requests=64,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
            slo=SLOSpec(base_s=0.05),
        )
        served_on_time = sum(
            1 for r in report.records if r.completion_time <= r.deadline + 1e-9
        )
        total = len(report.records) + report.num_shed + report.num_shed_late
        assert report.attainment_rate == pytest.approx(served_on_time / total)

    def test_attainment_under_warmup_separation(self, capacity_qps):
        """Steady-state attainment charges shed requests to the right window."""
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=1.2 * capacity_qps),
            num_requests=96,
            batch_policy=DeadlineBatcher(batch_size=16, timeout_s=0.02),
            slo=SLOSpec(base_s=0.05),
        )
        assert report.num_shed_late > 0
        warmup = 0.25
        cutoff = warmup * report.arrival_horizon_seconds
        served = [
            r for r in report.steady_records(warmup) if r.deadline is not None
        ]
        shed = [
            r
            for r in report.shed_requests
            if r.deadline is not None and r.arrival_time >= cutoff
        ]
        expected = sum(1 for r in served if r.on_time) / (len(served) + len(shed))
        assert report.steady_attainment_rate(warmup) == pytest.approx(expected)
        # Shed bookkeeping partitions the offered stream.
        assert (
            report.num_completed + report.num_shed + report.num_shed_late
            == report.num_requests
        )


_DEADLINE_KNOBS = {"batch_size", "timeout_s", "margin_s", "shed_late", "name"}
_BUCKET_KNOBS = {"batch_size", "timeout_s", "num_buckets", "bucket_width", "bucket_edges", "name"}


@pytest.mark.parametrize(
    "cls, knobs",
    [
        (DeadlineBatcher, _DEADLINE_KNOBS),
        (PriorityDeadlineBatcher, _DEADLINE_KNOBS),
        (CostModelRouter, {"blacklist_s", "name"}),
        (RoundRobinRouter, {"name"}),
        (LengthShardedRouter, {"edges", "name"}),
        (LengthBucketedBatcher, _BUCKET_KNOBS),
        (FaultInjector, {"schedules", "num_devices", "seed"}),
        (DoubleBuffer, {"num_slots", "name"}),
    ],
)
def test_constructors_take_only_the_documented_knobs(cls, knobs):
    fields = dataclasses.fields(cls)
    assert {f.name for f in fields if f.init} == knobs
    for private in (f.name for f in fields if f.name.startswith("_")):
        assert not any(f.repr or f.compare for f in fields if f.name == private)
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(**{private: None})


class TestDeadlineBatcher:
    def test_zero_slack_requests_are_all_shed(self):
        """base_s=0, per_token_s=0: nothing can meet its deadline."""
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=200),
            num_requests=32,
            batch_policy=DeadlineBatcher(batch_size=16),
            slo=SLOSpec(base_s=0.0, per_token_s=0.0),
        )
        assert report.num_shed_late == 32
        assert report.num_completed == 0
        assert report.attainment_rate == 0.0
        assert len(report.batches) == 0

    def test_shedding_can_be_disabled(self):
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=200),
            num_requests=32,
            batch_policy=DeadlineBatcher(batch_size=16, shed_late=False),
            slo=SLOSpec(base_s=0.0),
        )
        assert report.num_shed_late == 0
        assert report.num_completed == 32
        assert report.attainment_rate == 0.0

    def test_edf_dispatch_order_prefers_tight_deadlines(self):
        """With mixed budgets, the tightest requests ride the first batch."""
        requests = [
            Request(request_id=0, length=40, arrival_time=0.0, deadline=10.0),
            Request(request_id=1, length=40, arrival_time=0.0, deadline=0.05),
            Request(request_id=2, length=40, arrival_time=0.0, deadline=5.0),
            Request(request_id=3, length=40, arrival_time=0.0, deadline=0.06),
        ]
        report = simulate_online(
            _build(),
            MRPC,
            requests,
            batch_policy=DeadlineBatcher(batch_size=2, timeout_s=10.0),
        )
        first = next(b for b in report.batches if b.batch_id == 0)
        assert sorted(first.request_ids) == [1, 3]

    def test_deadline_pressure_beats_fixed_timeout_wait(self, capacity_qps):
        """A 20 ms budget under a 20 ms batching timeout: EDF dispatches early
        instead of letting the oldest request age the full timeout."""
        kwargs = dict(num_requests=64, slo=SLOSpec(base_s=0.02), seed=5)
        arrivals = PoissonArrivals(rate_qps=0.6 * capacity_qps)
        blind = simulate_online(
            _build(), MRPC, arrivals,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02), **kwargs
        )
        aware = simulate_online(
            _build(), MRPC, arrivals,
            batch_policy=DeadlineBatcher(batch_size=16, timeout_s=0.02), **kwargs
        )
        assert aware.attainment_rate > blind.attainment_rate

    def test_works_without_deadlines_like_timeout(self, capacity_qps):
        """Deadline-less streams fall back to the timeout escape hatch."""
        report = simulate_online(
            _build(),
            MRPC,
            PoissonArrivals(rate_qps=0.5 * capacity_qps),
            num_requests=48,
            batch_policy=DeadlineBatcher(batch_size=16, timeout_s=0.01),
        )
        assert report.num_completed == 48
        assert report.num_shed_late == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBatcher(batch_size=0)
        with pytest.raises(ValueError):
            DeadlineBatcher(timeout_s=-1.0)
        with pytest.raises(ValueError):
            DeadlineBatcher(margin_s=-1e-3)

    def test_estimate_memo_keys_do_not_collide(self):
        """Regression: a batch with sorted lengths (1, 40) must not share a
        memo entry with the single-request estimate (device 1, length 40)."""

        class _Stub:
            def __init__(self, per_token):
                self._per_token = per_token

            def next_start(self, now):
                return now

            def batch_latency_seconds(self, lengths):
                return self._per_token * sum(lengths)

        policy = DeadlineBatcher(batch_size=16)
        policy.bind_fleet([_Stub(per_token=1.0), _Stub(per_token=10.0)])
        batch_estimate = policy._estimate((1, 40))  # fleet min: 41.0
        single_on_slow = policy._late.single_estimate(1, 40)  # device 1: 400.0
        assert batch_estimate == pytest.approx(41.0)
        assert single_on_slow == pytest.approx(400.0)

    def test_bind_fleet_forgets_class_priorities(self, monkeypatch):
        """Regression: a class unregistered on first sight stayed at priority
        0 for the batcher's lifetime, so a re-bound batcher formed
        differently from a fresh one once the class was registered."""
        from repro.serving import PriorityDeadlineBatcher, RequestClass, classes

        def queue():
            return [
                Request(request_id=0, length=10, arrival_time=0.0, request_class="edf-bulk"),
                Request(request_id=1, length=10, arrival_time=0.0, request_class="edf-urgent"),
            ]

        def first_batch(policy):
            return [r.request_id for r in policy.form_batch(queue(), 0.0, draining=True)]

        reused = PriorityDeadlineBatcher(batch_size=1)
        reused.bind_fleet([])
        assert first_batch(reused) == [0]  # both unknown: one tier, EDF ties on id

        urgent = RequestClass(name="edf-urgent", priority=3)
        lookup = classes.get_request_class
        monkeypatch.setattr(
            classes,
            "get_request_class",
            lambda name: urgent if name == urgent.name else lookup(name),
        )
        fresh = PriorityDeadlineBatcher(batch_size=1)
        fresh.bind_fleet([])
        reused.bind_fleet([])
        assert first_batch(fresh) == [1]
        assert first_batch(reused) == first_batch(fresh)


@st.composite
def _late_sweeps(draw) -> dict:
    """A crash- and/or straggler-bound fleet with booked backlogs, and a
    queue whose deadlines straddle what the fleet can still meet."""
    num_devices = draw(st.integers(1, 4))
    now = draw(st.floats(0.0, 3.0))
    queue = []
    for request_id in range(draw(st.integers(0, 12))):
        arrival = draw(st.floats(0.0, now))
        slack = draw(st.none() | st.floats(0.0, 1.5))
        queue.append(
            Request(
                request_id,
                draw(st.integers(1, MRPC.max_length)),
                arrival,
                None if slack is None else now + slack,
            )
        )
    return {
        "faults": draw(st.sampled_from(["crash", "straggler", "both"])),
        "mtbf_s": draw(st.floats(0.05, 2.0)),
        "downtime_s": draw(st.floats(0.01, 1.0)),
        "seed": draw(st.integers(0, 2**16)),
        "busy_until": draw(
            st.lists(st.floats(0.0, 3.0), min_size=num_devices, max_size=num_devices)
        ),
        "now": now,
        "queue": queue,
        # Pin one request's deadline just inside the tolerance of one
        # device's bound: (request index, device index), or None.
        "pin": draw(st.none() | st.tuples(st.integers(0, 11), st.integers(0, 3))),
    }


def _bound_late(accelerators, case) -> tuple[ProvablyLate, FaultInjector]:
    schedules = {
        "crash": (CrashRestartFaults(case["mtbf_s"], case["downtime_s"]),),
        "straggler": (StragglerFaults(case["mtbf_s"], case["downtime_s"]),),
    }
    schedules["both"] = schedules["crash"] + schedules["straggler"]
    busy_until = case["busy_until"]
    injector = FaultInjector(schedules[case["faults"]], len(busy_until), case["seed"])
    cache = ScheduleCache()
    fleet = []
    for index, until in enumerate(busy_until):
        device = CycleAccurateDevice(
            accelerators[index % len(accelerators)], schedule_cache=cache
        )
        device.reset()
        device.book_interval(0.0, until)
        device.bind_fault_timeline(injector.timeline(index))
        fleet.append(device)
    return ProvablyLate(fleet), injector


def _drawn_windows(timeline):
    """Everything a fault timeline has generated so far."""
    children = getattr(timeline, "_children", None)
    if children is not None:
        return [_drawn_windows(child) for child in children]
    return (timeline._horizon, list(timeline._windows), list(getattr(timeline, "_slow", [])))


class TestProvablyLateSweep:
    @pytest.fixture(scope="class")
    def accelerators(self):
        return [
            _build(),
            build_sparse_accelerator(
                _SMALL_MODEL, top_k=8, avg_seq=MRPC.avg_length, max_seq=MRPC.max_length
            ),
        ]

    @given(case=_late_sweeps())
    @settings(max_examples=60, deadline=None)
    def test_sweep_equals_per_request_calls(self, accelerators, case):
        queue, now = list(case["queue"]), case["now"]
        if case["pin"] is not None and queue:
            # Measured on a third fleet, so the two below start untouched.
            probe, _ = _bound_late(accelerators, case)
            index = case["pin"][0] % len(queue)
            device = case["pin"][1] % len(case["busy_until"])
            request = queue[index]
            bound = probe._fleet[device].next_start(now) + probe.single_estimate(
                device, request.length
            )
            queue[index] = Request(
                request.request_id, request.length, request.arrival_time, bound - _TIME_EPS / 2
            )
        swept, swept_faults = _bound_late(accelerators, case)
        called, called_faults = _bound_late(accelerators, case)
        assert swept.late_requests(list(queue), now) == [r for r in queue if called(r, now)]
        num_devices = len(case["busy_until"])
        assert [_drawn_windows(swept_faults.timeline(i)) for i in range(num_devices)] == [
            _drawn_windows(called_faults.timeline(i)) for i in range(num_devices)
        ]


class TestCostModelRouter:
    def test_prefers_earliest_predicted_completion(self):
        class _Stub:
            def __init__(self, backlog, per_req):
                self._backlog = backlog
                self._per_req = per_req

            def next_start(self, now):
                return now + self._backlog

            def batch_latency_seconds(self, lengths):
                return self._per_req * len(lengths)

        fast_but_busy = _Stub(backlog=1.0, per_req=0.01)
        slow_but_idle = _Stub(backlog=0.0, per_req=0.05)
        batch = [Request(request_id=i, length=30, arrival_time=0.0) for i in range(4)]
        router = CostModelRouter()
        # 4 requests: 1.0 + 0.04 on device 0 vs 0.0 + 0.2 on device 1.
        assert router.select([fast_but_busy, slow_but_idle], batch, now=0.0) == 1
        # 1 request at a longer backlog gap: still the idle device.
        assert router.select([fast_but_busy, slow_but_idle], batch[:1], now=0.0) == 1
        # Once the busy device drains, its speed wins.
        assert router.select([_Stub(0.0, 0.01), slow_but_idle], batch, now=0.0) == 0

    def test_accounts_for_device_batch_limits(self):
        class _Capped:
            max_batch_size = 1

            def next_start(self, now):
                return now

            def admissible_prefix(self, lengths):
                return 1

            def batch_latency_seconds(self, lengths):
                return 0.03 * len(lengths)

        class _Uncapped:
            def next_start(self, now):
                return now

            def batch_latency_seconds(self, lengths):
                return 0.05  # flat per batch, slower per request

        batch = [Request(request_id=i, length=30, arrival_time=0.0) for i in range(4)]
        # Capped device serializes 4 single-request batches: 0.12 > 0.05.
        assert CostModelRouter().select([_Capped(), _Uncapped()], batch, now=0.0) == 1

    def test_routes_long_sequences_off_padding_bound_device(self):
        """Heterogeneous fleet: the padded analytical device quotes long
        batches at max-length cost, so long traffic shifts to the
        length-aware FPGA."""
        fleet = build_fleet(("sparse-fpga", "gpu-rtx6000"), dataset="squad")
        router = CostModelRouter()
        router.prepare(len(fleet), None)
        long_batch = [
            Request(request_id=i, length=320, arrival_time=0.0) for i in range(8)
        ]
        choice = router.select(fleet, long_batch, now=0.0)
        costs = [
            device.batch_latency_seconds([r.length for r in long_batch])
            for device in fleet
        ]
        assert choice == min(range(len(costs)), key=lambda i: (costs[i], i))

    def test_falls_back_to_backlog_for_float_fleets(self):
        router = CostModelRouter()
        batch = [Request(request_id=0, length=30, arrival_time=0.0)]
        assert router.select([5.0, 1.5, 3.0], batch, now=1.0) == 1


class TestPerDeviceLimits:
    def test_admissible_prefix_respects_both_limits(self):
        device = AnalyticalDevice(
            RTX_6000, model_config=_SMALL_MODEL, max_batch_size=3, max_batch_tokens=100
        )
        assert device.admissible_prefix([10, 10, 10, 10]) == 3  # size-capped
        assert device.admissible_prefix([60, 60, 60]) == 1  # token-capped
        assert device.admissible_prefix([200]) == 1  # oversized single request
        unlimited = AnalyticalDevice(RTX_6000, model_config=_SMALL_MODEL)
        assert unlimited.admissible_prefix([10] * 64) == 64

    def test_limits_appear_in_describe(self):
        fleet = build_fleet(
            ("sparse-fpga", "gpu-rtx6000"),
            dataset="mrpc",
            max_batch_size=4,
            max_batch_tokens=512,
        )
        for device in fleet:
            description = device.describe()
            assert description["max_batch_size"] == 4
            assert description["max_batch_tokens"] == 512

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            AnalyticalDevice(RTX_6000, model_config=_SMALL_MODEL, max_batch_size=0)
        with pytest.raises(ValueError):
            AnalyticalDevice(RTX_6000, model_config=_SMALL_MODEL, max_batch_tokens=0)

    def test_engine_splits_batches_at_device_limit(self):
        fleet = build_fleet(("sparse-fpga",), dataset="mrpc", max_batch_size=4)
        report = simulate_online(
            fleet,
            MRPC,
            PoissonArrivals(rate_qps=300),
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
        )
        assert report.num_limit_splits > 0
        assert report.num_completed == 48
        assert max(len(b.request_ids) for b in report.batches) <= 4
        assert report.to_dict()["num_limit_splits"] == report.num_limit_splits

    def test_limit_enforcement_with_continuous_batching(self):
        """Per-device caps hold while batches stream into the pipeline."""
        fleet = build_fleet(("sparse-fpga",), dataset="mrpc", max_batch_size=4)
        report = simulate_online(
            fleet,
            MRPC,
            PoissonArrivals(rate_qps=300),
            num_requests=48,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
            continuous_batching=True,
        )
        assert report.num_completed == 48
        assert max(len(b.request_ids) for b in report.batches) <= 4
        # Continuous batching admits while draining: successive batches on
        # the same device may overlap, but each still respects the cap.
        assert report.continuous_batching is True

    def test_token_limit_enforced(self):
        fleet = build_fleet(("sparse-fpga",), dataset="mrpc", max_batch_tokens=200)
        report = simulate_online(
            fleet,
            MRPC,
            PoissonArrivals(rate_qps=300),
            num_requests=32,
            batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
        )
        assert report.num_completed == 32
        for batch in report.batches:
            if len(batch.request_ids) > 1:
                assert sum(batch.execution.lengths) <= 200


class TestSloSweepAcceptance:
    def test_deadline_plus_cost_model_beats_timeout_plus_least_loaded(self):
        """Acceptance: at equal offered load on the default sweep settings,
        the SLO-aware pair achieves strictly higher deadline attainment."""
        from repro.experiments import run_experiment

        result = run_experiment(
            "serving-sweep",
            {
                "datasets": ("mrpc",),
                "load_fractions": (0.5, 0.9),
                "batch_policies": ("timeout", "deadline"),
                "routers": ("least-loaded", "cost-model"),
                "slo_ms": 50.0,
                "requests": 96,
            },
        )
        blind = dict(result.attainment_curve("MRPC", "timeout"))
        aware = dict(result.attainment_curve("MRPC", "deadline"))
        assert set(blind) == set(aware) == {0.5, 0.9}
        for load in sorted(blind):
            assert aware[load] > blind[load], (
                f"SLO-aware pair not better at load {load}: "
                f"{aware[load]} vs {blind[load]}"
            )
        rows = result.as_rows()
        assert all("attainment" in row and "goodput_qps" in row for row in rows)
        assert result.to_dict()["slo"] == {"base_s": 0.05, "per_token_s": 0.0}

    def test_routers_must_pair_with_policies(self):
        from repro.evaluation.serving_sweep import ServingSweepConfig

        with pytest.raises(ValueError, match="pair elementwise"):
            ServingSweepConfig(batch_policies=("timeout",), routers=("a", "b"))

    def test_curves_filter_by_router_for_same_policy_pairings(self):
        """One policy under two routers: the router filter disambiguates."""
        from repro.experiments import run_experiment

        result = run_experiment(
            "serving-sweep",
            {
                "datasets": ("mrpc",),
                "load_fractions": (0.5,),
                "batch_policies": ("deadline", "deadline"),
                "routers": ("least-loaded", "cost-model"),
                "slo_ms": 50.0,
                "requests": 48,
            },
        )
        merged = result.attainment_curve("MRPC", "deadline")
        assert len(merged) == 2  # ambiguous without the router filter
        for router in ("least-loaded", "cost-model"):
            curve = result.attainment_curve("MRPC", "deadline", router=router)
            assert len(curve) == 1 and curve[0][0] == 0.5
            assert len(result.p99_curve("MRPC", "deadline", router=router)) == 1
