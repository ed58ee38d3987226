"""Autoscaling policies and the elastic-pool serving engine."""

from __future__ import annotations

import math

import pytest

from repro.devices import build_fleet
from repro.registry import REGISTRY
from repro.serving import (
    PredictedAttainmentAutoscaler,
    QueueDepthAutoscaler,
    ScaleObservation,
    TimeoutBatcher,
    get_autoscaler,
    simulate_online,
)
from repro.serving.arrivals import FlashCrowdArrivals, PoissonArrivals
from repro.serving.slo import SLOSpec


def _observation(**overrides) -> ScaleObservation:
    base = dict(
        now=1.0,
        queue_depth=0,
        active_devices=2,
        provisioned_devices=2,
        min_devices=1,
        max_devices=4,
        recent_attainment=None,
        recent_offered_qps=50.0,
    )
    base.update(overrides)
    return ScaleObservation(**base)


class TestQueueDepthPolicy:
    def test_registered(self):
        assert "queue-depth" in REGISTRY.available("autoscaler")
        assert isinstance(get_autoscaler("queue-depth"), QueueDepthAutoscaler)

    def test_scales_up_above_threshold(self):
        policy = QueueDepthAutoscaler(scale_up_depth=8.0, scale_down_depth=1.0)
        assert policy.decide(_observation(queue_depth=17)) == 3  # 8.5 per device
        assert policy.decide(_observation(queue_depth=16)) == 2  # at threshold

    def test_scales_down_at_low_depth(self):
        policy = QueueDepthAutoscaler(scale_up_depth=8.0, scale_down_depth=1.0)
        assert policy.decide(_observation(queue_depth=2)) == 1  # 1 per device
        assert policy.decide(_observation(queue_depth=3)) == 2  # hysteresis band

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(scale_up_depth=2.0, scale_down_depth=3.0)


class TestPredictedAttainmentPolicy:
    def test_registered(self):
        assert "predicted-attainment" in REGISTRY.available("autoscaler")
        assert isinstance(
            get_autoscaler("predicted-attainment"), PredictedAttainmentAutoscaler
        )

    def test_scales_up_when_missing_target(self):
        policy = PredictedAttainmentAutoscaler(target=0.95)
        assert policy.decide(_observation(recent_attainment=0.80)) == 3

    def test_scales_down_only_when_healthy_and_idle(self):
        policy = PredictedAttainmentAutoscaler(target=0.95)
        healthy_idle = _observation(recent_attainment=1.0, queue_depth=0)
        assert policy.decide(healthy_idle) == 1
        healthy_busy = _observation(recent_attainment=1.0, queue_depth=5)
        assert policy.decide(healthy_busy) == 2

    def test_no_traffic_counts_as_healthy(self):
        policy = PredictedAttainmentAutoscaler(target=0.95)
        assert policy.decide(_observation(recent_attainment=None, queue_depth=0)) == 1

    def test_high_water_defaults_to_midpoint(self):
        policy = PredictedAttainmentAutoscaler(target=0.9)
        assert policy.high_water == pytest.approx(0.95)


#: The flash-crowd acceptance scenario: 40 qps baseline with a 6x spike at
#: t=2 s for 2 s, long enough past the spike that reactive capacity matters.
_CROWD = FlashCrowdArrivals(
    rate_qps=40.0, spike_ratio=6.0, spike_start_s=2.0, spike_duration_s=2.0
)


@pytest.fixture(scope="module")
def crowd_requests():
    return _CROWD.generate("mrpc", 800, seed=11)


def _run(requests, pool_size, **kwargs):
    fleet = build_fleet(
        ["gpu-rtx6000"] * pool_size, dataset="mrpc", cache_length_bucket=16
    )
    return simulate_online(
        fleet,
        "mrpc",
        requests,
        batch_policy=TimeoutBatcher(batch_size=16, timeout_s=0.02),
        slo=SLOSpec(base_s=0.25),
        **kwargs,
    )


class TestElasticPoolEngine:
    def test_scales_up_through_the_spike_and_back_down(self, crowd_requests):
        report = _run(
            crowd_requests,
            3,
            autoscaler="queue-depth",
            provisioning_lag_s=1.0,
            autoscale_interval_s=0.5,
            min_devices=1,
        )
        sizes = [n for _, n in report.scaling_timeline]
        assert sizes[0] == 1
        assert max(sizes) > 1  # the spike forced scale-ups
        assert sizes[-1] == 1  # and the pool drained back down
        assert report.autoscaler == "queue-depth"
        assert report.provisioning_lag_s == 1.0

    def test_provisioning_lag_delays_activation(self, crowd_requests):
        # Decisions land on the 0.5 s grid; with a 1.0 s lag no activation
        # (a timeline step up) can appear before decision + lag.
        report = _run(
            crowd_requests,
            3,
            autoscaler="queue-depth",
            provisioning_lag_s=1.0,
            autoscale_interval_s=0.5,
            min_devices=1,
        )
        previous = 1
        for when, size in report.scaling_timeline[1:]:
            if size > previous:
                decision = when - 1.0
                assert decision >= 0.5 - 1e-9
                assert decision / 0.5 == pytest.approx(round(decision / 0.5))
            previous = size

    def test_billing_charges_only_online_time(self, crowd_requests):
        auto = _run(
            crowd_requests,
            3,
            autoscaler="queue-depth",
            provisioning_lag_s=1.0,
            autoscale_interval_s=0.5,
            min_devices=1,
        )
        static = _run(crowd_requests, 3)
        online = [d.online_seconds for d in auto.devices]
        assert all(seconds >= 0.0 for seconds in online)
        # Device 0 never deactivates; the rest were online only for slices.
        assert online[0] == pytest.approx(max(online))
        assert sum(online) < 3 * auto.makespan_seconds
        assert auto.cost_usd < static.cost_usd
        # Static fleets bill every device for the whole run instead.
        assert static.average_price_per_hour_usd == pytest.approx(3 * 1.25)

    def test_autoscaler_beats_equal_average_size_static_fleet(self, crowd_requests):
        """The PR's acceptance bar: more attainment per dollar-hour.

        The autoscaled pool averages between one and two devices online; the
        equal-average-size static fleet is therefore a single device.  The
        elastic pool pays for extra capacity only around the spike and
        converts it into strictly more on-time work per dollar-hour.
        """
        auto = _run(
            crowd_requests,
            3,
            autoscaler="queue-depth",
            provisioning_lag_s=1.0,
            autoscale_interval_s=0.5,
            min_devices=1,
        )
        average_online = (
            sum(d.online_seconds for d in auto.devices) / auto.makespan_seconds
        )
        assert 1.0 <= average_online < 1.5
        static = _run(crowd_requests, round(average_online))
        assert auto.attainment_per_dollar_hour > static.attainment_per_dollar_hour
        assert auto.attainment_rate > static.attainment_rate

    def test_min_devices_is_a_floor(self, crowd_requests):
        report = _run(
            crowd_requests,
            3,
            autoscaler="queue-depth",
            provisioning_lag_s=0.5,
            autoscale_interval_s=0.5,
            min_devices=2,
        )
        assert all(size >= 2 for _, size in report.scaling_timeline)

    def test_static_run_reports_no_scaling(self, crowd_requests):
        report = _run(crowd_requests, 2)
        assert report.autoscaler is None
        assert report.scaling_timeline == []
        assert all(d.online_seconds is None for d in report.devices)

    def test_results_survive_json_round_trip(self, crowd_requests):
        import json

        report = _run(
            crowd_requests,
            2,
            autoscaler="predicted-attainment",
            provisioning_lag_s=0.5,
            autoscale_interval_s=0.5,
            min_devices=1,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["autoscaler"] == "predicted-attainment"
        assert payload["scaling_timeline"][0] == [0.0, 1]
        assert payload["cost_usd"] > 0

    def test_validates_knobs(self):
        fleet = build_fleet(["gpu-rtx6000"], dataset="mrpc")
        requests = PoissonArrivals(rate_qps=10.0).generate("mrpc", 4, seed=0)
        with pytest.raises(ValueError):
            simulate_online(
                fleet, "mrpc", requests, autoscaler="queue-depth", provisioning_lag_s=-1.0
            )
        with pytest.raises(ValueError):
            simulate_online(
                fleet, "mrpc", requests, autoscaler="queue-depth", autoscale_interval_s=0.0
            )
        with pytest.raises(ValueError):
            simulate_online(
                fleet, "mrpc", requests, autoscaler="queue-depth", min_devices=2
            )
        with pytest.raises(KeyError):
            simulate_online(fleet, "mrpc", requests, autoscaler="no-such-policy")
        # Pool-size knobs mean nothing to a static fleet.
        static = build_fleet(["gpu-rtx6000"], dataset="mrpc", replicas=3)
        for knobs in ({"initial_devices": 1}, {"min_devices": 2}):
            with pytest.raises(ValueError, match=f"{next(iter(knobs))} .*needs an autoscaler"):
                simulate_online(static, "mrpc", requests, **knobs)
        # Non-finite knobs would never decide, never bring capacity online,
        # or never re-offer a crashed request.
        for value in (math.nan, math.inf):
            for knob in ("provisioning_lag_s", "autoscale_interval_s", "retry_backoff_s"):
                with pytest.raises(ValueError, match=f"{knob} must be finite"):
                    simulate_online(
                        fleet, "mrpc", requests, autoscaler="queue-depth", **{knob: value}
                    )
