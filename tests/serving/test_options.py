"""One options object, one validator, for every serving entry point.

:class:`ServingOptions` checks every knob that depends on nothing but the
knobs, and :meth:`ServingOptions.check_pool` the pool-size knobs against a
fleet.  The simulator (keyword or ``options=`` form) and the live gateway
reach those same checks, so a bad knob fails with the same error whichever
way it came in; the gateway additionally refuses, by name, every option it
does not model.
"""

from __future__ import annotations

import math

import pytest

from repro.devices import build_fleet
from repro.live import LiveGateway
from repro.serving import PoissonArrivals, ServingOptions, SLOSpec, TimeoutBatcher, simulate_online

#: One bad knob set per check, with the exception it raises.
BAD_KNOBS = {
    "max-queue-depth": ({"max_queue_depth": 0}, ValueError),
    "max-retries": ({"max_retries": -1}, ValueError),
    "retry-backoff": ({"retry_backoff_s": -1.0}, ValueError),
    "retry-backoff-inf": ({"retry_backoff_s": math.inf}, ValueError),
    "provisioning-lag-nan": ({"provisioning_lag_s": math.nan}, ValueError),
    "provisioning-lag": ({"provisioning_lag_s": -1.0}, ValueError),
    "autoscale-interval": ({"autoscale_interval_s": 0.0}, ValueError),
    "min-devices-static": ({"min_devices": 2}, ValueError),
    "initial-devices-static": ({"initial_devices": 1}, ValueError),
    "min-devices-zero": ({"autoscaler": "queue-depth", "min_devices": 0}, ValueError),
    "min-devices-above-pool": ({"autoscaler": "queue-depth", "min_devices": 3}, ValueError),
    "initial-below-min": (
        {"autoscaler": "queue-depth", "min_devices": 2, "initial_devices": 1},
        ValueError,
    ),
    "initial-above-pool": ({"autoscaler": "queue-depth", "initial_devices": 3}, ValueError),
    "decode-faults": ({"output_lengths": 4, "faults": "crash-restart"}, ValueError),
    "decode-autoscaler": ({"output_lengths": 4, "autoscaler": "queue-depth"}, ValueError),
    "decode-hedging": ({"output_lengths": 4, "hedging": True}, ValueError),
    "iteration-level": ({"iteration_level": "yes"}, TypeError),
}

#: A two-device pool: the bound ``check_pool`` sees in every driver.
POOL = 2


def _fleet():
    return build_fleet(["gpu-rtx6000"], dataset="mrpc", replicas=POOL)


def _simulate(**kwargs):
    return simulate_online(_fleet(), "mrpc", PoissonArrivals(rate_qps=50.0), 8, **kwargs)


def _error(call, kind) -> str:
    with pytest.raises(kind) as excinfo:
        call()
    return str(excinfo.value)


@pytest.mark.parametrize("knobs, kind", BAD_KNOBS.values(), ids=BAD_KNOBS.keys())
def test_every_entry_point_raises_the_one_validators_error(knobs, kind):
    def standalone():
        ServingOptions(**knobs).check_pool(POOL)

    message = _error(standalone, kind)
    assert _error(lambda: _simulate(**knobs), kind) == message
    assert _error(lambda: _simulate(options=ServingOptions(**knobs)), kind) == message
    try:
        ServingOptions(**knobs)
    except kind:
        # The gateway builds its options first, so a knob-only check fails
        # there exactly as in the simulator.
        assert _error(lambda: LiveGateway(_fleet(), "mrpc", **knobs), kind) == message


#: Options the live gateway does not model, each set away from its default.
UNMODELLED = {
    "seed": {"seed": 1},
    "autoscaler": {"autoscaler": "queue-depth"},
    "provisioning_lag_s": {"provisioning_lag_s": 1.0},
    "autoscale_interval_s": {"autoscale_interval_s": 2.0},
    "min_devices": {"autoscaler": "queue-depth", "min_devices": 2},
    "initial_devices": {"autoscaler": "queue-depth", "initial_devices": 1},
    "faults": {"faults": "crash-restart"},
    "max_retries": {"max_retries": 1},
    "retry_backoff_s": {"retry_backoff_s": 0.1},
    "output_lengths": {"output_lengths": 4},
    "iteration_level": {"iteration_level": False},
}


@pytest.mark.parametrize("knobs", UNMODELLED.values(), ids=UNMODELLED.keys())
def test_live_gateway_refuses_unmodelled_options_by_name(knobs):
    with pytest.raises(ValueError) as excinfo:
        LiveGateway(_fleet(), "mrpc", **knobs)
    assert str(excinfo.value) == f"the live gateway does not model {', '.join(knobs)}"


def test_live_gateway_takes_the_options_it_models():
    options = ServingOptions(
        batch_policy=TimeoutBatcher(batch_size=4, timeout_s=0.01),
        max_queue_depth=8,
        slo=SLOSpec(base_s=0.1),
        shed_on_predicted_miss=True,
        class_queue_limits={"batch": 2},
        continuous_batching=True,
        hedging=True,
    )
    gateway = LiveGateway(_fleet(), "mrpc", options)
    assert gateway.core.max_queue_depth == 8
    assert gateway.slo is options.slo
    assert gateway.hedging and not gateway.core.hedging
    assert gateway.report.to_dict()["queue_limit"] == 8


@pytest.mark.parametrize("driver", ["simulate_online", "LiveGateway"])
def test_options_and_keyword_knobs_do_not_mix(driver):
    call = (
        (lambda: _simulate(options=ServingOptions(), max_queue_depth=4))
        if driver == "simulate_online"
        else (lambda: LiveGateway(_fleet(), "mrpc", ServingOptions(), max_queue_depth=4))
    )
    with pytest.raises(TypeError, match="not both"):
        call()


def test_options_and_keyword_forms_run_the_same_simulation():
    knobs = {"batch_policy": None, "max_queue_depth": 3, "slo": SLOSpec(base_s=0.02), "seed": 5}
    by_keyword = _simulate(**knobs).to_dict()
    assert _simulate(options=ServingOptions(**knobs)).to_dict() == by_keyword
