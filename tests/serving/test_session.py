"""The serving session the simulator, decode engine and live gateway share.

One setup path builds every driver's report header and one fold closes it,
so the drivers cannot drift apart on what a report carries: a priced fleet
reports the same prices (and a dollar cost) whichever driver runs it, and the
batch policy's preemption count lands in every report.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.decode import simulate_decode_online
from repro.devices import build_fleet
from repro.live import LiveGateway
from repro.serving import (
    DeviceSummary,
    OnlineServingReport,
    PoissonArrivals,
    PriorityDeadlineBatcher,
    simulate_online,
)
from repro.serving.core import CrashLedger
from repro.serving.request import Request


def test_priced_fleet_reports_the_same_prices_through_every_driver():
    fleet = build_fleet(("sparse-fpga",), replicas=2)
    arrivals = PoissonArrivals(rate_qps=60.0)
    sim = simulate_online(fleet, "mrpc", arrivals, num_requests=32)
    decode = simulate_decode_online(fleet, "mrpc", arrivals, num_requests=32, output_lengths=4)
    live = LiveGateway(fleet, "mrpc")

    prices = [device.price_per_hour_usd for device in fleet]
    assert all(price is not None for price in prices)
    assert [d.price_per_hour_usd for d in sim.devices] == prices
    assert [d.price_per_hour_usd for d in decode.devices] == prices
    assert [d.price_per_hour_usd for d in live.report.devices] == prices
    assert sim.cost_usd is not None
    assert decode.cost_usd is not None
    assert decode.to_dict()["devices"][0]["price_per_hour_usd"] == prices[0]


def test_live_report_folds_the_policy_preemption_count():
    async def scenario():
        gateway = LiveGateway(
            build_fleet(("gpu-rtx6000",)), "mrpc", batch_policy=PriorityDeadlineBatcher()
        )
        await gateway.start()
        for index in range(6):
            request_class = "interactive" if index % 2 else "best-effort"
            assert gateway.submit(length=64, request_class=request_class).accepted
        return gateway, await gateway.shutdown()

    gateway, stats = asyncio.run(scenario())
    assert stats["num_completed"] == 6
    assert stats["num_preemptions"] == gateway.core.batch_policy.num_preemptions


def _one_device_report() -> OnlineServingReport:
    return OnlineServingReport(
        dataset="mrpc",
        arrival_process="explicit",
        batch_policy="fixed-size",
        router="least-loaded",
        scheduler="n/a",
        offered_qps=None,
        num_requests=1,
        devices=[DeviceSummary(index=0, accelerator="test")],
    )


def test_crash_ledger_replays_then_retries_with_backoff_then_sheds():
    report = _one_device_report()
    ledger = CrashLedger(report, replay=True, max_retries=2, retry_backoff_s=0.1)
    request = Request(request_id=7, length=64, arrival_time=0.0)

    assert ledger.recover(request, 1.0, 0) == 1.0
    assert ledger.recover(request, 2.0, 0) == pytest.approx(2.1)
    assert ledger.recover(request, 3.0, 0) == pytest.approx(3.2)
    assert ledger.recover(request, 4.0, 0) is None
    assert (report.num_replayed, report.num_retries, report.num_shed_crashed) == (1, 2, 1)
    assert report.devices[0].num_retries == 2
    assert report.shed_requests == [request]
    assert report.shed_causes == {7: "crashed"}


def test_crash_ledger_without_replay_or_retries_sheds_on_first_crash():
    report = _one_device_report()
    ledger = CrashLedger(report, replay=False, max_retries=0)
    assert ledger.recover(Request(request_id=1, length=8, arrival_time=0.0), 0.5, 0) is None
    assert (report.num_replayed, report.num_retries, report.num_shed_crashed) == (0, 0, 1)
