"""Request classes on the wire: sim-vs-live per-class agreement and 429s.

Two contracts:

* the checked-in validation trace, class-tagged entry-by-entry, replayed
  through real sockets must land the *same per-class counts* the simulator
  predicts (``/stats``'s ``classes`` block vs ``class_summaries``);
* bounded-queue shedding respects per-class limits -- a best-effort flood
  gets 429s at its own class limit while interactive traffic still queues.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.devices import BatchExecution, Device
from repro.live import (
    LiveGateway,
    LiveServer,
    http_json,
    load_validation_trace,
    replay_trace,
    simulate_trace,
    validation_gateway,
)
from repro.serving import FixedSizeBatcher

#: Deterministic tagging of the checked-in trace: cycle the built-in
#: classes by entry index (the trace is replayed sorted by arrival).
CLASS_CYCLE = ("interactive", "batch", "best-effort")

#: Count fields of a class summary that must agree exactly between engines
#: (rate fields like goodput depend on wall-clock makespan).
EXACT_FIELDS = (
    "offered",
    "completed",
    "on_time",
    "shed",
    "shed_admission",
    "shed_predicted",
    "shed_late",
    "shed_crashed",
)


def tagged_validation_trace() -> list[dict]:
    entries = load_validation_trace()
    return [
        {**entry, "class": CLASS_CYCLE[index % len(CLASS_CYCLE)]}
        for index, entry in enumerate(entries)
    ]


def test_sim_vs_live_per_class_counts_agree_on_validation_trace():
    """Replay the class-tagged trace through HTTP; diff the classes blocks.

    The trace's generous 2 s SLOs stay stamped on every entry (the class
    mix only relabels, it does not retime), so every admission decision
    keeps its hundreds-of-milliseconds margin and the per-class counts are
    exact in both engines.
    """
    entries = tagged_validation_trace()
    sim_report = simulate_trace(entries)
    sim_classes = sim_report.to_dict()["classes"]

    async def scenario():
        server = LiveServer(validation_gateway(), host="127.0.0.1", port=0)
        await server.start()
        try:
            await replay_trace("127.0.0.1", server.port, entries)
            return await server.gateway.shutdown()
        finally:
            await server.close()

    live_stats = asyncio.run(scenario())
    live_classes = live_stats["classes"]
    assert sorted(live_classes) == sorted(sim_classes)
    for name, sim_summary in sim_classes.items():
        for field in EXACT_FIELDS:
            assert live_classes[name][field] == sim_summary[field], (name, field)
        # Generous SLOs: attainment reduces to on_time/offered, exact in
        # both engines (None stays None for the SLO-less best-effort tier).
        assert live_classes[name]["attainment"] == sim_summary["attainment"], name
    # The totals still partition: classes cover the whole trace.
    assert sum(c["offered"] for c in live_classes.values()) == len(entries)
    assert sum(c["completed"] for c in live_classes.values()) == live_stats["num_completed"]
    # And the base agreement holds on the tagged trace too.
    assert live_stats["num_completed"] == sim_report.num_completed
    assert live_stats["num_shed"] == sim_report.num_shed
    # Both engines fold the batch policy's preemption count the same way.
    assert live_stats.get("num_preemptions") == sim_report.to_dict().get("num_preemptions")


class SlowDevice(Device):
    name = "slow"
    backend = "fake"

    def __init__(self, latency=0.5, **kwargs):
        self.latency = latency
        super().__init__(**kwargs)

    def execute(self, lengths):
        return BatchExecution(
            device=self.name,
            lengths=list(lengths),
            latency_seconds=self.latency,
            completion_offsets=[self.latency] * len(lengths),
            admit_seconds=self.latency,
        )


def test_429_shedding_respects_per_class_limits():
    """Best-effort floods 429 at its own limit; interactive still queues."""

    async def scenario():
        gateway = LiveGateway(
            [SlowDevice()],
            "mrpc",
            batch_policy=FixedSizeBatcher(batch_size=16),
            class_queue_limits={"best-effort": 2},
        )
        server = LiveServer(gateway, host="127.0.0.1", port=0)
        await server.start()
        try:
            host, port = server.host, server.port
            statuses = []
            for _ in range(5):
                status, payload = await http_json(
                    host, port, "POST", "/v1/requests",
                    {"length": 32, "class": "best-effort"},
                )
                statuses.append((status, payload["status"]))
            # Interactive is not subject to the best-effort limit.
            for _ in range(4):
                status, payload = await http_json(
                    host, port, "POST", "/v1/requests",
                    {"length": 32, "class": "interactive"},
                )
                statuses.append((status, payload["status"]))
            # An unregistered class is a client error, not a shed.
            bad_status, bad_payload = await http_json(
                host, port, "POST", "/v1/requests",
                {"length": 32, "class": "platinum"},
            )
            _, stats = await http_json(host, port, "POST", "/shutdown")
            await server.serve_until_shutdown()
            return statuses, (bad_status, bad_payload), stats
        finally:
            await server.close()

    statuses, (bad_status, bad_payload), stats = asyncio.run(scenario())
    best_effort = statuses[:5]
    assert best_effort.count((200, "queued")) == 2
    assert best_effort.count((429, "shed")) == 3
    assert statuses[5:] == [(200, "queued")] * 4
    assert bad_status == 400
    assert "request-class" in bad_payload["error"]
    classes = stats["classes"]
    assert classes["best-effort"]["shed"] == 3
    assert classes["best-effort"]["shed_admission"] == 3
    assert classes["interactive"]["shed"] == 0


def test_untagged_replay_of_validation_trace_keeps_classless_stats():
    """The tagging is opt-in: the raw trace still yields no classes block."""
    entries = load_validation_trace()
    report = simulate_trace(entries)
    assert report.class_summaries is None
    assert "classes" not in report.to_dict()
    assert report.num_completed == 63  # the pinned baseline, untouched
