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

from repro.decode import GeometricOutputLength
from repro.devices import BatchExecution, Device, build_fleet
from repro.live import (
    LiveGateway,
    LiveServer,
    http_json,
    load_validation_trace,
    replay_trace,
    simulate_trace,
    trace_requests,
    validation_gateway,
)
from repro.registry import REGISTRY
from repro.serving import ClassMixArrivals, FixedSizeBatcher, PoissonArrivals, SLOSpec
from repro.serving.classes import RequestClass
from repro.serving.core import prepare_stream

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


def test_sim_class_deadlines_equal_what_submit_stamps(monkeypatch):
    """A class SLO's per-output-token budget sees each request's real output
    length in a simulated decode stream, exactly as ``submit`` stamps it."""
    tier = RequestClass(
        name="test-per-output-tier", slo=SLOSpec(base_s=0.1, per_output_token_s=0.01)
    )
    for table, value in (("_factories", tier), ("_canonical", tier.name)):
        monkeypatch.setitem(getattr(REGISTRY, table)["request-class"], tier.name, value)
    arrivals = ClassMixArrivals(base=PoissonArrivals(rate_qps=300), mix=((tier.name, 1.0),))
    stream = arrivals.generate(
        "mrpc", 24, seed=5, output_lengths=GeometricOutputLength(mean_output_len=8)
    )
    budgets = {r.output_len: r.slo_seconds for r in stream}
    assert len(budgets) > 1 and max(budgets) > 1, "every request drew one output token"

    async def scenario():
        gateway = LiveGateway(build_fleet(("gpu-rtx6000",)), "mrpc", rebase_on_first_ingest=False)
        await gateway.start()
        stamped = []
        for request in stream:
            # Submit each request at its simulated arrival instant.
            gateway.clock.now = lambda instant=request.arrival_time: instant
            result = gateway.submit(
                length=request.length, output_len=request.output_len, request_class=tier.name
            )
            stamped.append(result.request)
        del gateway.clock.now
        await gateway.shutdown()
        return stamped

    stamped = asyncio.run(scenario())
    assert [r.deadline for r in stamped] == [r.deadline for r in stream]


def test_explicit_requests_get_the_class_slo_submit_stamps():
    """A replayed trace entry with a class and no ``slo_ms`` carries its
    class's deadline in the simulator, as ``submit`` stamps it live: the
    class SLO first, then the run's."""
    run_slo = SLOSpec(base_s=1.0)
    entries = [
        {"t": 0.0, "length": 32, "class": "interactive"},
        {"t": 0.01, "length": 40, "class": "best-effort"},
        {"t": 0.02, "length": 48},
        {"t": 0.03, "length": 56, "class": "interactive", "slo_ms": 7.0},
    ]
    stream, _, _ = prepare_stream("mrpc", trace_requests(entries), None, 0, run_slo)

    async def scenario():
        gateway = LiveGateway(
            build_fleet(("gpu-rtx6000",)), "mrpc", slo=run_slo, rebase_on_first_ingest=False
        )
        await gateway.start()
        stamped = []
        for entry in entries:
            gateway.clock.now = lambda instant=entry["t"]: instant
            result = gateway.submit(
                length=entry["length"],
                slo_ms=entry.get("slo_ms"),
                request_class=entry.get("class"),
            )
            stamped.append(result.request)
        del gateway.clock.now
        await gateway.shutdown()
        return stamped

    live = asyncio.run(scenario())
    assert stream[0].deadline == 0.05
    assert [r.deadline for r in stream] == [r.deadline for r in live]
    # best-effort has no SLO and an untagged entry no class: the run's SLO.
    assert stream[1].deadline == 0.01 + 1.0
    assert stream[2].deadline == 0.02 + 1.0
    # An entry's own deadline always stands.
    assert stream[3].deadline == 0.03 + 7.0 / 1e3
