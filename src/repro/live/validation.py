"""The sim-vs-live validation contract: one trace, two engines, one report.

The live gateway's reason to exist is that it runs the *same* dispatch core
as the simulator -- so the simulator's predictions about a deployment
(attainment, goodput, shed traffic) should hold on the wire.  This module
pins that contract with a checked-in validation trace
(``traces/live_validation.json``) replayed two ways:

* through :func:`repro.serving.engine.simulate_online` (simulated clock);
* through a real :class:`~repro.live.http.LiveServer` on loopback, paced by
  the wall clock via :func:`repro.live.client.replay_trace`.

Counts (offered / completed / shed) must agree **exactly** -- the trace is
built so every admission decision has hundreds of milliseconds of margin
against scheduling jitter -- and the rate metrics (goodput, sustained QPS,
makespan) must agree within ``tolerance`` (2 % by default; the only live
skew is pacing jitter plus the policy-timer asymmetry on the final batch,
which the trace closes with a full batch that both engines dispatch
instantly).

The trace is encoder-only by design: live decode steps happen *after* the
prefill sleep inside the device actor, while the simulator interleaves
them at simulated instants, so record-for-record agreement is an
encoder-path property.

Trace phases (single ``gpu-rtx6000``, ``TimeoutBatcher(batch_size=16,
timeout_s=0.05)``, ``max_queue_depth=16``, generous 2 s SLOs):

1. **steady** -- 12 spaced singles; every one times out into its own batch.
2. **plug** -- 16 long requests at one instant: exactly the admission
   window, so a full batch forms and keeps the device busy for ~0.8 s.
3. **fill** -- 8 requests right behind the plug: they hold half the
   admission window for the plug's entire service time (queued, then
   dispatched-but-not-started).
4. **burst** -- 25 requests while the fill still waits: the window has
   exactly 8 slots left, so 8 are admitted and 17 shed -- and because the
   waiting count is identical whether the fill is still queued or already
   cut into a not-yet-started batch, the split cannot race the policy
   timer.
5. **tail + closer** -- spaced singles to separate the phases, then a final
   full batch (size-triggered in both engines, killing the end-of-stream
   drain asymmetry) to pin the makespan.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace
from pathlib import Path

from ..devices import build_fleet
from ..faults import ScriptedFaults
from ..serving import Request, ServingOptions, TimeoutBatcher, simulate_online
from .client import replay_trace
from .gateway import LiveGateway
from .http import LiveServer

__all__ = [
    "CRASH_TRACE_PATH",
    "VALIDATION_TRACE_PATH",
    "build_crash_trace",
    "build_validation_trace",
    "load_validation_trace",
    "run_crash_validation",
    "run_live_validation",
    "simulate_trace",
    "trace_requests",
    "validation_gateway",
]

#: The checked-in trace the agreement test and CI replay.
VALIDATION_TRACE_PATH = Path(__file__).parent / "traces" / "live_validation.json"

#: The checked-in crash-scenario trace (fault-injection agreement contract).
CRASH_TRACE_PATH = Path(__file__).parent / "traces" / "live_crash_scenario.json"

#: One serving configuration, shared verbatim by both engines.
VALIDATION_CONFIG = {
    "device": "gpu-rtx6000",
    "dataset": "mrpc",
    "batch_size": 16,
    "timeout_s": 0.05,
    "max_queue_depth": 16,
}

#: Generous relative deadline: every served request is on-time in both
#: engines, so attainment reduces to served/offered -- an exact quantity.
_SLO_MS = 2000.0

#: The crash scenario: the same device/policy as the steady contract, but no
#: admission limit (so a replayed batch can never race the window) and one
#: scripted crash that both engines lose the *same* batch to.  The simulator
#: crashes device 0 at ``crash_time_s`` (scripted fault schedule); the live
#: gateway crashes the worker on pickup of the same batch
#: (``crash_on_pickup``, the actor's monotonic pickup counter).  The crash
#: times differ -- the live worker dies at pickup, the simulated device
#: mid-execution -- but both engines keep the lost batch's device booking,
#: so the replayed batch starts at the original drain instant either way and
#: the completion records line up exactly.
CRASH_CONFIG = {
    "device": "gpu-rtx6000",
    "dataset": "mrpc",
    "batch_size": 16,
    "timeout_s": 0.05,
    "crash_time_s": 1.2,
    "crash_downtime_s": 0.3,
    "crash_on_pickup": 5,
}


def build_validation_trace() -> list[dict]:
    """Construct the validation trace (the checked-in JSON is this output)."""
    entries: list[dict] = []

    def add(t: float, length: int) -> None:
        entries.append({"t": round(t, 4), "length": length, "slo_ms": _SLO_MS})

    for i in range(12):  # steady singles
        add(i * 0.1, 64)
    for _ in range(16):  # plug: one full batch, ~0.8 s of service
        add(1.5, 384)
    for _ in range(8):  # fill: saturate the admission window behind the plug
        add(1.55, 64)
    for _ in range(25):  # burst: all shed while the window is full
        add(1.65, 64)
    for i in range(3):  # tail singles
        add(2.6 + i * 0.1, 64)
    for _ in range(16):  # closer: a size-triggered full batch pins makespan
        add(3.2, 64)
    return entries


def build_crash_trace() -> list[dict]:
    """Construct the crash-scenario trace (the checked-in JSON is this output).

    Phases (pickups counted on the single device's actor):

    1. **warm-up** -- 4 spaced singles (pickups 1-4), each timing out into
       its own batch, so the crash cue lands deterministically on pickup 5.
    2. **plug** -- 16 long requests at one instant: a size-triggered full
       batch (pickup 5) with ~0.8 s of service.  This is the batch both
       engines lose: the simulator's scripted crash strikes mid-execution,
       the live worker dies on pickup.  Its replay re-dispatches behind the
       standing booking, so both engines complete it at the original drain
       instant plus one service time.
    3. **tail + closer** -- spaced singles after the replayed batch drains,
       then a final size-triggered full batch to pin the makespan.
    """
    entries: list[dict] = []

    def add(t: float, length: int) -> None:
        entries.append({"t": round(t, 4), "length": length, "slo_ms": _SLO_MS})

    for i in range(4):  # warm-up singles: pickups 1-4
        add(i * 0.1, 64)
    for _ in range(16):  # plug: pickup 5, the batch the crash takes down
        add(1.0, 384)
    for i in range(3):  # tail singles, after the replay drains (~2.6 s)
        add(2.8 + i * 0.1, 64)
    for _ in range(16):  # closer: a size-triggered full batch pins makespan
        add(3.5, 64)
    return entries


def load_validation_trace(path: str | Path | None = None) -> list[dict]:
    """Load a trace file (defaults to the checked-in validation trace)."""
    raw = json.loads(Path(path or VALIDATION_TRACE_PATH).read_text())
    entries = raw["entries"] if isinstance(raw, dict) else raw
    return sorted(entries, key=lambda e: (e["t"]))


def trace_requests(entries: list[dict]) -> list[Request]:
    """The simulator-side view of a trace: explicit requests with deadlines.

    Each request keeps the entry's ``output_len``, as :func:`replay_trace`
    sends it, so the simulator refuses a decode trace instead of replaying
    a different workload.
    """
    return [
        Request(
            request_id=index,
            length=int(entry["length"]),
            arrival_time=float(entry["t"]),
            deadline=(
                float(entry["t"]) + entry["slo_ms"] / 1e3
                if entry.get("slo_ms") is not None
                else None
            ),
            request_class=entry.get("class"),
            output_len=int(entry.get("output_len", 1)),
        )
        for index, entry in enumerate(sorted(entries, key=lambda e: e["t"]))
    ]


def _options(config: dict) -> ServingOptions:
    """One scenario's serving options, shared verbatim by both engines."""
    policy = TimeoutBatcher(batch_size=config["batch_size"], timeout_s=config["timeout_s"])
    return ServingOptions(batch_policy=policy, max_queue_depth=config.get("max_queue_depth"))


def _simulate(config: dict, entries: list[dict]):
    """Replay ``entries`` through the simulator; ``crash_time_s`` crashes device 0."""
    options = _options(config)
    if "crash_time_s" in config:
        crash = (0, config["crash_time_s"], config["crash_downtime_s"])
        options = replace(options, faults=ScriptedFaults(crashes=(crash,)))
    fleet = build_fleet((config["device"],), dataset=config["dataset"])
    return simulate_online(fleet, config["dataset"], trace_requests(entries), options=options)


def _gateway(config: dict) -> LiveGateway:
    """A live gateway at ``config``; ``crash_on_pickup`` cues a worker crash."""
    fleet = build_fleet((config["device"],), dataset=config["dataset"])
    gateway = LiveGateway(fleet, config["dataset"], _options(config))
    if "crash_on_pickup" in config:
        gateway.actors[0].fail_on_pickups = {config["crash_on_pickup"]}
    return gateway


def simulate_trace(entries: list[dict]):
    """Replay the trace through the simulator at the validation config."""
    return _simulate(VALIDATION_CONFIG, entries)


def validation_gateway() -> LiveGateway:
    """A live gateway at exactly the simulator's validation config."""
    return _gateway(VALIDATION_CONFIG)


def _validate(config: dict, trace_path, host: str, tolerance: float, speed: float) -> dict:
    """Replay one scenario's trace through both engines and diff the reports."""
    entries = load_validation_trace(trace_path)

    async def replay_live() -> dict:
        server = LiveServer(_gateway(config), host=host, port=0)
        await server.start()
        try:
            await replay_trace(host, server.port, entries, speed=speed)
            return await server.gateway.shutdown()
        finally:
            await server.close()

    sim = _simulate(config, entries).to_dict()
    live = asyncio.run(replay_live())
    return {
        "config": dict(config),
        "trace_entries": len(entries),
        "sim": sim,
        "live": live,
        "agreement": compare_reports(sim, live, tolerance),
    }


def compare_reports(sim: dict, live: dict, tolerance: float) -> dict:
    """Field-by-field agreement: exact counts, bounded-relative-error rates.

    Fault accounting (crashes / replays / crash-sheds) is part of the exact
    contract, and the live supervision tree is surfaced and checked too:
    the supervisor's restart count must equal the simulator's crash count
    (every simulated crash is a supervisor-visible worker death on the wire).
    """
    counts = {}
    for key in (
        "num_requests",
        "num_completed",
        "num_shed",
        "num_shed_late",
        "num_shed_predicted",
        "num_crashes",
        "num_replayed",
        "num_shed_crashed",
    ):
        counts[key] = {
            "sim": sim.get(key, 0),
            "live": live.get(key, 0),
            "match": sim.get(key, 0) == live.get(key, 0),
        }
    rates = {}
    for key in ("attainment_rate", "goodput_qps", "sustained_qps", "makespan_seconds"):
        sim_value, live_value = sim.get(key), live.get(key)
        if sim_value is None or live_value is None:
            rates[key] = {"sim": sim_value, "live": live_value, "relative_error": None,
                          "within_tolerance": sim_value == live_value}
            continue
        denom = abs(sim_value) if sim_value else 1.0
        error = abs(live_value - sim_value) / denom
        rates[key] = {
            "sim": sim_value,
            "live": live_value,
            "relative_error": error,
            "within_tolerance": error <= tolerance,
        }
    live_block = live.get("live") or {}
    restarts = live_block.get("worker_restarts", [])
    supervision = {
        "worker_restarts": restarts,
        "requeued_batches": live_block.get("requeued_batches", 0),
        "restarts_match_crashes": sum(restarts) == sim.get("num_crashes", 0),
    }
    return {
        "tolerance": tolerance,
        "counts": counts,
        "rates": rates,
        "supervision": supervision,
        "within_tolerance": all(c["match"] for c in counts.values())
        and all(r["within_tolerance"] for r in rates.values())
        and supervision["restarts_match_crashes"],
    }


def run_live_validation(
    trace_path: str | Path | None = None,
    *,
    host: str = "127.0.0.1",
    tolerance: float = 0.02,
    speed: float = 1.0,
) -> dict:
    """Replay the validation trace through both engines and diff the reports.

    Returns ``{"config", "sim", "live", "agreement"}``;
    ``agreement["within_tolerance"]`` is the pass/fail verdict CI checks.
    ``speed`` accelerates the wall-clock replay (pacing *and* service sleeps
    are unscaled -- only use values > 1 for smoke runs, not for validation).
    """
    return _validate(VALIDATION_CONFIG, trace_path, host, tolerance, speed)


def run_crash_validation(
    trace_path: str | Path | None = None,
    *,
    host: str = "127.0.0.1",
    tolerance: float = 0.02,
    speed: float = 1.0,
) -> dict:
    """The crash-scenario agreement contract: one lost batch, two engines.

    Same shape as :func:`run_live_validation`, over the checked-in crash
    trace (``traces/live_crash_scenario.json``): the simulator injects a
    scripted device crash, the live gateway crashes the worker on pickup of
    the same batch, and the reports must agree -- completed / shed / crash /
    replay counts exactly, rates within ``tolerance``, and the live
    supervisor's restart count equal to the simulated crash count.
    """
    return _validate(CRASH_CONFIG, trace_path or CRASH_TRACE_PATH, host, tolerance, speed)
