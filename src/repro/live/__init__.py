"""repro.live: an asyncio serving gateway validated against the simulator.

The serving simulator (:mod:`repro.serving`) predicts what a deployment
would do; this package *is* that deployment, shrunk to one process.  HTTP
ingest parses requests into the same :class:`~repro.serving.Request`
objects, the same registered batch
policies, routers, admission control, and SLO machinery form and place
batches (through the shared :class:`~repro.serving.core.DispatchCore`), and
an actor per device sleeps through the cost model's predicted latencies --
so the wall-clock service matches the simulation up to scheduling jitter,
and :mod:`~repro.live.validation` holds it to that, record for record.

* :mod:`~repro.live.gateway` -- :class:`LiveGateway`: wall-clock driver of
  the dispatch core (ingest, dispatcher task, KV accounting, stats,
  graceful shutdown).
* :mod:`~repro.live.actors` -- :class:`DeviceActor`: per-device worker +
  supervisor (crash -> requeue exactly once -> restart).
* :mod:`~repro.live.http` -- :class:`LiveServer`: stdlib HTTP/1.1 front end
  (``/v1/requests``, ``/v1/stream``, ``/healthz``, ``/stats``,
  ``/shutdown``; 429 backpressure, 503 while draining).
* :mod:`~repro.live.client` -- minimal client + paced trace replay.
* :mod:`~repro.live.validation` -- the checked-in trace and the sim-vs-live
  agreement report (``repro live --validate``).
"""

from .actors import DeviceActor
from .client import http_json, replay_trace, stream_trace
from .gateway import LiveGateway, SubmitResult
from .http import LiveServer
from .validation import (
    CRASH_TRACE_PATH,
    VALIDATION_TRACE_PATH,
    build_crash_trace,
    build_validation_trace,
    load_validation_trace,
    run_crash_validation,
    run_live_validation,
    simulate_trace,
    trace_requests,
    validation_gateway,
)

__all__ = [
    "CRASH_TRACE_PATH",
    "DeviceActor",
    "LiveGateway",
    "LiveServer",
    "SubmitResult",
    "VALIDATION_TRACE_PATH",
    "build_crash_trace",
    "build_validation_trace",
    "http_json",
    "load_validation_trace",
    "replay_trace",
    "run_crash_validation",
    "run_live_validation",
    "simulate_trace",
    "stream_trace",
    "trace_requests",
    "validation_gateway",
]
