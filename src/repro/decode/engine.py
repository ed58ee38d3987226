"""Iteration-level continuous batching for autoregressive decode workloads.

A decode run is :func:`~repro.serving.engine.simulate_online` given
``output_lengths``; the simulator has one core for encoder and decoder
requests alike, because an encoder request is a request that generates one
token.

* **Prefill** runs through the dispatch path every batch takes -- batch
  policy, router, per-device admission limits, the device's own ``execute``
  cost model -- and produces the request's first token (TTFT = prefill
  completion).
* **Decode** then generates the remaining ``output_len - 1`` tokens one
  iteration at a time: every step costs
  :meth:`~repro.devices.Device.decode_step_latency_seconds` over the running
  batch's context lengths (KV bytes read per step), and requests *join the
  running batch at any step boundary* after their prefill finishes and leave
  the instant they complete -- vLLM/Orca-style iteration-level continuous
  batching.  ``iteration_level=False`` degrades to the classic request-level
  (gang) baseline: a batch decodes to full completion before anyone joins,
  early finishers hold their KV and slots until the gang drains.

**KV-cache capacity is a device resource**: a device built with
``kv_cache_bytes`` admits every prefill against its cache occupancy -- each
request reserves ``Device.kv_reservation_bytes`` of its ``total_tokens``
(prompt plus every token it will generate), and releases it on completion
(gang end in request-level mode).  A batch that does not fit waits for
releases; a request that could never fit an empty cache raises immediately.

Decode runs refuse ``autoscaler``, ``faults`` and ``hedging``: what a crash,
a hedge or a scale-down means mid-decode is not modelled yet.

:func:`simulate_decode_online` is ``simulate_online`` with
``output_lengths`` defaulting to ``"geometric"``.
"""

from __future__ import annotations

from dataclasses import replace

from ..serving.engine import OnlineServingReport, simulate_online

# These names stay importable here because perfbench/tracing.py wraps them by
# module attribute (its traced repeats fail if one is deleted or moved).
from ..serving.classes import collect_class_stats  # noqa: F401
from ..serving.core import collect_device_stats  # noqa: F401
from .output_lengths import generate_decode_requests  # noqa: F401

__all__ = ["simulate_decode_online"]


def simulate_decode_online(
    devices, dataset, arrivals, num_requests=None, output_lengths="geometric", options=None, **knobs
) -> OnlineServingReport:
    """Run a decode serving simulation: :func:`~repro.serving.engine.simulate_online`
    with ``output_lengths`` (default ``"geometric"``, also for an ``options``
    object that sets none); every other keyword is forwarded unchanged."""
    if options is None:
        knobs["output_lengths"] = output_lengths
    elif options.output_lengths is None:
        options = replace(options, output_lengths=output_lengths)
    return simulate_online(devices, dataset, arrivals, num_requests, options, **knobs)
