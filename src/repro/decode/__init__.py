"""Autoregressive decoder workloads: prefill/decode split, KV-cache as a
device resource, iteration-level continuous batching.

The serving simulator (:mod:`repro.serving`) models a request as a prompt
plus ``output_len`` generated tokens, an encoder request being one that
generates one; this package holds the generation side of it:

* :mod:`~repro.decode.output_lengths` -- registered ``output-length``
  distributions (``fixed``, ``uniform``, ``geometric``).
* :func:`simulate_decode_online` -- ``simulate_online`` with an output-length
  distribution: prefill through the dispatch path, then iteration-level
  continuous batching over
  :meth:`~repro.devices.Device.decode_step_latency_seconds`, with
  token-level KV-cache admission on devices built with ``kv_cache_bytes``.
  It returns the encoder's :class:`~repro.serving.OnlineServingReport`,
  whose decode block (TTFT, inter-token latency, token goodput, per-device
  decode steps and KV peaks) is filled because ``output_lengths`` is set,
  and whose :class:`~repro.serving.RequestRecord` rows carry each request's
  first token.
* The ``decode-sweep`` experiment (:mod:`~repro.decode.sweep`) -- TTFT /
  inter-token latency / SLO attainment versus offered load, iteration-level
  versus request-level admission, and top-k sparse attention as an
  accuracy-versus-KV-capacity operating point.
"""

from .engine import simulate_decode_online
from .output_lengths import (
    FixedOutputLength,
    GeometricOutputLength,
    OutputLengthDistribution,
    UniformOutputLength,
    generate_decode_requests,
    get_output_lengths,
)
from .sweep import (
    DecodeSweepConfig,
    DecodeSweepResult,
    decode_concurrency_limit,
    run_decode_sweep,
)

__all__ = [
    "DecodeSweepConfig",
    "DecodeSweepResult",
    "decode_concurrency_limit",
    "run_decode_sweep",
    "FixedOutputLength",
    "GeometricOutputLength",
    "OutputLengthDistribution",
    "UniformOutputLength",
    "generate_decode_requests",
    "get_output_lengths",
    "simulate_decode_online",
]
