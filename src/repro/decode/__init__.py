"""Autoregressive decoder workloads: prefill/decode split, KV-cache as a
device resource, iteration-level continuous batching.

The serving simulator (:mod:`repro.serving`) models a request as a prompt
plus ``output_len`` generated tokens, an encoder request being one that
generates one; this package holds the generation side of it:

* :class:`DecodeRequestRecord` (from :mod:`repro.serving.request`) -- a
  decode run's records, carrying TTFT and inter-token latency.
* :mod:`~repro.decode.output_lengths` -- registered ``output-length``
  distributions (``fixed``, ``uniform``, ``geometric``).
* :func:`simulate_decode_online` -- ``simulate_online`` with an output-length
  distribution: prefill through the dispatch path, then iteration-level
  continuous batching over
  :meth:`~repro.devices.Device.decode_step_latency_seconds`, with
  token-level KV-cache admission on devices built with ``kv_cache_bytes``.
* The ``decode-sweep`` experiment (:mod:`~repro.decode.sweep`) -- TTFT /
  inter-token latency / SLO attainment versus offered load, iteration-level
  versus request-level admission, and top-k sparse attention as an
  accuracy-versus-KV-capacity operating point.
"""

from ..serving.request import DecodeRequestRecord
from .engine import DecodeServingReport, simulate_decode_online
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
    "DecodeRequestRecord",
    "DecodeServingReport",
    "FixedOutputLength",
    "GeometricOutputLength",
    "OutputLengthDistribution",
    "UniformOutputLength",
    "generate_decode_requests",
    "get_output_lengths",
    "simulate_decode_online",
]
