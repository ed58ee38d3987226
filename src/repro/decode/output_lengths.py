"""Registered output-length distributions for decoder workloads.

How many tokens a generation request produces is workload-dependent and, in
production traces, heavy-tailed: most completions are short, a few run very
long.  The distributions here are pluggable under the registry kind
``output-length`` (the same extension mechanism as arrival processes), so a
decode sweep can switch from fixed-length debugging streams to geometric
production-like streams from the CLI:

    from repro.decode import get_output_lengths

    dist = get_output_lengths("geometric", mean_output_len=48)
    lengths = dist.sample(1000, seed=2022)

Sampling is deterministic given ``seed`` and independent of the arrival
process' own RNG streams (a dedicated stream key), so pairing the same
arrival stream with different output-length distributions keeps prompts and
arrival times byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..registry import REGISTRY, register
from ..serving.arrivals import ArrivalProcess
from ..serving.request import Request
from ..transformer.configs import DatasetConfig

__all__ = [
    "OutputLengthDistribution",
    "FixedOutputLength",
    "UniformOutputLength",
    "GeometricOutputLength",
    "get_output_lengths",
    "generate_decode_requests",
]

#: Dedicated RNG stream key: output lengths never perturb arrival timing or
#: prompt-length sampling (see :mod:`repro.serving.arrivals`).
_OUTPUT_STREAM = 0xDEC0DE


class OutputLengthDistribution:
    """Base class: sample per-request output lengths deterministically."""

    name: str = "output-length"

    def sample(self, num: int, seed: int) -> np.ndarray:
        """Return ``num`` output lengths (ints >= 1) for stream ``seed``."""
        raise NotImplementedError

    def _rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([int(seed), _OUTPUT_STREAM])

    def stamp(self, requests: list[Request], seed: int) -> list[Request]:
        """``requests`` with output lengths sampled for stream ``seed``."""
        outputs = self.sample(len(requests), seed).tolist()
        return [
            Request(r.request_id, r.length, r.arrival_time, r.deadline, r.request_class, n)
            for r, n in zip(requests, outputs)
        ]


@register("output-length", "fixed")
@dataclass(frozen=True)
class FixedOutputLength(OutputLengthDistribution):
    """Every request generates exactly ``output_len`` tokens.

    Config knobs: ``output_len`` (tokens).  ``output_len=1`` turns the
    decode stream into an encoder stream (prefill-only), which is what the
    reduction property tests pin down.
    """

    output_len: int = 32
    name: str = "fixed"

    def __post_init__(self) -> None:
        if self.output_len < 1:
            raise ValueError("output_len must be >= 1")

    def sample(self, num: int, seed: int) -> np.ndarray:
        del seed  # deterministic by construction
        return np.full(num, self.output_len, dtype=np.int64)


@register("output-length", "uniform")
@dataclass(frozen=True)
class UniformOutputLength(OutputLengthDistribution):
    """Output lengths drawn uniformly from [min_output_len, max_output_len].

    Config knobs: ``min_output_len`` / ``max_output_len`` (tokens,
    inclusive).
    """

    min_output_len: int = 8
    max_output_len: int = 128
    name: str = "uniform"

    def __post_init__(self) -> None:
        if self.min_output_len < 1:
            raise ValueError("min_output_len must be >= 1")
        if self.max_output_len < self.min_output_len:
            raise ValueError("max_output_len must be >= min_output_len")

    def sample(self, num: int, seed: int) -> np.ndarray:
        rng = self._rng(seed)
        return rng.integers(
            self.min_output_len, self.max_output_len + 1, size=num, dtype=np.int64
        )


@register("output-length", "geometric", aliases=("geo",))
@dataclass(frozen=True)
class GeometricOutputLength(OutputLengthDistribution):
    """Memoryless production-like lengths: geometric, clipped at a maximum.

    Config knobs: ``mean_output_len`` (tokens; the pre-clip mean) and
    ``max_output_len`` (tokens; the generation cap every serving system
    enforces).  A geometric output length is what a constant per-token
    stop probability produces, and is the standard single-knob stand-in
    for heavy-tailed completion lengths.
    """

    mean_output_len: float = 32.0
    max_output_len: int = 256
    name: str = "geometric"

    def __post_init__(self) -> None:
        if self.mean_output_len < 1:
            raise ValueError("mean_output_len must be >= 1")
        if self.max_output_len < 1:
            raise ValueError("max_output_len must be >= 1")

    def sample(self, num: int, seed: int) -> np.ndarray:
        rng = self._rng(seed)
        lengths = rng.geometric(1.0 / float(self.mean_output_len), size=num)
        return np.minimum(lengths.astype(np.int64), self.max_output_len)


def get_output_lengths(
    spec: "OutputLengthDistribution | str | int", **kwargs
) -> OutputLengthDistribution:
    """Resolve an output-length spec: an instance, a registered name, or an
    int shorthand for :class:`FixedOutputLength`."""
    if isinstance(spec, OutputLengthDistribution):
        if kwargs:
            raise TypeError("cannot pass knobs alongside a distribution instance")
        return spec
    if isinstance(spec, (int, np.integer)):
        if kwargs:
            raise TypeError("cannot pass knobs alongside an int output length")
        return FixedOutputLength(output_len=int(spec))
    return REGISTRY.resolve("output-length", spec)(**kwargs)


def generate_decode_requests(
    dataset: DatasetConfig,
    arrivals: ArrivalProcess,
    num_requests: int | None,
    output_lengths: OutputLengthDistribution,
    seed: int,
) -> list[Request]:
    """Generate a decode stream through the existing arrival machinery.

    The arrival process produces prompts and timestamps exactly as it would
    for an encoder run; the output-length distribution then stamps each
    request from its own RNG stream, so the prompt/timing halves of the
    stream are byte-identical across output-length choices.
    """
    return output_lengths.stamp(arrivals.generate(dataset, num_requests, seed=seed), seed)
