"""Arrival processes generating open-loop request streams.

The serving engine is traffic-agnostic: it consumes a list of
:class:`~repro.serving.request.Request` objects sorted by arrival time.  The
processes here generate such lists from the dataset's Table 1 length
distribution:

* :class:`PoissonArrivals` -- memoryless traffic at a fixed offered QPS, the
  standard open-loop load model for latency-vs-throughput curves.
* :class:`BurstyArrivals` -- a two-state Markov-modulated Poisson process
  (MMPP-2): the stream alternates between a quiet state and a burst state
  whose rate is ``burst_ratio`` times higher, while the long-run average rate
  stays at the requested QPS.  This stresses queueing in a way Poisson traffic
  does not.
* :class:`DiurnalArrivals` -- a sinusoidally rate-modulated Poisson process
  (the classic day/night traffic shape, compressed to simulation scale).
  This is the capacity planner's canonical workload: a fleet sized for the
  mean rate misses the peak, a fleet sized for the peak idles off-peak.
* :class:`FlashCrowdArrivals` -- baseline Poisson traffic with one
  rectangular spike window at a multiple of the baseline rate (a launch, a
  retry storm).  This is the autoscaling stress test: static fleets must
  over-provision for the spike; reactive scaling pays the provisioning lag.
* :class:`TraceArrivals` -- replay of an explicit (time, length) trace,
  e.g. recorded production traffic.
* :class:`ClosedLoopArrivals` -- every request present at t=0; with a
  :class:`~repro.serving.policies.FixedSizeBatcher` this is the paper's
  batch-drain serving run, whose drain rate is the report's ``sustained_qps``.

Lengths are always drawn with :func:`repro.datasets.length_distributions.sample_lengths`
so the open-loop stream follows the exact same per-dataset distribution as the
closed-batch experiments.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .. import config as global_config
from ..datasets.length_distributions import sample_lengths
from ..registry import REGISTRY, register
from ..transformer.configs import DatasetConfig
from .request import Request

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "TraceArrivals",
    "ClosedLoopArrivals",
    "get_arrival_process",
    "load_trace",
]


def _check_count(process: "ArrivalProcess", num_requests: int | None) -> int:
    if num_requests is None:
        raise ValueError(f"arrival process '{process.name}' needs num_requests")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    return num_requests


def _deadlines(lengths, times, outputs, classes, slo) -> list:
    """Every request's deadline (``None`` = no SLO), as one vector expression.

    A class's SLO stamps its members and ``slo`` stamps everyone else.  The
    operands associate exactly as in :meth:`SLOSpec.deadline_for`, so every
    deadline is the float that method returns.
    """
    specs, pick = [slo], 0
    if classes is not None:
        from .classes import get_request_class

        rows = {name: row for row, name in enumerate(dict.fromkeys(classes))}
        specs = [get_request_class(name).slo or slo for name in rows]
        pick = np.fromiter(map(rows.__getitem__, classes), np.intp, len(classes))
    if not any(specs):
        return [None] * len(lengths)
    table = np.array([
        (s.base_s, s.per_token_s, s.per_output_token_s) if s else (np.nan,) * 3 for s in specs
    ])
    base, per_token, per_output = table[pick].T
    stamped = times + (base + per_token * lengths + per_output * np.asarray(outputs))
    deadlines = stamped.tolist()
    if np.isnan(stamped).any():
        deadlines = [None if d != d else d for d in deadlines]
    return deadlines


class ArrivalProcess:
    """Base class: generate a deterministic request stream for a dataset.

    A process supplies the stream as columns -- usually by overriding
    :meth:`arrival_times`, or :meth:`columns` when it also picks lengths or
    classes -- and :meth:`generate` builds each request from them once.
    """

    name: str = "arrivals"

    #: Offered request rate (requests/second) when the process has one.
    rate_qps: float | None = None

    def arrival_times(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``num_requests`` non-decreasing arrival times (seconds)."""
        raise NotImplementedError

    def columns(
        self, dataset: DatasetConfig | str, num_requests: int | None, seed: int
    ) -> tuple[np.ndarray, np.ndarray, list[str] | None]:
        """The stream in arrival order: lengths, arrival times, class names.

        The class column is ``None`` for untagged traffic.
        """
        num_requests = _check_count(self, num_requests)
        lengths = sample_lengths(dataset, num_requests, seed=seed)
        # A distinct stream for timing keeps arrival times independent of the
        # length sample (and identical to the closed-batch sample for a seed).
        rng = np.random.default_rng([seed, 0x5E12])
        times = np.asarray(self.arrival_times(num_requests, rng), dtype=np.float64)
        if len(times) != num_requests:
            raise ValueError("arrival process returned the wrong number of times")
        return lengths, np.maximum.accumulate(np.maximum(times, 0.0)), None

    def generate(
        self,
        dataset: DatasetConfig | str,
        num_requests: int | None = None,
        seed: int = global_config.DEFAULT_SEED,
        *,
        slo=None,
        output_lengths=None,
    ) -> list[Request]:
        """Materialize the request stream (sorted by arrival time, then id).

        ``output_lengths`` (an
        :class:`~repro.decode.OutputLengthDistribution`) samples every
        request's ``output_len`` for stream ``seed`` (default: one token).
        A member of a class with an SLO gets that class's deadline; every
        other request gets the deadline ``slo`` (an
        :class:`~repro.serving.slo.SLOSpec`) assigns, or none.
        """
        lengths, times, classes = self.columns(dataset, num_requests, seed)
        count = len(lengths)
        outputs = [1] * count
        if output_lengths is not None:
            outputs = output_lengths.sample(count, seed).tolist()
        deadlines = _deadlines(lengths, times, outputs, classes, slo)
        tags = repeat(None) if classes is None else classes
        return list(
            map(Request, range(count), lengths.tolist(), times.tolist(), deadlines, tags, outputs)
        )


@register("arrival", "poisson")
@dataclass
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed offered rate.

    Config knobs: ``rate_qps`` (requests/second) -- the standard open-loop
    load model behind latency-vs-throughput curves.
    """

    rate_qps: float = 100.0
    name: str = "poisson"

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")

    def arrival_times(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        gaps = rng.exponential(scale=1.0 / self.rate_qps, size=num_requests)
        return np.cumsum(gaps)


@register("arrival", "bursty")
@dataclass
class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: quiet periods interleaved with high-rate bursts.

    Config knobs: ``rate_qps`` (requests/second, long-run average),
    ``burst_ratio`` (multiplier), ``burst_fraction`` (0-1), and
    ``mean_dwell_s`` (seconds).
    ``burst_fraction`` of the time is spent in the burst state, whose rate is
    ``burst_ratio`` times the quiet rate; the quiet rate is solved so the
    long-run average equals ``rate_qps``.  State dwell times are exponential
    with mean ``mean_dwell_s`` (quiet) and ``mean_dwell_s * burst_fraction /
    (1 - burst_fraction)`` (burst), which yields the requested stationary mix.
    """

    rate_qps: float = 100.0
    burst_ratio: float = 5.0
    burst_fraction: float = 0.2
    mean_dwell_s: float = 0.5
    name: str = "bursty"

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.burst_ratio < 1:
            raise ValueError("burst_ratio must be >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.mean_dwell_s <= 0:
            raise ValueError("mean_dwell_s must be > 0")

    def arrival_times(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        quiet_rate = self.rate_qps / (1.0 - self.burst_fraction + self.burst_fraction * self.burst_ratio)
        burst_rate = quiet_rate * self.burst_ratio
        dwell = {
            False: self.mean_dwell_s,
            True: self.mean_dwell_s * self.burst_fraction / (1.0 - self.burst_fraction),
        }
        times = np.empty(num_requests, dtype=np.float64)
        now = 0.0
        bursting = False
        state_end = rng.exponential(dwell[bursting])
        for i in range(num_requests):
            while True:
                rate = burst_rate if bursting else quiet_rate
                gap = rng.exponential(1.0 / rate)
                if now + gap <= state_end:
                    now += gap
                    times[i] = now
                    break
                # No arrival before the state flips: jump to the transition
                # and redraw in the new state (valid because the exponential
                # gap is memoryless).
                now = state_end
                bursting = not bursting
                state_end = now + rng.exponential(dwell[bursting])
        return times


@register("arrival", "diurnal")
@dataclass
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally rate-modulated Poisson traffic (day/night cycles).

    Config knobs: ``rate_qps`` (requests/second, long-run average),
    ``amplitude`` (0-1, peak deviation as a fraction of the average),
    ``period_s`` (seconds per cycle), and ``phase`` (radians at t=0).
    The instantaneous rate is
    ``rate_qps * (1 + amplitude * sin(2*pi*t/period_s + phase))``, so the
    offered load swings between ``(1-amplitude)`` and ``(1+amplitude)``
    times the average.  Arrivals are drawn by thinning a homogeneous
    Poisson stream at the peak rate, which is exact for any inhomogeneous
    rate function bounded by that peak.
    """

    rate_qps: float = 100.0
    amplitude: float = 0.6
    period_s: float = 20.0
    phase: float = 0.0
    name: str = "diurnal"

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")

    def _rate_at(self, t: float) -> float:
        return self.rate_qps * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_s + self.phase)
        )

    def arrival_times(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        peak = self.rate_qps * (1.0 + self.amplitude)
        times = np.empty(num_requests, dtype=np.float64)
        now = 0.0
        accepted = 0
        while accepted < num_requests:
            now += rng.exponential(1.0 / peak)
            # Thinning: keep each candidate with probability rate(t)/peak.
            if rng.random() * peak <= self._rate_at(now):
                times[accepted] = now
                accepted += 1
        return times


@register("arrival", "flash-crowd", aliases=("flash",))
@dataclass
class FlashCrowdArrivals(ArrivalProcess):
    """Baseline Poisson traffic with one rectangular spike window.

    Config knobs: ``rate_qps`` (requests/second, baseline rate),
    ``spike_ratio`` (>= 1, spike rate as a multiple of the baseline),
    ``spike_start_s`` (seconds) and ``spike_duration_s`` (seconds).
    During ``[spike_start_s, spike_start_s + spike_duration_s)`` the rate is
    ``spike_ratio * rate_qps``; outside it, ``rate_qps``.  Sampling is
    piecewise-homogeneous with a memoryless redraw at each boundary (the
    same construction :class:`BurstyArrivals` uses for its state flips).
    This is the autoscaling stress test: a static fleet sized for the
    baseline drowns during the spike, one sized for the spike idles the
    rest of the run.
    """

    rate_qps: float = 100.0
    spike_ratio: float = 5.0
    spike_start_s: float = 5.0
    spike_duration_s: float = 5.0
    name: str = "flash-crowd"

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.spike_ratio < 1:
            raise ValueError("spike_ratio must be >= 1")
        if self.spike_start_s < 0:
            raise ValueError("spike_start_s must be >= 0")
        if self.spike_duration_s <= 0:
            raise ValueError("spike_duration_s must be > 0")

    def _next_boundary(self, t: float) -> float:
        if t < self.spike_start_s:
            return self.spike_start_s
        end = self.spike_start_s + self.spike_duration_s
        if t < end:
            return end
        return np.inf

    def _rate_at(self, t: float) -> float:
        if self.spike_start_s <= t < self.spike_start_s + self.spike_duration_s:
            return self.rate_qps * self.spike_ratio
        return self.rate_qps

    def arrival_times(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        times = np.empty(num_requests, dtype=np.float64)
        now = 0.0
        for i in range(num_requests):
            while True:
                gap = rng.exponential(1.0 / self._rate_at(now))
                boundary = self._next_boundary(now)
                if now + gap <= boundary:
                    now += gap
                    times[i] = now
                    break
                # No arrival before the rate changes: jump to the boundary
                # and redraw at the new rate (exact by memorylessness).
                now = boundary
        return times


@register("arrival", "trace")
@dataclass
class TraceArrivals(ArrivalProcess):
    """Replay an explicit arrival-time trace (optionally with lengths).

    Config knobs: ``trace`` (arrival times in seconds, or ``(time, length)``
    pairs with lengths in tokens).
    ``trace`` is a sequence of arrival times, or of ``(time, length)`` pairs.
    When lengths are omitted they are drawn from the dataset distribution, so
    a recorded timing trace can be re-weighted onto any Table 1 dataset.  The
    whole trace is replayed unless ``generate`` is given an explicit
    ``num_requests`` cap.
    """

    trace: tuple = ()
    name: str = "trace"

    def __post_init__(self) -> None:
        self.trace = tuple(self.trace)
        if not self.trace:
            raise ValueError("trace must contain at least one entry")
        paired = isinstance(self.trace[0], (tuple, list))
        for index, entry in enumerate(self.trace):
            if isinstance(entry, (tuple, list)) != paired:
                raise ValueError(
                    f"trace entry {index} ({entry!r}): bare times and "
                    "(time, length) pairs cannot be mixed"
                )
            values = tuple(entry) if paired else (entry,)
            if paired and len(values) != 2:
                raise ValueError(f"trace entry {index} ({entry!r}) is not a (time, length) pair")
            try:
                finite = all(math.isfinite(float(value)) for value in values)
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise ValueError(f"trace entry {index} ({entry!r}) must hold finite numbers")

    def columns(self, dataset, num_requests, seed):
        first = self.trace[0]
        if isinstance(first, (tuple, list)):
            times = [float(t) for t, _ in self.trace]
            lengths = [int(n) for _, n in self.trace]
        else:
            times, lengths = [float(t) for t in self.trace], None
        count = len(times) if num_requests is None else min(num_requests, len(times))
        if lengths is None:
            lengths = sample_lengths(dataset, count, seed=seed).tolist()
        order = sorted(range(count), key=lambda i: (times[i], i))
        return (
            np.array([lengths[i] for i in order], dtype=np.int64),
            np.array([max(times[i], 0.0) for i in order], dtype=np.float64),
            None,
        )


def load_trace(path: str | Path) -> tuple:
    """Load a JSON arrival trace: a list of times or of [time, length] pairs.

    The list may also sit under the ``"trace"`` key of a JSON object.  The
    entries are checked exactly as :class:`TraceArrivals` checks them, so a
    bad file fails here with a :class:`ValueError` naming the entry.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"trace file {path} is not valid JSON: {error}") from error
    if isinstance(payload, dict):
        payload = payload.get("trace")
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"trace file {path} must hold a non-empty JSON list")
    entries = [tuple(entry) if isinstance(entry, list) else entry for entry in payload]
    try:
        return TraceArrivals(trace=entries).trace
    except ValueError as error:
        raise ValueError(f"trace file {path}: {error}") from error


@register("arrival", "closed-loop", aliases=("closed",))
@dataclass
class ClosedLoopArrivals(ArrivalProcess):
    """Every request is already queued at t=0 (batch-drain serving).

    Config knobs: ``sort_by_length`` (bool).
    ``sort_by_length`` reproduces the serving-side global sort of
    :func:`repro.datasets.batching.sorted_batches`: requests enter the FIFO
    queue in decreasing length order, so fixed-size batches bucket
    similar-length requests together.  Paired with a
    :class:`~repro.serving.policies.FixedSizeBatcher`, the run drains the
    stream back to back and ``sustained_qps`` is the drain rate (the
    closed-batch throughput the paper compares length-aware and padded
    scheduling on).
    """

    sort_by_length: bool = True
    name: str = "closed-loop"
    rate_qps: float | None = field(default=None, init=False)

    def columns(self, dataset, num_requests, seed):
        lengths = sample_lengths(dataset, _check_count(self, num_requests), seed=seed)
        if self.sort_by_length:
            lengths = np.sort(lengths)[::-1]
        return lengths, np.zeros(len(lengths)), None


def _is_rate_driven(factory) -> bool:
    """Whether a factory's constructor declares an explicit ``rate_qps``."""
    if dataclasses.is_dataclass(factory):
        return any(f.name == "rate_qps" and f.init for f in dataclasses.fields(factory))
    try:
        return "rate_qps" in inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False


def get_arrival_process(name: str, rate_qps: float | None = None, **kwargs) -> ArrivalProcess:
    """Build an arrival process by registered name (``poisson``, ``bursty``, ...).

    Thin convenience wrapper over ``repro.registry.create("arrival", name)``:
    it injects ``rate_qps`` only into factories whose constructor declares it
    (dataclass field or explicit parameter) and raises :class:`ValueError`
    when such a rate-driven process is asked for without one.  Third-party
    processes registered with ``@register("arrival", ...)`` are constructed
    the same way.
    """
    factory = REGISTRY.resolve("arrival", name)
    if _is_rate_driven(factory):
        if rate_qps is None:
            raise ValueError(f"arrival process '{name}' needs rate_qps")
        kwargs["rate_qps"] = rate_qps
    return factory(**kwargs)
