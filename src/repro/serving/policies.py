"""Batch-formation policies for the online serving engine.

The engine keeps one central FIFO queue of pending requests and repeatedly
asks its policy whether a batch can be cut *now*.  A policy sees the queue,
the current simulation time, and whether the arrival stream is exhausted
(``draining``); it pops the requests it dispatches.  Policies also expose the
next wall-clock time at which they would act without any new arrival (their
timeout deadline), which is how the event loop schedules timer wake-ups.

* :class:`FixedSizeBatcher` -- wait for a full batch; no deadline.  With all
  requests present at t=0 this is exactly the legacy closed-batch drain.
* :class:`TimeoutBatcher` -- dynamic batching: dispatch on a full batch or
  when the oldest request has waited ``timeout_s``, whichever comes first
  (the classic server-side batching knob).
* :class:`LengthBucketedBatcher` -- continuous batching with length locality:
  requests are grouped into length buckets so a batch mixes similar lengths
  (keeping the padding/sorting benefit of the length-aware scheduler under
  open-loop traffic), with the same timeout escape hatch.

The SLO-aware :class:`~repro.serving.slo.DeadlineBatcher` (EDF formation,
deadline-pressure dispatch, provably-late shedding) lives in
:mod:`repro.serving.slo` and registers under the same ``batch-policy`` kind.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .. import config as global_config
from ..registry import REGISTRY, register
from ..transformer.configs import DatasetConfig
from .request import Request

__all__ = [
    "BatchPolicy",
    "FixedSizeBatcher",
    "TimeoutBatcher",
    "LengthBucketedBatcher",
    "check_formation_knobs",
    "get_batch_policy",
]

#: Tolerance when comparing floating-point deadlines against the clock.
_TIME_EPS = 1e-9


def check_formation_knobs(batch_size: int, timeout_s: float = 0.0) -> None:
    """The one check of the knobs the policies share (a NaN or inf timeout never fires)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not (math.isfinite(timeout_s) and timeout_s >= 0):
        raise ValueError(f"timeout_s must be >= 0 and finite, got {timeout_s!r}")


class BatchPolicy:
    """Base class for batch-formation policies."""

    name: str = "batch-policy"

    def prepare(self, dataset: DatasetConfig) -> None:
        """Optional hook: learn dataset statistics before the run starts."""

    def bind_fleet(self, fleet: list) -> None:
        """Optional hook: see the device fleet before the run starts.

        SLO-aware policies use this to query the fleet's cost models
        (:meth:`repro.devices.Device.batch_latency_seconds`); FIFO policies
        ignore it.
        """

    def take_shed(self) -> list[Request]:
        """Return and clear the requests the policy dropped as unservable.

        The engine drains this after every formation round and reports the
        drops as ``num_shed_late``; only deadline-aware policies shed.
        """
        return []

    def next_action_time(self, queue: list[Request], now: float) -> float | None:
        """Earliest time the policy will act without a new arrival (or None)."""
        return None

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        """Pop and return one batch if one can be cut at ``now``, else None."""
        raise NotImplementedError


@register("batch-policy", "fixed-size", aliases=("fixed",))
@dataclass
class FixedSizeBatcher(BatchPolicy):
    """Dispatch only full batches of ``batch_size`` (flush the tail at drain).

    Config knobs: ``batch_size`` (requests per batch).  With all requests
    present at t=0 this is exactly the legacy closed-batch drain.
    """

    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    name: str = "fixed-size"

    def __post_init__(self) -> None:
        check_formation_knobs(self.batch_size)

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        if len(queue) >= self.batch_size or (draining and queue):
            batch = queue[: self.batch_size]
            del queue[: self.batch_size]
            return batch
        return None


@register("batch-policy", "timeout")
@dataclass
class TimeoutBatcher(BatchPolicy):
    """Dispatch on a full batch or when the oldest request ages past the timeout.

    Config knobs: ``batch_size`` (requests per batch) and ``timeout_s``
    (seconds the oldest request may wait before the partial batch fires) --
    the classic server-side dynamic-batching knob.
    """

    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    timeout_s: float = 5e-3
    name: str = "timeout"

    def __post_init__(self) -> None:
        check_formation_knobs(self.batch_size, self.timeout_s)

    def next_action_time(self, queue: list[Request], now: float) -> float | None:
        if not queue:
            return None
        return queue[0].arrival_time + self.timeout_s

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        if not queue:
            return None
        timed_out = now + _TIME_EPS >= queue[0].arrival_time + self.timeout_s
        if len(queue) >= self.batch_size or timed_out or draining:
            batch = queue[: self.batch_size]
            del queue[: self.batch_size]
            return batch
        return None


@register("batch-policy", "length-bucketed", aliases=("bucketed",))
@dataclass
class LengthBucketedBatcher(BatchPolicy):
    """Continuous batching with per-length-bucket queues.

    Config knobs: ``batch_size`` (requests per batch), ``timeout_s``
    (seconds), ``num_buckets`` (count), ``bucket_width`` (tokens), and
    ``bucket_edges`` (token thresholds).  The queue is partitioned by
    sequence length into ``num_buckets`` bands between the dataset's min and
    max length; a band dispatches as soon as it holds a full batch, and the
    oldest waiting request (across all bands) forces its band out after
    ``timeout_s``.  ``bucket_width`` switches the banding to fixed-width
    bands of that many tokens, and explicit ``bucket_edges`` override both
    automatic schemes.
    """

    batch_size: int = global_config.DEFAULT_BATCH_SIZE
    timeout_s: float = 5e-3
    num_buckets: int = 4
    bucket_width: float | None = None
    bucket_edges: tuple[float, ...] | None = None
    name: str = "length-bucketed"
    _edges: list[float] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_formation_knobs(self.batch_size, self.timeout_s)
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if self.bucket_width is not None and self.bucket_width <= 0:
            raise ValueError("bucket_width must be > 0")
        if self.bucket_edges is not None:
            self._edges = sorted(float(e) for e in self.bucket_edges)

    def prepare(self, dataset: DatasetConfig) -> None:
        if self.bucket_edges is not None:
            return
        if self.bucket_width is not None:
            self._edges = [
                float(e)
                for e in np.arange(
                    dataset.min_length + self.bucket_width,
                    dataset.max_length,
                    self.bucket_width,
                )
            ]
        else:
            self._edges = [
                float(e)
                for e in np.linspace(
                    dataset.min_length, dataset.max_length, self.num_buckets + 1
                )[1:-1]
            ]

    def _bucket(self, length: int) -> int:
        return bisect_right(self._edges, length)

    def _pop_bucket(self, queue: list[Request], bucket: int) -> list[Request]:
        members = [r for r in queue if self._bucket(r.length) == bucket]
        batch = members[: self.batch_size]
        taken = {r.request_id for r in batch}
        queue[:] = [r for r in queue if r.request_id not in taken]
        return batch

    def next_action_time(self, queue: list[Request], now: float) -> float | None:
        if not queue:
            return None
        return queue[0].arrival_time + self.timeout_s

    def form_batch(
        self, queue: list[Request], now: float, draining: bool
    ) -> list[Request] | None:
        if not queue:
            return None
        counts: dict[int, int] = {}
        for request in queue:
            bucket = self._bucket(request.length)
            counts[bucket] = counts.get(bucket, 0) + 1
        full = sorted(b for b, count in counts.items() if count >= self.batch_size)
        if full:
            return self._pop_bucket(queue, full[0])
        oldest = queue[0]
        if draining or now + _TIME_EPS >= oldest.arrival_time + self.timeout_s:
            return self._pop_bucket(queue, self._bucket(oldest.length))
        return None


#: Shared CLI knobs that not every policy declares; get_batch_policy drops
#: exactly these when the chosen policy has no such field, so one flag set
#: drives every policy while typos still raise TypeError.
_OPTIONAL_POLICY_KNOBS = frozenset({"timeout_s", "num_buckets", "bucket_width"})


def get_batch_policy(name: str, **kwargs) -> BatchPolicy:
    """Build a batch policy by registered name (``fixed``, ``timeout``, ``bucketed``).

    Thin convenience wrapper over ``repro.registry.create("batch-policy",
    name)`` that drops the shared CLI knobs the chosen policy does not
    declare (e.g. ``timeout_s`` for the fixed-size batcher, ``bucket_width``
    for the FIFO policies).  Any other unexpected keyword still raises
    :class:`TypeError`.
    """
    factory = REGISTRY.resolve("batch-policy", name)
    if dataclasses.is_dataclass(factory):
        accepted = {f.name for f in dataclasses.fields(factory) if f.init}
        kwargs = {
            key: value
            for key, value in kwargs.items()
            if key in accepted or key not in _OPTIONAL_POLICY_KNOBS
        }
    return factory(**kwargs)
