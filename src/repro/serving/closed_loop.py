"""Closed-loop (batch-drain) serving as a special case of the online engine.

The original batch-serving ``simulate_serving`` drained a fixed
request stream back-to-back: every request present up front, fixed batches of
16, a single accelerator.  That is exactly the online engine configured with
:class:`~repro.serving.arrivals.ClosedLoopArrivals` (all arrivals at t=0),
a :class:`~repro.serving.policies.FixedSizeBatcher`, and a one-device fleet --
so this module keeps the legacy API and report shape while delegating every
simulated cycle to :func:`~repro.serving.engine.simulate_online`.  Batch
composition, per-batch schedules, and aggregate throughput are bit-identical
to the legacy implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import config as global_config
from ..hardware.accelerator import Accelerator
from ..scheduling.length_aware import LengthAwareScheduler
from ..scheduling.pipeline import ScheduleResult
from ..transformer.configs import DatasetConfig
from .arrivals import ClosedLoopArrivals
from .engine import OnlineServingReport, simulate_online
from .policies import FixedSizeBatcher

__all__ = ["ServingReport", "simulate_serving"]


@dataclass
class ServingReport:
    """Aggregate results of serving a request stream (legacy closed-loop view)."""

    dataset: str
    accelerator: str
    scheduler: str
    batch_size: int
    num_requests: int
    batch_results: list[ScheduleResult] = field(default_factory=list)
    sequence_latencies_seconds: list[float] = field(default_factory=list)
    #: The underlying open-loop report (None when built by hand).
    online_report: OnlineServingReport | None = None

    @property
    def total_seconds(self) -> float:
        """Wall-clock time to drain the whole request stream (batches run back to back)."""
        return float(sum(result.makespan_seconds for result in self.batch_results))

    @property
    def throughput_sequences_per_second(self) -> float:
        """Aggregate serving throughput."""
        if self.total_seconds == 0:
            return 0.0
        return self.num_requests / self.total_seconds

    @property
    def average_utilization(self) -> float:
        """Mean stage utilization across batches."""
        if not self.batch_results:
            return 0.0
        return float(np.mean([result.average_utilization for result in self.batch_results]))

    def latency_percentile(self, percentile: float) -> float:
        """Per-sequence latency percentile (seconds), including queueing inside the batch."""
        if not self.sequence_latencies_seconds:
            raise ValueError("no sequences were served")
        return float(np.percentile(self.sequence_latencies_seconds, percentile))

    def as_row(self) -> dict:
        """Summary row for reports."""
        return {
            "dataset": self.dataset,
            "scheduler": self.scheduler,
            "batch_size": self.batch_size,
            "requests": self.num_requests,
            "throughput_seq_per_s": round(self.throughput_sequences_per_second, 1),
            "p50_latency_ms": round(self.latency_percentile(50) * 1e3, 2),
            "p99_latency_ms": round(self.latency_percentile(99) * 1e3, 2),
            "avg_stage_utilization": round(self.average_utilization, 3),
        }


def simulate_serving(
    accelerator: Accelerator,
    dataset: DatasetConfig,
    num_requests: int = 256,
    batch_size: int = global_config.DEFAULT_BATCH_SIZE,
    scheduler=None,
    sort_globally: bool = True,
    seed: int = global_config.DEFAULT_SEED,
) -> ServingReport:
    """Serve ``num_requests`` synthetic requests drawn from ``dataset``.

    Parameters
    ----------
    accelerator:
        The FPGA design to serve on.
    dataset:
        Which Table 1 length distribution the requests follow.
    num_requests:
        Total number of sequences in the stream.
    batch_size:
        Sequences per hardware batch (the paper uses 16).
    scheduler:
        Any scheduler with a ``schedule(accelerator, lengths)`` method;
        defaults to the length-aware scheduler.
    sort_globally:
        Bucket similar-length requests into the same batch before scheduling
        (standard serving practice; the intra-batch sort is the scheduler's
        job either way).
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    scheduler = scheduler or LengthAwareScheduler()
    online = simulate_online(
        accelerator,
        dataset,
        arrivals=ClosedLoopArrivals(sort_by_length=sort_globally),
        num_requests=num_requests,
        batch_policy=FixedSizeBatcher(batch_size=batch_size),
        scheduler=scheduler,
        seed=seed,
    )

    report = ServingReport(
        dataset=online.dataset,
        accelerator=accelerator.name,
        scheduler=online.scheduler,
        batch_size=batch_size,
        num_requests=num_requests,
        online_report=online,
    )
    for batch in online.batches:
        schedule = batch.execution.schedule
        report.batch_results.append(schedule)
        # Legacy latency: a sequence's span inside its own batch pipeline
        # (first stage entry to last stage exit), excluding the wait behind
        # earlier batches.
        for index in range(len(batch.request_ids)):
            latency_cycles = schedule.timeline.sequence_latency(index)
            report.sequence_latencies_seconds.append(latency_cycles / accelerator.clock_hz)
    return report
