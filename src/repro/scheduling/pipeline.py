"""Event-driven coarse-grained pipeline simulator.

The simulator takes an :class:`~repro.hardware.accelerator.Accelerator`
(which knows the latency of each coarse stage as a function of sequence
length) and a list of :class:`PipelineJob` items -- one per (sequence,
encoder layer) -- and produces the execution :class:`Timeline`.

Constraints modeled, matching Section 4.2 and Fig. 2/5 of the paper:

* **stage exclusivity** -- a stage processes one job at a time (FIFO order);
* **data dependency** -- a job enters stage ``s`` only after it left stage
  ``s-1``;
* **layer dependency** -- layer ``l`` of a sequence starts only after layer
  ``l-1`` of the same sequence has left the last stage;
* **double-buffer backpressure** -- stage ``s`` may run at most
  ``buffer_slots`` jobs ahead of stage ``s+1`` (the inter-stage ping-pong
  buffers of Fig. 2(a));
* optional **barriers** (used by the micro-batch baseline) and a
  **non-pipelined** mode (used to measure the "saved" latency of Fig. 5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from ..hardware.accelerator import Accelerator
from .fast_pipeline import FastSchedule, simulate_fast, simulate_fast_layered
from .timeline import Timeline, TimelineEvent

__all__ = [
    "LazyTimeline",
    "PipelineJob",
    "ScheduleResult",
    "pipeline_engine",
    "simulate_coarse_pipeline",
    "simulate_coarse_pipeline_reference",
    "simulate_layered",
]

#: Environment switch selecting the simulation engine: ``fast`` (default,
#: the event-free solvers of :mod:`repro.scheduling.fast_pipeline`) or
#: ``reference`` (the event-building oracle, useful to debug or cross-check
#: the fast engine).
_ENGINE_ENV = "REPRO_PIPELINE_ENGINE"


def pipeline_engine() -> str:
    """The active simulation engine (``fast`` or ``reference``)."""
    engine = os.environ.get(_ENGINE_ENV, "fast").strip().lower()
    if engine not in ("fast", "reference"):
        raise ValueError(
            f"{_ENGINE_ENV} must be 'fast' or 'reference', got {engine!r}"
        )
    return engine


def _checked_engine(engine: str | None, buffer_slots: int | None) -> str:
    """Resolve ``engine`` and validate ``buffer_slots``: the entry both engines share.

    ``buffer_slots`` is ``None`` (no backpressure) or an int >= 1; below one
    slot the reference would read completions not yet simulated.
    """
    if buffer_slots is not None and (not isinstance(buffer_slots, int) or buffer_slots < 1):
        raise ValueError(f"buffer_slots must be None or an int >= 1, got {buffer_slots!r}")
    if engine is None:
        return pipeline_engine()
    if engine not in ("fast", "reference"):
        raise ValueError(f"engine must be 'fast' or 'reference', got {engine!r}")
    return engine


@dataclass(frozen=True)
class PipelineJob:
    """One unit of pipeline work: a sequence's pass through one encoder layer."""

    sequence_id: int
    layer: int
    actual_length: int
    billed_length: int

    def __post_init__(self) -> None:
        if self.actual_length < 1:
            raise ValueError("actual_length must be >= 1")
        if self.billed_length < self.actual_length:
            raise ValueError("billed_length cannot be smaller than the actual length")


class LazyTimeline(Timeline):
    """A timeline whose per-event list materializes only on demand.

    The fast engine produces a :class:`FastSchedule` summary; the hot
    aggregate queries (makespan, utilization, bubbles) answer from it in
    O(stages), and the full event list is rebuilt by the reference simulator
    only if someone actually iterates events (Fig. 5 rendering, tests).
    Materialized events stay attached to the instance (and, for schedules
    held by the shared schedule cache, live as long as the cache entry);
    long-lived processes that render many cached schedules can call
    :meth:`release_events` to drop them -- the next access re-materializes.
    """

    def __init__(self, fast: FastSchedule, materialize: Callable[[], Timeline]) -> None:
        # Deliberately skip Timeline.__init__: `_events` is a property here.
        self.fast_schedule = fast
        self._materialize = materialize
        self._cache: list[TimelineEvent] | None = None

    @property
    def _events(self) -> list[TimelineEvent]:
        if self._cache is None:
            self._cache = self._materialize()._events
        return self._cache

    def release_events(self) -> None:
        """Drop the materialized event list (it rebuilds on next access)."""
        self._cache = None

    def __len__(self) -> int:
        return self.fast_schedule.num_jobs * self.fast_schedule.num_stages

    @property
    def makespan(self) -> int:
        return self.fast_schedule.makespan

    def average_utilization(self) -> float:
        return self.fast_schedule.average_utilization()

    def total_bubble_cycles(self) -> int:
        return self.fast_schedule.total_bubble_cycles()


@dataclass
class ScheduleResult:
    """Outcome of scheduling a batch on an accelerator."""

    scheduler: str
    accelerator_name: str
    timeline: Timeline
    lengths: list[int]
    billed_lengths: list[int]
    num_layers: int
    clock_hz: float

    @property
    def makespan_cycles(self) -> int:
        """Batch latency in cycles."""
        return self.timeline.makespan

    @property
    def makespan_seconds(self) -> float:
        """Batch latency in seconds at the design clock."""
        return self.makespan_cycles / self.clock_hz

    @property
    def throughput_sequences_per_second(self) -> float:
        """Completed sequences per second."""
        if self.makespan_seconds == 0:
            return 0.0
        return len(self.lengths) / self.makespan_seconds

    @property
    def average_utilization(self) -> float:
        """Mean per-stage utilization over the batch."""
        return self.timeline.average_utilization()

    @property
    def total_bubble_cycles(self) -> int:
        """Idle cycles accumulated inside the stages' active spans."""
        return self.timeline.total_bubble_cycles()

    def speedup_over(self, other: "ScheduleResult") -> float:
        """Throughput ratio of this schedule over ``other`` (same workload)."""
        if self.makespan_cycles == 0:
            return float("inf")
        return other.makespan_cycles / self.makespan_cycles

    # ------------------------------------------------------------------
    # Hot-path accessors (answered from the FastSchedule summary when the
    # schedule was simulated by the fast engine; otherwise derived from the
    # event list).
    # ------------------------------------------------------------------

    @property
    def _fast_schedule(self) -> FastSchedule | None:
        return getattr(self.timeline, "fast_schedule", None)

    def sequence_completion_cycles(self) -> dict[int, int]:
        """Cycle at which each sequence's last job leaves the last stage."""
        fast = self._fast_schedule
        if fast is not None:
            return dict(fast.sequence_completion)
        completion: dict[int, int] = {}
        for event in self.timeline.events:
            if event.end > completion.get(event.sequence_id, 0):
                completion[event.sequence_id] = event.end
        return completion

    def entry_admit_cycles(self) -> int:
        """Latest cycle at which any job leaves the *entry* stage.

        This is the instant the pipeline's first stage is free again -- the
        admission gate device-level continuous batching opens on.
        """
        fast = self._fast_schedule
        if fast is not None:
            return fast.entry_admit_cycles
        events = self.timeline.events
        if not events:
            return 0
        # Replicated entry stages are labeled "<name>[replica]".
        first = events[0].stage.split("[", 1)[0]
        return max(
            (e.end for e in events if e.stage == first or e.stage.startswith(first + "[")),
            default=0,
        )


def simulate_coarse_pipeline(
    accelerator: Accelerator,
    jobs: list[PipelineJob],
    pipelined: bool = True,
    buffer_slots: int | None = 2,
    barriers: set[int] | None = None,
    engine: str | None = None,
) -> Timeline:
    """Simulate the coarse-grained pipeline over ``jobs`` in the given order.

    Parameters
    ----------
    accelerator:
        Provides the per-stage latency for each job's billed length.
    jobs:
        Ordered work list; the order is the issue order (the length-aware
        scheduler sorts by decreasing length before building it).
    pipelined:
        ``False`` serializes jobs completely (used to measure the baseline of
        Fig. 5's "saved" annotation).
    buffer_slots:
        Capacity of the inter-stage double buffers (an int >= 1); ``None``
        removes the backpressure constraint.
    barriers:
        Job indices that must wait for every earlier job to fully drain
        before starting (micro-batch boundaries).
    engine:
        ``"fast"`` answers through the event-free recurrence
        (:mod:`repro.scheduling.fast_pipeline`) and returns a
        :class:`LazyTimeline` whose events materialize on demand;
        ``"reference"`` forces the event-building oracle.  ``None``
        (default) reads ``REPRO_PIPELINE_ENGINE`` (default ``fast``).  Both
        engines produce cycle-for-cycle identical schedules for every
        parameter combination.
    """
    engine = _checked_engine(engine, buffer_slots)
    if not jobs:
        return Timeline()

    def reference() -> Timeline:
        return simulate_coarse_pipeline_reference(
            accelerator, jobs, pipelined=pipelined, buffer_slots=buffer_slots, barriers=barriers
        )

    if engine != "fast":
        return reference()
    fast = simulate_fast(
        accelerator,
        [job.billed_length for job in jobs],
        [job.sequence_id for job in jobs],
        pipelined=pipelined,
        buffer_slots=buffer_slots,
        barriers=barriers,
    )
    return LazyTimeline(fast, reference)


def simulate_layered(
    accelerator: Accelerator,
    slot_billed: Sequence[int],
    slot_sequences: Sequence[int],
    num_layers: int,
    jobs_factory: Callable[[], "list[PipelineJob]"],
    pipelined: bool = True,
    buffer_slots: int | None = None,
    engine: str | None = None,
) -> Timeline:
    """Simulate a layer-ordered workload without materializing the job list.

    ``slot_billed[i]`` / ``slot_sequences[i]`` describe slot ``i`` of one
    layer's issue order; the same pattern repeats for every encoder layer.
    On the fast engine ``jobs_factory`` is only invoked if the lazy
    timeline's events are actually materialized; otherwise the factory's
    job list feeds the reference simulator.
    """
    engine = _checked_engine(engine, buffer_slots)
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")

    def reference() -> Timeline:
        return simulate_coarse_pipeline_reference(
            accelerator, jobs_factory(), pipelined=pipelined, buffer_slots=buffer_slots
        )

    if engine != "fast":
        return reference()
    fast = simulate_fast_layered(
        accelerator,
        slot_billed,
        slot_sequences,
        num_layers,
        pipelined=pipelined,
        buffer_slots=buffer_slots,
    )
    return LazyTimeline(fast, reference)


def simulate_coarse_pipeline_reference(
    accelerator: Accelerator,
    jobs: list[PipelineJob],
    pipelined: bool = True,
    buffer_slots: int | None = 2,
    barriers: set[int] | None = None,
) -> Timeline:
    """The reference oracle (one event appended per job x stage).

    Kept verbatim as the ground truth the fast engine is verified against;
    see ``tests/scheduling/test_fast_pipeline.py``.
    """
    timeline = Timeline()
    if not jobs:
        return timeline

    stage_names = [stage.name for stage in accelerator.stages]
    replication = [max(getattr(stage, "replication", 1), 1) for stage in accelerator.stages]
    num_stages = len(stage_names)
    barriers = barriers or set()

    # Cache stage latencies per billed length (many jobs share a length).
    latency_cache: dict[int, list[int]] = {}

    def latencies(billed: int) -> list[int]:
        if billed not in latency_cache:
            latency_cache[billed] = accelerator.stage_latencies(billed)
        return latency_cache[billed]

    # completion[j][s] = cycle at which job j leaves stage s
    completion: list[list[int]] = [[0] * num_stages for _ in jobs]
    # Last job index (per sequence) seen so far, to wire the layer dependency.
    last_job_of_sequence: dict[int, int] = {}

    for j, job in enumerate(jobs):
        stage_latencies = latencies(job.billed_length)
        prev_layer_done = 0
        if job.sequence_id in last_job_of_sequence:
            prev_index = last_job_of_sequence[job.sequence_id]
            prev_layer_done = completion[prev_index][num_stages - 1]

        barrier_done = 0
        if j in barriers:
            barrier_done = max(
                (completion[i][num_stages - 1] for i in range(j)), default=0
            )

        for s in range(num_stages):
            ready = completion[j][s - 1] if s > 0 else max(prev_layer_done, barrier_done)
            # A stage with R replicated instances serves R jobs concurrently
            # (Algorithm 1's pipeline replication factor R(G_k, s)); job j
            # therefore waits for the job R positions earlier, which ran on
            # the same replica.
            stage_replicas = replication[s]
            stage_free = completion[j - stage_replicas][s] if j >= stage_replicas else 0
            if not pipelined and s == 0 and j > 0:
                stage_free = max(stage_free, completion[j - 1][num_stages - 1])
            start = max(ready, stage_free)
            if buffer_slots is not None and s + 1 < num_stages and j - buffer_slots >= 0:
                # The output buffer of stage s has buffer_slots slots; we may
                # only start once the job (j - buffer_slots) has freed one by
                # entering stage s+1 (i.e. finished there or at least started;
                # we use its completion at s+1 as the conservative condition).
                start = max(start, completion[j - buffer_slots][s + 1])
            end = start + stage_latencies[s]
            completion[j][s] = end
            stage_label = stage_names[s]
            if stage_replicas > 1:
                stage_label = f"{stage_label}[{j % stage_replicas}]"
            timeline.add(
                TimelineEvent(
                    sequence_id=job.sequence_id,
                    layer=job.layer,
                    stage=stage_label,
                    start=start,
                    end=end,
                    length=job.billed_length,
                )
            )
        last_job_of_sequence[job.sequence_id] = j

    return timeline
