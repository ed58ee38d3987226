"""Baseline sequence-length standardization schedulers (Section 2 / Fig. 7).

Three baselines bracket the proposed length-aware scheduler:

* :class:`PaddedScheduler` -- TensorRT-style padding: every sequence in the
  batch is billed at the batch's maximum length (or a fixed dataset maximum),
  which is what the CPU / GPU baselines and the "FPGA baseline" of Fig. 7 do.
* :class:`MicroBatchScheduler` -- TurboTransformers-style micro-batching: the
  sorted batch is split into micro-batches, padding only up to the
  micro-batch maximum, but with a synchronization barrier between
  micro-batches that re-introduces pipeline bubbles on the FPGA.
* :class:`SequentialScheduler` -- no coarse-grained pipelining at all: a
  sequence's three stages finish before the next sequence starts.  The gap
  between this schedule and the length-aware one is the "saved" latency
  annotated in Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.accelerator import Accelerator
from .length_aware import batch_lengths, build_layer_ordered_jobs, sort_batch_by_length
from .pipeline import ScheduleResult, simulate_coarse_pipeline, simulate_layered

__all__ = ["PaddedScheduler", "MicroBatchScheduler", "SequentialScheduler"]


@dataclass
class PaddedScheduler:
    """Pad every sequence to the batch maximum (or a fixed target length)."""

    pad_to: int | None = None
    pipelined: bool = True
    buffer_slots: int | None = None
    name: str = "padded"

    #: Every slot is billed at the same padded length, so per-slot schedules
    #: are independent of which request sits where: the shared schedule cache
    #: may canonicalize the batch and map offsets back by position.
    cache_canonicalization = "uniform"

    def schedule(self, accelerator: Accelerator, lengths: list[int]) -> ScheduleResult:
        """Schedule the batch with every sequence billed at the padded length."""
        lengths = batch_lengths(lengths)
        pad_target = self.pad_to if self.pad_to is not None else max(lengths)
        if pad_target < max(lengths):
            raise ValueError("pad_to is smaller than the longest sequence in the batch")
        billed = [pad_target] * len(lengths)
        order = list(range(len(lengths)))  # padding makes the order irrelevant
        num_layers = accelerator.model_config.num_layers
        timeline = simulate_layered(
            accelerator,
            billed,
            order,
            num_layers,
            lambda: build_layer_ordered_jobs(lengths, order, num_layers, billed_lengths=billed),
            pipelined=self.pipelined,
            buffer_slots=self.buffer_slots,
        )
        return ScheduleResult(
            scheduler=self.name,
            accelerator_name=accelerator.name,
            timeline=timeline,
            lengths=lengths,
            billed_lengths=billed,
            num_layers=num_layers,
            clock_hz=accelerator.clock_hz,
        )


@dataclass
class MicroBatchScheduler:
    """Split the sorted batch into micro-batches, padding within each.

    A barrier separates consecutive micro-batches (the GPU serving system
    launches them as separate kernels), which drains the coarse pipeline and
    creates the inter-micro-batch bubbles the paper criticizes.
    """

    micro_batch_size: int = 4
    buffer_slots: int | None = None
    name: str = "micro-batch"

    #: Micro-batch grouping, billing, and barriers all derive from the
    #: descending-sorted batch, so the cache may canonicalize by that order.
    cache_canonicalization = "sort-desc"

    def __post_init__(self) -> None:
        if self.micro_batch_size < 1:
            raise ValueError("micro_batch_size must be >= 1")

    def schedule(self, accelerator: Accelerator, lengths: list[int]) -> ScheduleResult:
        """Schedule the batch as padded micro-batches with barriers between them."""
        lengths = batch_lengths(lengths)
        order = sort_batch_by_length(lengths, descending=True)
        num_layers = accelerator.model_config.num_layers

        # Pad each sequence to the maximum of its micro-batch.
        billed = list(lengths)
        micro_batch_of: dict[int, int] = {}
        for start in range(0, len(order), self.micro_batch_size):
            group = order[start : start + self.micro_batch_size]
            group_max = max(lengths[i] for i in group)
            for i in group:
                billed[i] = group_max
                micro_batch_of[i] = start // self.micro_batch_size

        jobs = build_layer_ordered_jobs(lengths, order, num_layers, billed_lengths=billed)
        # A job sitting at a micro-batch boundary must wait for the pipeline to drain.
        barriers = {
            j
            for j, job in enumerate(jobs)
            if j > 0 and micro_batch_of[job.sequence_id] != micro_batch_of[jobs[j - 1].sequence_id]
        }
        timeline = simulate_coarse_pipeline(
            accelerator, jobs, pipelined=True, buffer_slots=self.buffer_slots, barriers=barriers
        )
        return ScheduleResult(
            scheduler=self.name,
            accelerator_name=accelerator.name,
            timeline=timeline,
            lengths=lengths,
            billed_lengths=billed,
            num_layers=num_layers,
            clock_hz=accelerator.clock_hz,
        )


@dataclass
class SequentialScheduler:
    """No coarse-grained pipelining: one sequence-layer finishes before the next starts."""

    padded: bool = False
    name: str = "sequential"

    #: Issues the descending-sorted batch back to back; see MicroBatchScheduler.
    cache_canonicalization = "sort-desc"

    def schedule(self, accelerator: Accelerator, lengths: list[int]) -> ScheduleResult:
        """Schedule the batch with stages running strictly back to back."""
        lengths = batch_lengths(lengths)
        billed = [max(lengths)] * len(lengths) if self.padded else list(lengths)
        order = sort_batch_by_length(lengths, descending=True)
        num_layers = accelerator.model_config.num_layers
        timeline = simulate_layered(
            accelerator,
            [billed[i] for i in order],
            order,
            num_layers,
            lambda: build_layer_ordered_jobs(lengths, order, num_layers, billed_lengths=billed),
            pipelined=False,
            buffer_slots=None,
        )
        return ScheduleResult(
            scheduler=self.name + ("-padded" if self.padded else ""),
            accelerator_name=accelerator.name,
            timeline=timeline,
            lengths=lengths,
            billed_lengths=billed,
            num_layers=num_layers,
            clock_hz=accelerator.clock_hz,
        )
