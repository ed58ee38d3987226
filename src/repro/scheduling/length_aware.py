"""Length-aware coarse-grained dynamic pipeline scheduling (Section 4.2).

The proposed scheduler sorts the batch by decreasing sequence length, bills
every stage at the sequence's *actual* length (no padding), and issues the
(sequence, layer) jobs through the coarse pipeline back to back.  Because
every operator of the proposed design is O(n) in the sequence length, the
sorted order lets consecutive jobs' stage times shrink monotonically, so the
downstream stages never starve and the pipeline runs without bubbles -- the
behaviour Fig. 5 illustrates and the utilization numbers of Section 4.2
claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.accelerator import Accelerator
from .pipeline import PipelineJob, ScheduleResult, simulate_layered

__all__ = [
    "LengthAwareScheduler",
    "batch_lengths",
    "build_layer_ordered_jobs",
    "sort_batch_by_length",
]


def batch_lengths(lengths: list[int] | np.ndarray) -> list[int]:
    """A batch's lengths as Python ints; every scheduler checks its batch here.

    Raises ``ValueError`` for an empty batch or a length below 1.
    """
    lengths = [int(x) for x in lengths]
    if not lengths:
        raise ValueError("cannot schedule an empty batch")
    if min(lengths) < 1:
        raise ValueError("sequence lengths must be >= 1")
    return lengths


def sort_batch_by_length(lengths: list[int] | np.ndarray, descending: bool = True) -> list[int]:
    """Return the batch order (indices) sorted by sequence length.

    The paper feeds sequences in decreasing order of length; ties keep their
    original order so results are deterministic.
    """
    # Python's sort is stable under ``reverse=True`` too: ties stay ascending.
    return sorted(range(len(lengths)), key=lengths.__getitem__, reverse=descending)


def build_layer_ordered_jobs(
    lengths: list[int],
    order: list[int],
    num_layers: int,
    billed_lengths: list[int] | None = None,
) -> list[PipelineJob]:
    """Build the job list in the paper's issue order.

    The batch is processed layer by layer ("the batch input is processed by
    the layer order"): every sequence passes through encoder layer 1, then the
    batch re-enters the pipeline for layer 2, and so on.  Within a layer the
    sequences follow ``order``.
    """
    billed = billed_lengths or lengths
    jobs: list[PipelineJob] = []
    for layer in range(num_layers):
        for idx in order:
            jobs.append(
                PipelineJob(
                    sequence_id=idx,
                    layer=layer,
                    actual_length=lengths[idx],
                    billed_length=billed[idx],
                )
            )
    return jobs


@dataclass
class LengthAwareScheduler:
    """The proposed scheduler: sorted batch, actual lengths, full pipelining.

    Attributes
    ----------
    buffer_slots:
        Depth of the inter-stage buffers.  ``None`` (default) models the
        paper's HBM-backed inter-stage buffering ("the Top-k results are
        stored back to HBM for inter-stage buffering"), which is deep enough
        never to throttle a stage; an integer (e.g. 2) instead models on-chip
        ping-pong buffers and is useful as an ablation.
    sort_descending:
        Sort order of the batch; the paper uses decreasing length.
    """

    buffer_slots: int | None = None
    sort_descending: bool = True
    name: str = "length-aware"

    @property
    def cache_canonicalization(self) -> str:
        """Batch canonicalization the shared schedule cache may apply.

        The scheduler re-sorts the batch anyway, so permutations of one
        length multiset produce identical schedules (slot-for-slot) and may
        share one cache entry.
        """
        return "sort-desc" if self.sort_descending else "sort-asc"

    def schedule(self, accelerator: Accelerator, lengths: list[int]) -> ScheduleResult:
        """Schedule a batch of sequences with the given actual lengths."""
        lengths = batch_lengths(lengths)
        order = sort_batch_by_length(lengths, descending=self.sort_descending)
        num_layers = accelerator.model_config.num_layers
        timeline = simulate_layered(
            accelerator,
            [lengths[i] for i in order],
            order,
            num_layers,
            lambda: build_layer_ordered_jobs(lengths, order, num_layers),
            pipelined=True,
            buffer_slots=self.buffer_slots,
        )
        return ScheduleResult(
            scheduler=self.name,
            accelerator_name=accelerator.name,
            timeline=timeline,
            lengths=lengths,
            billed_lengths=lengths,
            num_layers=num_layers,
            clock_hz=accelerator.clock_hz,
        )
