"""The fleet cost oracle: EDF estimates and routing scores, twins asked once.

*Twins* are cycle-accurate devices on the same ``Accelerator`` object (the
catalog shares one per operating point) with equal scheduler keys, length
buckets and batch limits and one schedule cache.  For each run of twins
adjacent in query order the batch is looked up on the first device only:
the others would hit the most recent keys in the same order, which moves
nothing in the LRU, so their hits are counted as integers.
"""

from __future__ import annotations

from operator import is_
from typing import Sequence

from .adapters import CycleAccurateDevice

__all__ = ["FleetCostOracle"]


def _twin_key(device) -> tuple | None:
    """What a device shares with its twins (``None``: it is asked alone)."""
    if type(device) is not CycleAccurateDevice:
        return None
    limits = (device.max_batch_size, device.max_batch_tokens)
    design = (id(device.accelerator), device._scheduler_key, device.cache_length_bucket)
    return design, limits, id(device._schedule_cache)


def _chunks(device, lengths: list[int], split: bool) -> list[list[int]]:
    """The batches ``device`` runs ``lengths`` as (limit-sized with ``split``)."""
    prefix = getattr(device, "admissible_prefix", None)
    if not split or prefix is None:
        return [lengths]
    chunks = []
    while lengths:
        take = prefix(lengths)
        chunks.append(lengths[:take])
        lengths = lengths[take:]
    return chunks


class FleetCostOracle:
    """Batch service estimates over a fleet, each run of twins asked once."""

    def __init__(self) -> None:
        self._fleet: list = []
        self._twins: list[int | None] = []

    def _twins_of(self, fleet: Sequence) -> list[int | None]:
        """Per device, the index of its first twin (``None``: none).

        Proven once per fleet; holding the devices keeps their ids unrecycled.
        """
        if len(fleet) != len(self._fleet) or not all(map(is_, fleet, self._fleet)):
            first: dict[tuple, int] = {}
            self._fleet = list(fleet)
            self._twins = [
                None if key is None else first.setdefault(key, index)
                for index, key in enumerate(map(_twin_key, self._fleet))
            ]
        return self._twins

    def service_seconds(
        self,
        fleet: Sequence,
        lengths: list[int],
        indices: Sequence[int] | None = None,
        split: bool = False,
    ) -> list[float]:
        """Service seconds of ``lengths`` on each device of ``indices``.

        ``indices`` defaults to the whole fleet in order; ``split`` sums the
        limit-sized chunks dispatch would run; a legacy float entry costs 0.
        Results and all cache accounting equal asking each device in turn.
        """
        twins = self._twins_of(fleet)
        order = range(len(fleet)) if indices is None else indices
        seconds: list[float] = []
        position, end = 0, len(order)
        while position < end:
            index = order[position]
            device, twin = fleet[index], twins[index]
            chunks = _chunks(device, lengths, split)
            stop = position + 1
            if twin is None:
                estimator = getattr(device, "batch_latency_seconds", None)
                latencies = [estimator(chunk) for chunk in chunks] if estimator else []
            else:
                # Only hits on a live cache can be counted for twins, and more
                # chunks than the cache holds could evict each other's keys.
                if device._cache_active and len(chunks) <= device._schedule_cache.max_entries:
                    while stop < end and twins[order[stop]] == twin:
                        stop += 1
                looked_up = [device._canonical_entry(chunk) for chunk in chunks]
                latencies = [item[4].latency_seconds for item in looked_up]
                if stop > position + 1:
                    twins_run = [fleet[i] for i in order[position + 1 : stop]]
                    device._count_twin_hits(twins_run, [item[3] for item in looked_up])
            total = 0.0
            for latency in latencies:
                total += latency
            seconds.extend([total] * (stop - position))
            position = stop
        return seconds
