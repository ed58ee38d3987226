"""Process-wide schedule cache shared by every cycle-accurate device.

A fleet of identical FPGA designs (``build_fleet(..., replicas=8)``) used to
pay for the same coarse-pipeline simulation once *per device*: each
:class:`~repro.devices.adapters.CycleAccurateDevice` kept a private
``OrderedDict`` keyed by the exact, order-sensitive length tuple.  This
module replaces that with one process-wide LRU shared by all devices:

* **Provably exact sharing** -- entries are keyed by everything the
  simulator can observe: the canonicalized batch tuple, the per-unique-length
  stage-latency rows, the stage structure (names / replication /
  intra-pipelining), the layer count, the clock, and the scheduler's
  configuration.  Two devices produce the same key only when their schedules
  are cycle-for-cycle identical, so replicas (and identical designs built
  independently) share hits without any approximation.
* **Canonicalized length tuples** -- the batch schedulers sort the batch
  anyway, so batches that are permutations of each other share one entry;
  per-request completion offsets are reconstructed through the scheduler's
  own issue order.
* **Optional length quantization** -- ``cache_length_bucket=Q`` rounds every
  length up to the next multiple of ``Q`` before scheduling, trading a
  slightly conservative (never optimistic) latency for a much smaller key
  space and hit rates above 90% on Poisson traffic.  Default off (exact).
* **Twin runs asked once** -- when EDF or routing asks a run of replicas
  about one batch, the fleet cost oracle (:mod:`~repro.devices.fleet`) looks
  it up on the first only and counts the rest as hits
  (:meth:`ScheduleCache.count_hits`): their keys are already the most
  recent, so the counters and the LRU order end as full lookups leave them.
* **An opt-in lookup journal** -- ``with cache.journal() as keys:`` records
  every key the cache is asked for while it is open, in the order the LRU
  sees them (a counted twin run's keys once per twin).  The sweep harness
  opens one around each run and replays the keys to report hit rates that do
  not depend on how many worker processes ran the grid; a closed journal
  costs each lookup one ``None`` test.

The cache lives in memory for the life of the process; nothing is written
to disk.  Its only switch is ``REPRO_SCHEDULE_CACHE=on|off``: ``off``
disables lookups entirely (every batch is re-simulated), which is the knob
the cache-correctness tests and debugging sessions use.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Hashable, Iterator

__all__ = [
    "GLOBAL_SCHEDULE_CACHE",
    "ScheduleCache",
    "check_length_bucket",
    "quantize_lengths",
    "schedule_cache_enabled",
]

#: Retained canonical schedules across the whole process.  Entries are small
#: (latency, admission time, utilization and per-slot offsets), so this
#: comfortably covers multi-dataset sweeps over heterogeneous fleets.
DEFAULT_MAX_ENTRIES = 4096

_CACHE_ENV = "REPRO_SCHEDULE_CACHE"
_OFF_WORDS = frozenset({"off", "0", "false", "no", "disabled"})


def schedule_cache_enabled() -> bool:
    """Whether the shared cache is active (``REPRO_SCHEDULE_CACHE=off`` kills it)."""
    return os.environ.get(_CACHE_ENV, "on").strip().lower() not in _OFF_WORDS


def check_length_bucket(bucket: int | None) -> None:
    """The one check of a schedule-cache length bucket (``None`` = exact billing)."""
    if bucket is not None and bucket < 1:
        raise ValueError(f"cache_length_bucket must be >= 1 (or none for exact), got {bucket!r}")


def quantize_lengths(lengths: tuple[int, ...], bucket: int) -> tuple[int, ...]:
    """Round every length *up* to the next multiple of ``bucket``.

    Rounding up (never down) keeps the cached schedule conservative: a
    quantized batch is billed at least as long as the real one.
    """
    if bucket < 1:
        check_length_bucket(bucket)
    if bucket == 1:
        return lengths
    return tuple([-(-length // bucket) * bucket for length in lengths])


class ScheduleCache:
    """A thread-safe LRU mapping schedule keys to canonical batch executions."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.num_evictions = 0
        #: Keys looked up while a :meth:`journal` is open (``None``: closed).
        self._journal: list | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Any | None:
        """Return the cached entry (and count a hit) or ``None`` (a miss)."""
        with self._lock:
            if self._journal is not None:
                self._journal.append(key)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def count_hits(self, keys: list, repeats: int) -> None:
        """Count ``repeats`` runs of hits on ``keys``, the most recent keys, in order.

        That is what ``repeats`` more passes of lookups over ``keys`` would
        count, and they would move nothing in the LRU.
        """
        with self._lock:
            self.hits += len(keys) * repeats
            if self._journal is not None:
                self._journal.extend(keys * repeats)

    @contextmanager
    def journal(self) -> Iterator[list]:
        """Record every key looked up (or counted as a hit) while open.

        Yields the list the keys are appended to, in the order the LRU sees
        them.  One journal at a time.
        """
        keys: list = []
        with self._lock:
            if self._journal is not None:
                raise RuntimeError("a schedule-cache journal is already open")
            self._journal = keys
        try:
            yield keys
        finally:
            with self._lock:
                self._journal = None

    def store(self, key: Hashable, value: Any) -> None:
        """Insert an entry, evicting least-recently-used ones past the cap."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.num_evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.num_evictions = 0

    @property
    def hit_rate(self) -> float:
        with self._lock:
            return self._hit_rate()

    def _hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready counters (process lifetime, across all devices).

        Read in one lock hold, so a concurrent lookup cannot tear them.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self._hit_rate(),
                "num_evictions": self.num_evictions,
            }


#: The process-wide cache every :class:`CycleAccurateDevice` shares by default.
GLOBAL_SCHEDULE_CACHE = ScheduleCache()
