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
* **Replayed probes** -- the cache remembers the query that last made an
  entry the most recent (:attr:`ScheduleCache.last_query`); a device that
  can prove its query has the same key counts a hit on it through
  :meth:`ScheduleCache.replay` instead of hashing the key again.  The
  counters and the LRU order come out as a full lookup leaves them.

``REPRO_SCHEDULE_CACHE=off`` disables lookups entirely (every batch is
re-simulated), which is the knob the cache-correctness tests and debugging
sessions use.

**Disk persistence (opt-in).**  ``REPRO_SCHEDULE_CACHE_DIR=<dir>`` makes the
cache survive the process: on first use each process loads every snapshot in
the directory into the shared cache, and at interpreter exit it writes its
own entries to a per-pid snapshot file (atomic rename, so concurrent
processes -- e.g. ``--jobs`` sweep workers or planner candidate evaluations
-- never clobber each other).  Cached entries drop their in-memory
:class:`~repro.scheduling.pipeline.ScheduleResult` when snapshotted (its
lazily-materialized timelines are closures and do not pickle), so a
disk-warmed hit serves exact latencies/offsets but no schedule object --
the same contract parallel sweep workers already have.
"""

from __future__ import annotations

import atexit
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple

__all__ = [
    "GLOBAL_SCHEDULE_CACHE",
    "CacheQuery",
    "ScheduleCache",
    "ensure_persistent_cache_loaded",
    "persist_schedule_cache",
    "persistent_cache_dir",
    "quantize_lengths",
    "schedule_cache_enabled",
]

#: Retained canonical schedules across the whole process.  Entries are small
#: (one ScheduleResult summary plus per-slot offsets), so this comfortably
#: covers multi-dataset sweeps over heterogeneous fleets.
DEFAULT_MAX_ENTRIES = 4096

_CACHE_ENV = "REPRO_SCHEDULE_CACHE"
_CACHE_DIR_ENV = "REPRO_SCHEDULE_CACHE_DIR"
_OFF_WORDS = frozenset({"off", "0", "false", "no", "disabled"})

#: Snapshot files are per-pid so concurrent writers never race; loaders merge
#: every file matching this prefix.
_SNAPSHOT_PREFIX = "schedule-cache-"
_SNAPSHOT_SUFFIX = ".pkl"


def schedule_cache_enabled() -> bool:
    """Whether the shared cache is active (``REPRO_SCHEDULE_CACHE=off`` kills it)."""
    return os.environ.get(_CACHE_ENV, "on").strip().lower() not in _OFF_WORDS


def persistent_cache_dir() -> str | None:
    """The opt-in on-disk cache directory, or ``None`` when persistence is off.

    Reads ``REPRO_SCHEDULE_CACHE_DIR``; the in-memory kill switch
    (``REPRO_SCHEDULE_CACHE=off``) also disables persistence, since there is
    nothing to snapshot when lookups are bypassed.
    """
    if not schedule_cache_enabled():
        return None
    value = os.environ.get(_CACHE_DIR_ENV, "").strip()
    return value or None


def quantize_lengths(lengths: tuple[int, ...], bucket: int) -> tuple[int, ...]:
    """Round every length *up* to the next multiple of ``bucket``.

    Rounding up (never down) keeps the cached schedule conservative: a
    quantized batch is billed at least as long as the real one.
    """
    if bucket < 1:
        raise ValueError("cache_length_bucket must be >= 1")
    if bucket == 1:
        return lengths
    return tuple([-(-length // bucket) * bucket for length in lengths])


class CacheQuery(NamedTuple):
    """The lookup hit or store that last made an entry the most recent one.

    ``context`` is the caller's description of the query (opaque to the
    cache); a caller that can prove its next query has the same ``key`` may
    :meth:`ScheduleCache.replay` it instead of looking the key up again.
    """

    context: Any
    key: Hashable
    entry: Any


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
        #: Immutable record of whatever made the most recent entry most
        #: recent (``None`` once that is unknown); read without the lock.
        self.last_query: CacheQuery | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable, context: Any = None) -> Any | None:
        """Return the cached entry (and count a hit) or ``None`` (a miss).

        A hit with a ``context`` becomes :attr:`last_query`; a miss leaves
        the LRU order, and so the record, as it was.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self.last_query = None if context is None else CacheQuery(context, key, entry)
            return entry

    def replay(self, query: CacheQuery) -> bool:
        """Count a hit on ``query``'s entry if it is still :attr:`last_query`.

        The entry is then already the most recent, so a full lookup of its
        key would count one hit and leave the LRU order as it is; this does
        exactly that without hashing or comparing the key.  ``False`` (and
        nothing counted) when another lookup or store got there first.
        """
        with self._lock:
            if self.last_query is not query:
                return False
            self.hits += 1
            return True

    def store(self, key: Hashable, value: Any, context: Any = None) -> None:
        """Insert an entry, evicting least-recently-used ones past the cap."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.num_evictions += 1
            self.last_query = None if context is None else CacheQuery(context, key, value)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.num_evictions = 0
            self.last_query = None

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

    def save_dir(self, directory: str) -> int:
        """Snapshot every entry into a per-pid pickle under ``directory``.

        Writes to a temp file in the same directory and atomically renames
        it over the snapshot, so a concurrent loader never sees a torn file.
        Returns the number of entries written (0 skips the write).
        """
        with self._lock:
            entries = list(self._entries.items())
        if not entries:
            return 0
        os.makedirs(directory, exist_ok=True)
        final = os.path.join(
            directory, f"{_SNAPSHOT_PREFIX}{os.getpid()}{_SNAPSHOT_SUFFIX}"
        )
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entries, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(entries)

    def load_dir(self, directory: str) -> int:
        """Merge every snapshot under ``directory`` into this cache.

        Unreadable or truncated snapshots (e.g. from a killed worker) are
        skipped rather than fatal; loading counts neither hits nor misses.
        Returns the number of entries merged.
        """
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return 0
        loaded = 0
        for filename in names:
            if not (
                filename.startswith(_SNAPSHOT_PREFIX)
                and filename.endswith(_SNAPSHOT_SUFFIX)
            ):
                continue
            path = os.path.join(directory, filename)
            try:
                with open(path, "rb") as handle:
                    entries = pickle.load(handle)
            except Exception:
                continue
            if not isinstance(entries, list):
                continue
            with self._lock:
                # Merged entries become the most recent ones.
                self.last_query = None
                for key, value in entries:
                    if key in self._entries:
                        continue
                    self._entries[key] = value
                    loaded += 1
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.num_evictions += 1
        return loaded


#: The process-wide cache every :class:`CycleAccurateDevice` shares by default.
GLOBAL_SCHEDULE_CACHE = ScheduleCache()


_PERSIST_LOCK = threading.Lock()
_LOADED_DIRS: set[str] = set()
_ATEXIT_REGISTERED = False


def persist_schedule_cache() -> int:
    """Write the shared cache to ``REPRO_SCHEDULE_CACHE_DIR`` right now.

    Normally the atexit hook installed by
    :func:`ensure_persistent_cache_loaded` does this at interpreter exit;
    call it directly to hand a warm cache to a subprocess that is about to
    start (the parallel planner does, so workers begin warm even on the very
    first run).  No-op (returning 0) when persistence is off.
    """
    directory = persistent_cache_dir()
    if directory is None:
        return 0
    return GLOBAL_SCHEDULE_CACHE.save_dir(directory)


def ensure_persistent_cache_loaded() -> None:
    """Warm the shared cache from disk once per configured directory.

    Cycle-accurate devices call this from ``reset()``; the first call for a
    given ``REPRO_SCHEDULE_CACHE_DIR`` value merges every snapshot in the
    directory and registers an atexit hook that snapshots this process's
    entries back.  Later calls (and unset/disabled environments) are no-ops.
    """
    directory = persistent_cache_dir()
    if directory is None:
        return
    global _ATEXIT_REGISTERED
    with _PERSIST_LOCK:
        if directory in _LOADED_DIRS:
            return
        _LOADED_DIRS.add(directory)
        if not _ATEXIT_REGISTERED:
            atexit.register(persist_schedule_cache)
            _ATEXIT_REGISTERED = True
    GLOBAL_SCHEDULE_CACHE.load_dir(directory)
