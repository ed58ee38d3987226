"""Adapters wrapping the two existing backend families behind :class:`Device`.

* :class:`CycleAccurateDevice` -- an :class:`~repro.hardware.accelerator.Accelerator`
  plus a batch scheduler: latency is the simulated coarse-pipeline makespan,
  per-request completions are each sequence's last stage exit, and the
  admission interval is when the first coarse stage drains (so a new batch
  can stream in behind the old one -- device-level continuous batching).
* :class:`AnalyticalDevice` -- any platform model producing a
  :class:`~repro.platforms.base.PlatformResult` (the roofline
  :class:`~repro.platforms.base.AnalyticalPlatform` CPU/GPU models, or a
  :class:`~repro.platforms.fpga.FpgaPlatform`): the batch completes as one
  unit and batches serialize, which is how instruction-driven platforms
  behave under the paper's padding assumptions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .. import config as global_config
from ..hardware.accelerator import Accelerator
from ..hardware.hbm import HbmModel
from ..platforms.base import AnalyticalPlatform, PlatformResult
from ..scheduling.length_aware import LengthAwareScheduler, sort_batch_by_length
from .protocol import BatchExecution, Device
from .schedule_cache import (
    GLOBAL_SCHEDULE_CACHE,
    ScheduleCache,
    check_length_bucket,
    quantize_lengths,
    schedule_cache_enabled,
)

__all__ = ["AnalyticalDevice", "CycleAccurateDevice"]


@dataclass
class _CanonicalSchedule:
    """One cached simulation of a canonicalized batch.

    ``slot_completion_seconds[r]`` is the completion offset of the request at
    issue slot ``r`` of the canonical order; callers remap slots to their own
    request order through the scheduler's issue permutation.  Per-batch
    timelines are not kept: ``scheduler.schedule(accelerator, lengths)``
    builds one where it is read.
    """

    slot_completion_seconds: list[float]
    latency_seconds: float
    admit_seconds: float
    utilization: float


#: Serial for schedulers whose repr is not value-based (see _scheduler_cache_key).
_SCHEDULER_SERIAL = itertools.count()


def _scheduler_cache_key(scheduler) -> str:
    """Cache-key component pinning the scheduler's configuration.

    Cross-instance sharing is *opt-in*: only schedulers that declare
    ``cache_canonicalization`` (all built-ins do) are trusted to have a
    value-based repr that spells out every knob that can alter a schedule.
    Any other plug-in scheduler gets a process-unique serial -- its own
    batches still hit the cache, but two instances never share an entry, so
    a partial repr (or the default address-based ``object`` repr, whose
    address the allocator can recycle) can never serve a differently
    configured scheduler's schedule.
    """
    text = repr(scheduler)
    if getattr(scheduler, "cache_canonicalization", None) is None or " object at 0x" in text:
        return f"{type(scheduler).__qualname__}#{next(_SCHEDULER_SERIAL)}"
    return text


class CycleAccurateDevice(Device):
    """A simulated FPGA design (accelerator + batch scheduler) as a Device.

    Schedule simulations are shared through the process-wide
    :data:`~repro.devices.schedule_cache.GLOBAL_SCHEDULE_CACHE`: the key
    includes the canonicalized length tuple *and* the per-unique-length stage
    latency rows, so identical designs in a fleet (replicas, or independently
    built equal designs) share hits exactly, while designs that differ in any
    latency-visible way can never collide.  ``cache_length_bucket=Q``
    additionally rounds lengths up to multiples of ``Q`` before scheduling
    (conservative, approximate, off by default).
    """

    backend = "cycle-accurate"

    def __init__(
        self,
        accelerator: Accelerator,
        scheduler=None,
        name: str | None = None,
        power_watts: float = global_config.FPGA_BOARD_POWER_W,
        cache_length_bucket: int | None = None,
        schedule_cache: ScheduleCache | None = None,
        max_batch_size: int | None = None,
        max_batch_tokens: int | None = None,
        kv_cache_bytes: int | None = None,
        hbm: HbmModel | None = None,
        price_per_hour_usd: float | None = None,
    ) -> None:
        self.accelerator = accelerator
        self.scheduler = scheduler or LengthAwareScheduler()
        self.name = name or accelerator.name
        self.power_watts = power_watts
        #: HBM substrate for decode-phase KV streaming (prefill cost comes
        #: from the cycle-accurate schedule, which already folds bandwidth in).
        self.hbm = hbm or HbmModel(clock_hz=accelerator.clock_hz)
        check_length_bucket(cache_length_bucket)
        self.cache_length_bucket = cache_length_bucket
        self._schedule_cache = (
            schedule_cache if schedule_cache is not None else GLOBAL_SCHEDULE_CACHE
        )
        # The structure/scheduler parts of the cache key never change after
        # construction (schedulers are plain dataclasses: their repr pins
        # every knob that can alter a schedule).
        self._structure_key = (
            tuple(
                (
                    stage.name,
                    max(getattr(stage, "replication", 1), 1),
                    bool(getattr(stage, "intra_pipelined", False)),
                )
                for stage in accelerator.stages
            ),
            int(accelerator.model_config.num_layers),
            float(accelerator.clock_hz),
        )
        self._scheduler_key = _scheduler_cache_key(self.scheduler)
        self._key_rows: dict[int, tuple[int, tuple[int, ...]]] = {}
        # How the scheduler canonicalizes a batch: built-in schedulers
        # advertise ``cache_canonicalization``; unknown ones fall back to
        # "exact" (order-sensitive keys, no cross-permutation sharing).
        self._mode = getattr(self.scheduler, "cache_canonicalization", "exact")
        pad_to = getattr(self.scheduler, "pad_to", None)
        self._pad_to = None if pad_to is None else int(pad_to)
        super().__init__(
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            kv_cache_bytes=kv_cache_bytes,
            price_per_hour_usd=price_per_hour_usd,
        )

    @property
    def scheduler_name(self) -> str | None:
        return getattr(self.scheduler, "name", type(self.scheduler).__name__)

    # ------------------------------------------------------------------
    # Decode-phase cost model (two-phase serving)
    # ------------------------------------------------------------------

    @property
    def decode_top_k(self) -> int | None:
        """Sparse designs reuse their attention top-k as the KV-read cap."""
        return self.accelerator.top_k

    def kv_bytes_per_token(self) -> int:
        return self._kv_bytes_per_token

    @cached_property
    def _kv_bytes_per_token(self) -> int:
        """Computed once, on the same premise as :attr:`_decode_roofline`."""
        model = self.accelerator.model_config
        return (
            2  # K and V
            * model.num_layers
            * model.hidden_dim
            * global_config.KV_BYTES_PER_ELEMENT_FPGA
        )

    def kv_read_bandwidth(self) -> float:
        return self.hbm.effective_bandwidth

    @cached_property
    def _decode_roofline(self) -> tuple[float, float, float]:
        """(weight-stream seconds, ops per request, peak ops/s) of a step.

        Per-device constants, computed once: the design's stages and clock
        are fixed once the factory returns (the same premise as the
        accelerator's stage-row memo and the cache key's structure part).
        """
        model = self.accelerator.model_config
        weight_bytes = model.num_parameters * (global_config.MODEL_QUANT_BITS // 8)
        return (
            weight_bytes / self.kv_read_bandwidth(),
            2.0 * model.num_parameters,
            self.accelerator.peak_ops(),
        )

    def decode_compute_seconds(self, batch_size: int) -> float:
        """Weight-side work of one step: batched GEMV through the stack.

        The weights stream once per step (shared by the whole batch), so the
        step sits on a roofline between the weight-stream time and the MAC
        time at the design's peak rate.
        """
        weight_seconds, ops_per_request, peak_ops = self._decode_roofline
        return max(weight_seconds, batch_size * ops_per_request / peak_ops)

    def reset(self, continuous_batching: bool = False) -> None:
        super().reset(continuous_batching=continuous_batching)
        #: Per-device counters over one serving run (the shared cache keeps
        #: its own process-lifetime totals).
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_active = schedule_cache_enabled()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _key_row(self, length: int) -> tuple[int, tuple[int, ...]]:
        """``(length, stage latency row)``: one length's part of a cache key.

        Memoized per length (bounded by the distinct lengths a device sees),
        like the accelerator's own row memo it reads.
        """
        row = self._key_rows.get(length)
        if row is None:
            row = self._key_rows[length] = (
                length,
                self.accelerator.stage_latency_row(length),
            )
        return row

    def _cache_key(self, canonical: tuple[int, ...]) -> tuple:
        """The cache key of a canonical batch."""
        row_lengths = sorted(set(canonical))
        if self._pad_to is not None:
            row_lengths.append(self._pad_to)
        rows = tuple(map(self._key_row, row_lengths))
        return (canonical, rows, self._structure_key, self._scheduler_key)

    def _simulate_canonical(self, canonical: tuple[int, ...]) -> _CanonicalSchedule:
        result = self.scheduler.schedule(self.accelerator, list(canonical))
        clock = self.accelerator.clock_hz
        completion = result.sequence_completion_cycles()
        latency = result.makespan_seconds
        return _CanonicalSchedule(
            slot_completion_seconds=[
                completion[i] / clock for i in range(len(canonical))
            ],
            latency_seconds=latency,
            admit_seconds=min(result.entry_admit_cycles() / clock, latency),
            utilization=result.average_utilization,
        )

    @staticmethod
    def _issue_order(billed: tuple[int, ...], mode: str) -> list[int] | None:
        """The scheduler's issue permutation for this batch (None = identity).

        Delegates to the schedulers' own :func:`sort_batch_by_length` so the
        offset remapping can never drift from the order the cached canonical
        simulation actually used (tie-breaks included).
        """
        if mode == "sort-desc":
            return sort_batch_by_length(list(billed), descending=True)
        if mode == "sort-asc":
            return sort_batch_by_length(list(billed), descending=False)
        return None

    def _canonical_entry(
        self, lengths: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...], str, tuple | None, _CanonicalSchedule]:
        """Canonicalize one batch and fetch (or simulate) its cached schedule.

        The one place a batch touches the schedule cache: :meth:`execute`
        and the latency-only queries all come through here, so each query
        is exactly one hit or miss on the device and the shared cache.
        Returns the call's lengths, the billed (quantized) lengths, the
        canonicalization mode, the cache key (``None`` with the cache off)
        and the entry.
        """
        call = tuple(map(int, lengths))
        if not call:
            # Before the cache: an empty batch is no lookup, hit or miss.
            raise ValueError("a batch needs at least one request")
        if self.cache_length_bucket is None:
            billed = call
        else:
            billed = quantize_lengths(call, self.cache_length_bucket)
            pad_to = self._pad_to
            if pad_to is not None:
                # Never quantize a valid length past a fixed padding target:
                # the scheduler bills such sequences at pad_to anyway, and
                # rounding beyond it would reject a batch that is fine
                # unquantized.  Lengths already above pad_to stay as they
                # are (and fail exactly like the unquantized call would).
                billed = tuple(
                    min(quantized, pad_to) if original <= pad_to else quantized
                    for quantized, original in zip(billed, call)
                )
        mode = self._mode
        if mode in ("sort-desc", "uniform"):
            canonical = tuple(sorted(billed, reverse=True))
        elif mode == "sort-asc":
            canonical = tuple(sorted(billed))
        else:
            canonical = billed
        key = entry = None
        # One source of truth per run: the reset()-time snapshot (the engine
        # resets every device at simulation start), so counters and reported
        # stats can never disagree about whether the cache was active.
        use_cache = self._cache_active
        if use_cache:
            key = self._cache_key(canonical)
            entry = self._schedule_cache.lookup(key)
            if entry is None:
                self.cache_misses += 1
            else:
                self.cache_hits += 1
        if entry is None:
            entry = self._simulate_canonical(canonical)
            if use_cache:
                self._schedule_cache.store(key, entry)
        return call, billed, mode, key, entry

    def _count_twin_hits(self, twins: list, keys: list[tuple]) -> None:
        """Count the hits ``twins`` would score repeating this device's lookups.

        Twins with a live cache would hit the most recent ``keys`` in order,
        moving nothing in the LRU.
        """
        count = len(keys)
        repeats = 0
        for twin in twins:
            if twin._cache_active:
                twin.cache_hits += count
                repeats += 1
        if repeats:
            self._schedule_cache.count_hits(keys, repeats)

    def execute(self, lengths: Sequence[int]) -> BatchExecution:
        call, billed, mode, _, entry = self._canonical_entry(lengths)
        order = self._issue_order(billed, mode)
        if order is None:
            offsets = list(entry.slot_completion_seconds)
        else:
            offsets = [0.0] * len(call)
            for rank, original in enumerate(order):
                offsets[original] = entry.slot_completion_seconds[rank]
        return BatchExecution(
            device=self.name,
            lengths=list(call),
            latency_seconds=entry.latency_seconds,
            completion_offsets=offsets,
            admit_seconds=entry.admit_seconds,
            utilization=entry.utilization,
            energy_joules=entry.latency_seconds * self.power_watts,
        )

    def batch_latency_seconds(self, lengths: Sequence[int]) -> float:
        """``execute(lengths).latency_seconds`` from the cached entry alone.

        Same lookup and cache accounting as :meth:`execute`, without the
        issue order, the per-request offsets or a :class:`BatchExecution`.
        """
        return self._canonical_entry(lengths)[4].latency_seconds

    def energy_joules(self, lengths: Sequence[int]) -> float:
        """``execute(lengths).energy_joules`` from the cached entry alone."""
        return self._canonical_entry(lengths)[4].latency_seconds * self.power_watts

    def schedule_cache_stats(self) -> dict | None:
        """Per-run hit/miss counters (reset with the serving clocks).

        ``None`` when the cache is disabled (``REPRO_SCHEDULE_CACHE=off``),
        so reports do not claim cache behavior that never happened.
        """
        if not self._cache_active:
            return None
        total = self.cache_hits + self.cache_misses
        return {
            "length_bucket": self.cache_length_bucket,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / total if total else 0.0,
        }

    def describe(self) -> dict:
        return {
            "name": self.name,
            "backend": self.backend,
            "accelerator": self.accelerator.name,
            "model": self.accelerator.model_config.name,
            "scheduler": self.scheduler_name,
            "clock_hz": self.accelerator.clock_hz,
            "power_watts": self.power_watts,
            "price_per_hour_usd": self.price_per_hour_usd,
            "top_k": self.accelerator.top_k,
            "stages": [stage.name for stage in self.accelerator.stages],
            **self.batch_limits(),
            "schedule_cache": {
                **(self.schedule_cache_stats() or {}),
                "shared": self._schedule_cache.stats(),
            },
        }


class AnalyticalDevice(Device):
    """A closed-form platform model (roofline CPU/GPU, Fig. 7 wrappers) as a Device."""

    backend = "analytical"

    def __init__(
        self,
        platform,
        model_config=None,
        name: str | None = None,
        workload: str = "end_to_end",
        max_batch_size: int | None = None,
        max_batch_tokens: int | None = None,
        kv_cache_bytes: int | None = None,
        mem_bandwidth_bytes: float | None = None,
        decode_top_k: int | None = None,
        price_per_hour_usd: float | None = None,
    ) -> None:
        if workload not in ("end_to_end", "attention"):
            raise ValueError("workload must be 'end_to_end' or 'attention'")
        self.platform = platform
        self.model_config = model_config
        self.workload = workload
        #: Decode steps stream KV at this rate; explicit knob wins, then a
        #: platform-declared bandwidth, then a generic default.
        self.mem_bandwidth_bytes = (
            mem_bandwidth_bytes
            if mem_bandwidth_bytes is not None
            else getattr(platform, "mem_bandwidth_bytes", None)
        )
        self.decode_top_k = decode_top_k
        #: Drives :meth:`Device.served_energy_joules`; analytical batches
        #: never overlap, so power x busy time equals the per-batch sum.
        self.power_watts = getattr(platform, "power_watts", None)
        # AnalyticalPlatform methods take (model_config, lengths); platform
        # wrappers that carry their own model (FpgaPlatform) take (lengths).
        self._needs_model = isinstance(platform, AnalyticalPlatform)
        if self._needs_model and model_config is None:
            raise ValueError("an AnalyticalPlatform device needs a model_config")
        self.name = name or platform.name
        super().__init__(
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            kv_cache_bytes=kv_cache_bytes,
            price_per_hour_usd=price_per_hour_usd,
        )

    # ------------------------------------------------------------------
    # Decode-phase cost model (two-phase serving)
    # ------------------------------------------------------------------

    def kv_bytes_per_token(self) -> int | None:
        return self._kv_bytes_per_token

    @cached_property
    def _kv_bytes_per_token(self) -> int | None:
        """Computed once (the platform and the model are fixed at construction)."""
        if self.model_config is None:
            return None  # platform wrappers without a model cannot size KV
        return (
            2  # K and V
            * self.model_config.num_layers
            * self.model_config.hidden_dim
            * global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
        )

    def kv_read_bandwidth(self) -> float:
        if self.mem_bandwidth_bytes is not None:
            return float(self.mem_bandwidth_bytes)
        return global_config.DEFAULT_ANALYTICAL_MEM_BANDWIDTH

    @cached_property
    def _decode_roofline(self) -> tuple[float, float, float | None]:
        """(weight-stream seconds, ops per request, peak ops/s or None).

        Per-device constants of a step, computed once (the platform and the
        model are fixed at construction).
        """
        weight_bytes = (
            self.model_config.num_parameters
            * global_config.KV_BYTES_PER_ELEMENT_ANALYTICAL
        )
        gops = getattr(self.platform, "effective_gops", None)
        return (
            weight_bytes / self.kv_read_bandwidth(),
            2.0 * self.model_config.num_parameters,
            None if gops is None else gops * 1e9,
        )

    def decode_compute_seconds(self, batch_size: int) -> float:
        """Weight-side roofline of one step (fp16 weights stream once)."""
        if self.model_config is None:
            return 0.0
        weight_seconds, ops_per_request, peak_ops = self._decode_roofline
        mac_seconds = 0.0 if peak_ops is None else batch_size * ops_per_request / peak_ops
        return max(weight_seconds, mac_seconds)

    def _platform_result(self, lengths: list[int]) -> PlatformResult:
        method = (
            self.platform.end_to_end
            if self.workload == "end_to_end"
            else self.platform.attention_only
        )
        if self._needs_model:
            return method(self.model_config, lengths)
        return method(lengths)

    def execute(self, lengths: Sequence[int]) -> BatchExecution:
        batch = [int(x) for x in lengths]
        result = self._platform_result(batch)
        latency = result.latency_seconds
        return BatchExecution(
            device=self.name,
            lengths=batch,
            latency_seconds=latency,
            # The whole padded batch completes as one unit, and the next
            # batch cannot overlap it: no internal pipeline to stream into.
            completion_offsets=[latency] * len(batch),
            admit_seconds=latency,
            utilization=None,
            energy_joules=result.energy_joules,
        )

    def describe(self) -> dict:
        description = {
            "name": self.name,
            "backend": self.backend,
            "platform": self.platform.name,
            "workload": self.workload,
            "power_watts": getattr(self.platform, "power_watts", None),
            "price_per_hour_usd": self.price_per_hour_usd,
            **self.batch_limits(),
        }
        if self.model_config is not None:
            description["model"] = self.model_config.name
        gops = getattr(self.platform, "effective_gops", None)
        if gops is not None:
            description["effective_gops"] = gops
        return description
