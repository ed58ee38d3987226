"""Vectorized fast path of the coarse-grained pipeline simulator.

The reference simulator (:func:`repro.scheduling.pipeline.simulate_coarse_pipeline`
with ``engine="reference"``) walks a pure-Python ``jobs x stages`` loop and
materializes one :class:`~repro.scheduling.timeline.TimelineEvent` per (job,
stage).  The serving stack calls it thousands of times per sweep, so this
module re-expresses the same recurrence as NumPy *max-plus scans* over the
completion matrix:

with ``c[j]`` the completion of job ``j`` at one stage, ``r[j]`` its
readiness (previous stage / previous layer / barrier) and ``L[j]`` its
latency, the reference recurrence ``c[j] = max(r[j], c[j-1]) + L[j]`` has the
closed form::

    c[j] = P[j] + max(carry, max_{k<=j}(r[k] - P[k-1]))   where P = cumsum(L)

i.e. one ``cumsum`` plus one ``maximum.accumulate`` per (block, stage, chain)
instead of a Python loop over jobs.  Replicated stages are independent scan
chains (job ``j`` runs on replica ``j mod R``).  Stage latencies are computed
once per *unique* billed length (lengths in a batch repeat heavily) and
gathered into a ``jobs x stages`` table.

The job list is cut into *blocks* -- maximal contiguous runs in which no
sequence appears twice and no barrier fires -- so the layer dependency and
barrier gating always reference fully-computed earlier blocks.  Layer-ordered
job lists (every scheduler in :mod:`repro.scheduling`) decompose into one
block per encoder layer; since all layers carry identical work, the block
recurrence reaches an exactly periodic steady state (the max-plus cycle
time), which is detected and the remaining layers extrapolated in O(1).

Small unreplicated layer-periodic workloads (the serving batches: at most
``_SMALL_PERIOD`` distinct sequences per layer) skip NumPy for a slot-major
scalar solver: each slot carries its completion through every stage against
the per-stage tails, and its last-stage completion gates its next-layer
entry directly.  A uniform-shift test would seldom fire there from four
sequences up: the entry stage's cycle time is shorter than the last
stage's, so it drifts ahead and the coordinates grow at different rates per
layer.  The scalar solver therefore tests each coordinate on its own.  The
recurrence is max-plus linear, so a layer whose every ``max`` picks the
same side as the previous layer's applies the same translation map; once
the per-coordinate layer-over-layer step repeats and every winning side's
lead, linear in the layer index, still holds at the last layer, each
coordinate advances by its own step in every remaining layer.  That fires
after three layers on every serving batch measured: all 3,125 ``plain``
batches of 16 sequences (perfbench seed 4), and 300 random batches of each
of 1, 2, 3, 4, 5, 8, 16 and 32 sequences on ``sparse-fpga`` for bert-base
on MRPC and SQuAD and bert-large on SQuAD, except 20 two- and
three-sequence MRPC batches that took four layers and one that walked all
twelve.

Exactness: every completion cycle equals the reference implementation's
bit-for-bit (integer arithmetic throughout); the equivalence is pinned by
``tests/scheduling/test_fast_pipeline.py`` (the block path, the scalar path
and the extrapolation on both, plus the scalar test against a full layer
walk on synthetic stage rows).  Unsupported parameter
combinations (finite ``buffer_slots`` under pipelining) raise
:class:`FastPathUnsupported` and the caller falls back to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.accelerator import Accelerator
    from .pipeline import PipelineJob

__all__ = [
    "FastPathUnsupported",
    "FastSchedule",
    "fast_path_supported",
    "simulate_fast",
    "simulate_fast_arrays",
    "simulate_fast_layered",
    "stage_latency_table",
]


class FastPathUnsupported(Exception):
    """The vectorized engine cannot model this parameter combination."""


def fast_path_supported(pipelined: bool, buffer_slots: int | None) -> bool:
    """Whether the vectorized engine covers this simulator configuration.

    Finite inter-stage buffers introduce a forward-stage dependency
    (``completion[j - slots][s + 1]``) that breaks the stage-major scan
    order; the non-pipelined mode serializes jobs completely, which dominates
    every other constraint, so it is supported for *any* parameters.
    """
    return (not pipelined) or buffer_slots is None


def stage_latency_table(accelerator: "Accelerator", billed: np.ndarray) -> np.ndarray:
    """Per-job stage latencies, computed once per unique billed length.

    Returns an ``[num_jobs, num_stages]`` int64 matrix.  Batches repeat
    lengths heavily (and quantized caching makes them repeat even more), so
    the accelerator's cycle model runs once per *unique* length only.
    """
    unique, inverse = np.unique(billed, return_inverse=True)
    table = np.array(
        [accelerator.stage_latencies(int(length)) for length in unique], dtype=np.int64
    )
    return table[inverse]


@dataclass
class FastSchedule:
    """Vectorized schedule summary: everything the hot path reads, no events.

    ``stage_busy`` / ``stage_first_start`` / ``stage_last_end`` are keyed by
    the reference timeline's stage labels (``"<name>[replica]"`` for
    replicated stages) and ``stage_label_order`` preserves the reference's
    order of first appearance so float reductions reproduce the reference
    bit-for-bit.
    """

    num_jobs: int
    num_stages: int
    makespan: int
    #: Latest cycle at which any job leaves the entry stage (continuous
    #: batching admits the next batch at this instant).
    entry_admit_cycles: int
    #: sequence_id -> cycle its last job leaves the last stage.
    sequence_completion: dict[int, int]
    stage_label_order: list[str]
    stage_busy: dict[str, int]
    stage_first_start: dict[str, int]
    stage_last_end: dict[str, int]

    def average_utilization(self) -> float:
        """Mean per-stage-label utilization (matches ``Timeline.average_utilization``)."""
        if not self.stage_label_order:
            return 0.0
        total = 0.0
        for label in self.stage_label_order:
            span = self.stage_last_end[label] - self.stage_first_start[label]
            total += self.stage_busy[label] / span if span > 0 else 0.0
        return total / len(self.stage_label_order)

    def total_bubble_cycles(self) -> int:
        """Idle cycles inside every stage label's active span."""
        return sum(
            max(self.stage_last_end[label] - self.stage_first_start[label] - busy, 0)
            for label, busy in self.stage_busy.items()
        )


# ---------------------------------------------------------------------------
# Scan primitives
# ---------------------------------------------------------------------------


def _scan(ready: np.ndarray, lat: np.ndarray, carry: int) -> tuple[np.ndarray, int]:
    """Solve ``c[j] = max(ready[j], c[j-1]) + lat[j]`` with ``c[-1] = carry``."""
    prefix = lat.cumsum()
    # ready[j] - P[j-1]; the carry competes as a virtual k = -1 term.
    offsets = ready - prefix + lat  # fresh array: safe to patch in place
    if carry > offsets[0]:
        offsets[0] = carry
    peaks = np.maximum.accumulate(offsets)
    completion = prefix + peaks
    return completion, int(completion[-1])


def _solve_block(
    lat_blk: np.ndarray,
    ready0: np.ndarray,
    chain_tails: list[np.ndarray],
    global_start: int,
    replication: Sequence[int],
) -> np.ndarray:
    """Completion matrix of one block (no internal barriers / repeats)."""
    n, num_stages = lat_blk.shape
    comp = np.empty((n, num_stages), dtype=np.int64)
    prev = ready0
    for s in range(num_stages):
        r = replication[s]
        if r == 1:
            comp[:, s], tail = _scan(prev, lat_blk[:, s], int(chain_tails[s][0]))
            chain_tails[s][0] = tail
        else:
            out = np.empty(n, dtype=np.int64)
            for c in range(r):
                first = (c - global_start) % r
                if first >= n:
                    continue
                sel = slice(first, n, r)
                out[sel], tail = _scan(prev[sel], lat_blk[sel, s], int(chain_tails[s][c]))
                chain_tails[s][c] = tail
            comp[:, s] = out
        prev = comp[:, s]
    return comp


# ---------------------------------------------------------------------------
# Block decomposition
# ---------------------------------------------------------------------------


def _block_bounds(seq: np.ndarray, barriers: set[int]) -> list[tuple[int, int]]:
    """Cut jobs into maximal runs with unique sequences and no barrier inside."""
    bounds: list[tuple[int, int]] = []
    start = 0
    seen: set[int] = set()
    for j, s in enumerate(seq.tolist()):
        if j > start and (j in barriers or s in seen):
            bounds.append((start, j))
            start = j
            seen = set()
        elif j == start:
            seen = set()
        seen.add(s)
    bounds.append((start, len(seq)))
    return bounds


def _stage_labels(names: list[str], replication: list[int], num_jobs: int) -> list[str]:
    """Stage labels in the reference timeline's order of first appearance.

    The reference emits events job-major; label ``name[c]`` of a replicated
    stage first appears with job ``c``, an un-replicated stage's plain label
    with job 0.
    """
    labels: list[str] = []
    max_r = max(replication)
    for j in range(min(num_jobs, max_r)):
        for s, name in enumerate(names):
            if replication[s] == 1:
                if j == 0:
                    labels.append(name)
            elif j < replication[s]:
                labels.append(f"{name}[{j}]")
    return labels


def _chain_busy(lat_all: np.ndarray, replication: list[int]) -> list[np.ndarray]:
    """Total busy cycles per (stage, replica chain)."""
    num_jobs = lat_all.shape[0]
    busy: list[np.ndarray] = []
    for s, r in enumerate(replication):
        if r == 1:
            busy.append(np.array([lat_all[:, s].sum()], dtype=np.int64))
        else:
            chains = np.arange(num_jobs, dtype=np.int64) % r
            busy.append(
                np.bincount(chains, weights=lat_all[:, s], minlength=r).astype(np.int64)
            )
    return busy


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def simulate_fast(
    accelerator: "Accelerator",
    jobs: "list[PipelineJob]",
    pipelined: bool = True,
    buffer_slots: int | None = None,
    barriers: set[int] | None = None,
) -> FastSchedule:
    """Vectorized equivalent of the reference coarse-pipeline recurrence.

    Raises :class:`FastPathUnsupported` for parameter combinations the scan
    formulation cannot express (finite ``buffer_slots`` while pipelined).
    """
    if not jobs:
        raise ValueError("simulate_fast needs at least one job")
    num_jobs = len(jobs)
    billed = np.fromiter((job.billed_length for job in jobs), dtype=np.int64, count=num_jobs)
    seq = np.fromiter((job.sequence_id for job in jobs), dtype=np.int64, count=num_jobs)
    return simulate_fast_arrays(
        accelerator, billed, seq, pipelined=pipelined, buffer_slots=buffer_slots, barriers=barriers
    )


def simulate_fast_arrays(
    accelerator: "Accelerator",
    billed: np.ndarray,
    seq: np.ndarray,
    pipelined: bool = True,
    buffer_slots: int | None = None,
    barriers: set[int] | None = None,
) -> FastSchedule:
    """Array-level entry: ``billed[j]`` / ``seq[j]`` describe job ``j`` directly.

    The schedulers call this to skip :class:`PipelineJob` object construction
    entirely on the hot path (the job list is only rebuilt if the lazy
    timeline is materialized).
    """
    if not fast_path_supported(pipelined, buffer_slots):
        raise FastPathUnsupported("finite buffer_slots require the reference engine")
    if billed.size == 0:
        raise ValueError("simulate_fast needs at least one job")
    barriers = barriers or set()
    names = [stage.name for stage in accelerator.stages]
    replication = [max(getattr(stage, "replication", 1), 1) for stage in accelerator.stages]
    num_jobs = int(billed.size)
    num_stages = len(names)
    lat_all = stage_latency_table(accelerator, billed)

    if not pipelined:
        comp = _sequential_completions(lat_all)
        return _summarize(comp, lat_all, seq, names, replication)

    seq_ids, seq_idx = np.unique(seq, return_inverse=True)
    seq_done = np.zeros(len(seq_ids), dtype=np.int64)
    chain_tails = [np.zeros(r, dtype=np.int64) for r in replication]
    bounds = _block_bounds(seq, barriers)
    periodic = _is_periodic(bounds, barriers, seq_idx, lat_all, replication)

    head_comps: list[np.ndarray] = []
    max_r = max(replication)
    prev_state: np.ndarray | None = None
    shift = 0  # accumulated extrapolation shift (cycles)
    block_index = 0
    while block_index < len(bounds):
        a, b = bounds[block_index]
        ready0 = seq_done[seq_idx[a:b]]
        if a in barriers:
            barrier_done = int(chain_tails[num_stages - 1].max(initial=0))
            if barrier_done > ready0[0]:
                ready0 = ready0.copy()
                ready0[0] = barrier_done
        comp = _solve_block(lat_all[a:b], ready0, chain_tails, a, replication)
        seq_done[seq_idx[a:b]] = comp[:, -1]
        if a < max_r:
            # Keep completions covering the first job of every replica chain
            # (job c of chain c); they pin each stage label's first start.
            head_comps.append(comp)
        if periodic and block_index >= 1 and b > max_r:
            state = np.concatenate([seq_done, *chain_tails])
            if prev_state is not None:
                delta = state - prev_state
                step = int(delta[0])
                if step > 0 and bool(np.all(delta == step)):
                    remaining = len(bounds) - 1 - block_index
                    shift = step * remaining
                    seq_done += shift
                    for tails in chain_tails:
                        tails += shift
                    break
            prev_state = state
        block_index += 1

    head = np.concatenate(head_comps, axis=0) if head_comps else np.empty((0, num_stages))
    return _summarize_from_state(
        head, lat_all, seq, seq_ids, seq_done, chain_tails, names, replication
    )


def _is_periodic(
    bounds: list[tuple[int, int]],
    barriers: set[int],
    seq_idx: np.ndarray,
    lat_all: np.ndarray,
    replication: list[int],
) -> bool:
    """Whether the blocks repeat one identical layer pattern (extrapolatable)."""
    if barriers or len(bounds) < 4:
        return False
    period = bounds[0][1]
    if any(b - a != period for a, b in bounds):
        return False
    if any(r > 1 and period % r != 0 for r in replication):
        return False
    layers = len(bounds)
    if not np.array_equal(seq_idx.reshape(layers, period), np.tile(seq_idx[:period], (layers, 1))):
        return False
    return bool(
        np.array_equal(
            lat_all.reshape(layers, period, -1),
            np.broadcast_to(lat_all[:period], (layers, period, lat_all.shape[1])),
        )
    )


def _sequential_completions(lat_all: np.ndarray) -> np.ndarray:
    """Closed form of the non-pipelined mode: jobs serialize completely.

    The entry gate ``completion[j-1][last]`` dominates every other constraint
    (chain, layer, barrier, and buffer gates all reference earlier jobs'
    completions, which never exceed the previous job's final one), so the
    completion matrix is a running sum of whole-job latencies plus each job's
    internal stage prefix.
    """
    within = np.cumsum(lat_all, axis=1)
    totals = within[:, -1]
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))
    return within + offsets[:, None]


def _summarize(
    comp: np.ndarray,
    lat_all: np.ndarray,
    seq: np.ndarray,
    names: list[str],
    replication: list[int],
) -> FastSchedule:
    """Build the summary from a fully materialized completion matrix."""
    num_jobs, num_stages = comp.shape
    seq_ids, seq_idx = np.unique(seq, return_inverse=True)
    seq_done = np.zeros(len(seq_ids), dtype=np.int64)
    np.maximum.at(seq_done, seq_idx, comp[:, -1])
    chain_tails = []
    for s, r in enumerate(replication):
        tails = np.zeros(r, dtype=np.int64)
        np.maximum.at(tails, np.arange(num_jobs, dtype=np.int64) % r, comp[:, s])
        chain_tails.append(tails)
    return _summarize_from_state(
        comp, lat_all, seq, seq_ids, seq_done, chain_tails, names, replication
    )


def _summarize_from_state(
    head_comp: np.ndarray,
    lat_all: np.ndarray,
    seq: np.ndarray,
    seq_ids: np.ndarray,
    seq_done: np.ndarray,
    chain_tails: list[np.ndarray],
    names: list[str],
    replication: list[int],
) -> FastSchedule:
    """Build the summary from final chain tails plus the head completions.

    ``head_comp`` must cover at least the first ``max(replication)`` jobs
    (the first job of every replica chain), which pins each stage label's
    first start; chain tails pin the last ends.
    """
    return _assemble(
        head_comp,
        lat_all,
        _chain_busy(lat_all, replication),
        lat_all.shape[0],
        seq_ids,
        seq_done,
        chain_tails,
        names,
        replication,
    )


def _assemble(
    head_comp: np.ndarray,
    head_lat: np.ndarray,
    busy: list[np.ndarray],
    num_jobs: int,
    seq_ids: np.ndarray,
    seq_done: np.ndarray,
    chain_tails: list[np.ndarray],
    names: list[str],
    replication: list[int],
) -> FastSchedule:
    """Assemble a :class:`FastSchedule` from the solved pieces."""
    num_stages = len(names)
    labels = _stage_labels(names, replication, num_jobs)
    stage_busy: dict[str, int] = {}
    stage_first: dict[str, int] = {}
    stage_last: dict[str, int] = {}
    for s, (name, r) in enumerate(zip(names, replication)):
        for c in range(min(r, num_jobs)):
            label = name if r == 1 else f"{name}[{c}]"
            # Chain c's first job is global job c (chains are j mod r).
            stage_first[label] = int(head_comp[c, s] - head_lat[c, s])
            stage_last[label] = int(chain_tails[s][c])
            stage_busy[label] = int(busy[s][c])
    return FastSchedule(
        num_jobs=num_jobs,
        num_stages=num_stages,
        makespan=int(chain_tails[-1].max(initial=0)),
        entry_admit_cycles=int(chain_tails[0].max(initial=0)),
        sequence_completion={
            int(sid): int(done) for sid, done in zip(seq_ids, seq_done)
        },
        stage_label_order=labels,
        stage_busy=stage_busy,
        stage_first_start=stage_first,
        stage_last_end=stage_last,
    )


#: Below this many slots per layer, plain Python integer recurrences beat
#: NumPy's per-call overhead (serving batches are often 2-16 sequences).
_SMALL_PERIOD = 32


def _int_list(values: Sequence[int]) -> list[int]:
    """``values`` as a list of Python ints (arrays convert in one call)."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return [int(v) for v in values]


def _holds_to_horizon(margins: list[int], prev_margins: list[int], remaining: int) -> bool:
    """Whether every step keeps its winning side for ``remaining`` more layers.

    ``margins[k]`` is step ``k``'s ``t - tail`` in the current layer and
    ``prev_margins[k]`` the same step's in the previous one.  Oriented to the
    side that wins now, the lead must have held in the previous layer too
    and, growing by the same amount per layer, must not turn negative by the
    last layer.
    """
    for lead, prev_lead in zip(margins, prev_margins):
        if lead < 0:
            lead, prev_lead = -lead, -prev_lead
        if prev_lead < 0 or lead + remaining * (lead - prev_lead) < 0:
            return False
    return True


def _layered_small(
    rows: list[tuple[int, ...]],
    seq: list[int],
    num_layers: int,
    names: list[str],
) -> FastSchedule:
    """Slot-major scalar solver for small, unreplicated layer-periodic workloads.

    ``rows[i]`` is slot ``i``'s stage latency row.  Identical integer
    recurrence as the NumPy path (and the reference), but with Python ints.
    Each slot carries its completion through every stage against the
    per-stage tails (the previous job's completion there).  Slot ``i`` is
    the same sequence in every layer, so its last-stage completion gates its
    next-layer entry directly, with no per-layer permutation.

    Every step ``t = max(t, tail) + lat`` records its margin ``t - tail``.
    Once a layer's state delta ``x_L - x_(L-1)`` (``x = done + tails``)
    repeats the previous layer's and every step's winning side held in both
    layers and keeps holding to the last layer (:func:`_holds_to_horizon`),
    both layers applied the same translation map, which fixes the delta, so
    the final state is ``x_L + K * (x_L - x_(L-1))`` for the ``K`` layers
    left.  The module docstring says how early that fires.  Stage first
    starts are the prefix sums of slot 0's row.
    """
    period = len(rows)
    done = [0] * period  # done[i]: slot i's completion at the last stage
    tails = [0] * len(names)  # tails[s]: the previous job's completion at s
    stages = range(len(names))
    prev_state = done + tails  # the empty pipeline before layer 0
    prev_delta: list[int] | None = None
    prev_margins: list[int] = []
    for layer in range(num_layers):
        margins: list[int] = []
        note = margins.append
        for i, row in enumerate(rows):
            t = done[i]
            for s in stages:
                tail = tails[s]
                margin = t - tail
                note(margin)
                t = (t if margin > 0 else tail) + row[s]
                tails[s] = t
            done[i] = t
        state = done + tails
        delta = [now - before for now, before in zip(state, prev_state)]
        remaining = num_layers - 1 - layer
        if (
            remaining
            and delta == prev_delta
            and _holds_to_horizon(margins, prev_margins, remaining)
        ):
            done = [value + remaining * step for value, step in zip(done, delta)]
            tails = [
                value + remaining * step for value, step in zip(tails, delta[period:])
            ]
            break
        prev_state, prev_delta, prev_margins = state, delta, margins

    stage_first: dict[str, int] = {}
    start = 0
    for name, lat in zip(names, rows[0]):
        stage_first[name] = start
        start += lat
    return FastSchedule(
        num_jobs=period * num_layers,
        num_stages=len(names),
        makespan=tails[-1],
        entry_admit_cycles=tails[0],
        sequence_completion=dict(sorted(zip(seq, done))),
        stage_label_order=list(names),
        stage_busy={
            name: num_layers * sum(column) for name, column in zip(names, zip(*rows))
        },
        stage_first_start=stage_first,
        stage_last_end=dict(zip(names, tails)),
    )


def simulate_fast_layered(
    accelerator: "Accelerator",
    slot_billed: Sequence[int],
    slot_sequences: Sequence[int],
    num_layers: int,
    pipelined: bool = True,
    buffer_slots: int | None = None,
) -> FastSchedule:
    """Specialized entry for layer-periodic workloads (all batch schedulers).

    ``slot_billed`` / ``slot_sequences`` describe one layer's issue slots;
    every layer repeats the same pattern.  Small unreplicated pipelined
    layers (at most ``_SMALL_PERIOD`` distinct sequences, the serving
    batches) go to the slot-major scalar solver on plain lists; NumPy only
    runs on the block path below.  There, latency tables, block bounds, and
    chain busy sums are computed on one layer only.  Both paths extrapolate
    the remaining layers in O(1): the scalar solver once each coordinate's
    per-layer step repeats under the same side of every ``max`` (after three
    layers on serving batches, see the module docstring), the block path
    once the layer-over-layer delta is a uniform shift (the max-plus cycle
    time; batches of one to three sequences, seldom from four up).  Falls back
    to the generic array entry when the structure is not layer-periodic
    (replication not dividing the batch, repeated sequences inside a layer).
    """
    if not fast_path_supported(pipelined, buffer_slots):
        raise FastPathUnsupported("finite buffer_slots require the reference engine")
    billed = _int_list(slot_billed)
    seq = _int_list(slot_sequences)
    period = len(billed)
    if period == 0:
        raise ValueError("simulate_fast_layered needs at least one slot")
    names = [stage.name for stage in accelerator.stages]
    replication = [max(getattr(stage, "replication", 1), 1) for stage in accelerator.stages]
    if (
        pipelined
        and period <= _SMALL_PERIOD
        and all(r == 1 for r in replication)
        and len(set(seq)) == period
    ):
        rows = [accelerator.stage_latency_row(length) for length in billed]
        return _layered_small(rows, seq, num_layers, names)
    billed_layer = np.asarray(billed, dtype=np.int64)
    seq_layer = np.asarray(seq, dtype=np.int64)
    seq_ids, seq_idx = np.unique(seq_layer, return_inverse=True)
    layered_ok = (
        pipelined
        and len(seq_ids) == period
        and all(r == 1 or period % r == 0 for r in replication)
    )
    if not layered_ok:
        return simulate_fast_arrays(
            accelerator,
            np.tile(billed_layer, num_layers),
            np.tile(seq_layer, num_layers),
            pipelined=pipelined,
            buffer_slots=buffer_slots,
        )

    lat_layer = stage_latency_table(accelerator, billed_layer)
    seq_done = np.zeros(period, dtype=np.int64)
    chain_tails = [np.zeros(r, dtype=np.int64) for r in replication]
    head_comp: np.ndarray | None = None
    prev_state: np.ndarray | None = None
    layer = 0
    while layer < num_layers:
        ready0 = seq_done[seq_idx]
        comp = _solve_block(lat_layer, ready0, chain_tails, layer * period, replication)
        seq_done[seq_idx] = comp[:, -1]
        if head_comp is None:
            head_comp = comp
        if layer >= 1:
            state = np.concatenate([seq_done, *chain_tails])
            if prev_state is not None:
                delta = state - prev_state
                step = int(delta[0])
                if bool(np.all(delta == step)):
                    # The recurrence reached its periodic steady state: every
                    # remaining layer shifts all completions by `step`.
                    shift = step * (num_layers - 1 - layer)
                    seq_done += shift
                    for tails in chain_tails:
                        tails += shift
                    break
            prev_state = state
        layer += 1

    # Chain assignment repeats every layer (r divides the period), so the
    # whole-run busy sums are one layer's sums times the layer count.
    busy: list[np.ndarray] = []
    for s, r in enumerate(replication):
        if r == 1:
            busy.append(np.array([num_layers * int(lat_layer[:, s].sum())], dtype=np.int64))
        else:
            chains = np.arange(period, dtype=np.int64) % r
            busy.append(
                (
                    num_layers
                    * np.bincount(chains, weights=lat_layer[:, s], minlength=r)
                ).astype(np.int64)
            )
    return _assemble(
        head_comp,
        lat_layer,
        busy,
        period * num_layers,
        seq_ids,
        seq_done,
        chain_tails,
        names,
        replication,
    )
