"""Fast path of the coarse-grained pipeline simulator: the recurrence on plain ints.

The reference simulator
(:func:`repro.scheduling.pipeline.simulate_coarse_pipeline_reference`)
materializes one :class:`~repro.scheduling.timeline.TimelineEvent` per
(job, stage).  The serving stack calls it thousands of times per sweep, so
this module solves the same integer max-plus recurrence (stage exclusivity,
data and layer dependency, replicated stages, barriers, inter-stage
buffers; Baccelli et al., *Synchronization and Linearity*, 1992) without
events and returns a :class:`FastSchedule` summary.  Two scalar solvers
share the work:

* :func:`_layered_small` takes pipelined, unbuffered, unreplicated
  layer-ordered workloads in which every sequence appears once per layer
  (every length-aware and padded batch, so every serving batch).  The entry
  stage's cycle time is shorter than the last stage's, so it drifts ahead
  and the coordinates grow at different rates per layer: a uniform-shift
  test would seldom fire from four sequences up.  The solver tests each
  coordinate on its own.  The recurrence is max-plus linear, so a layer
  whose every ``max`` picks the same side as the previous layer's applies
  the same translation map; once each coordinate's layer-over-layer step
  repeats and every winning side's lead, linear in the layer index, still
  holds at the last layer, each coordinate advances by its own step in
  every remaining layer.  That fires after three layers on every serving
  batch measured: all 3,125 ``plain`` batches of 16 sequences (perfbench
  seed 4), and 300 random batches of each of 1, 2, 3, 4, 5, 8, 16 and 32
  sequences on ``sparse-fpga`` for bert-base on MRPC and SQuAD and
  bert-large on SQuAD, except 20 two- and three-sequence MRPC batches that
  took four layers and one that walked all twelve.
* :func:`_walk_jobs` takes every other job list (barriers, finite buffers,
  replicated stages, the non-pipelined mode, repeated sequences inside a
  layer): the reference loop itself, job-major, with no events.

Every completion cycle equals the reference's (integer arithmetic
throughout); ``tests/scheduling/test_fast_pipeline.py`` pins both solvers
against the reference and the extrapolation against a full layer walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.accelerator import Accelerator

__all__ = ["FastSchedule", "simulate_fast", "simulate_fast_layered"]


@dataclass
class FastSchedule:
    """Schedule summary: everything the hot path reads, no events.

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


def _walk_jobs(
    rows: list[tuple[int, ...]],
    seq: list[int],
    names: list[str],
    replication: list[int],
    pipelined: bool,
    buffer_slots: int | None,
    barriers: set[int],
) -> FastSchedule:
    """Job-major walk of the reference recurrence, without events.

    ``rows[j]`` / ``seq[j]`` are job ``j``'s stage latency row and sequence.
    A job is ready for the entry stage once its sequence's previous job has
    left the last stage and, at a barrier, once every earlier job has.  At
    stage ``s`` it then waits for each gate ``(back, at)``: the job ``back``
    positions earlier must have left stage ``at``.  The gates are the job
    ``R`` earlier at ``s`` (replica chains ``j mod R``), with finite buffers
    the job ``buffer_slots`` earlier at ``s + 1`` (the pipeline entry points
    accept only ``None`` or at least one slot), and in the non-pipelined
    mode the previous job at the last stage.
    """
    last = len(names) - 1
    gates = [[(r, s)] for s, r in enumerate(replication)]
    if buffer_slots is not None:
        for s in range(last):
            gates[s].append((buffer_slots, s + 1))
    if not pipelined:
        gates[0].append((1, last))
    comp: list[list[int]] = []  # comp[j][s]: cycle job j leaves stage s
    done: dict[int, int] = {}  # sequence -> its latest job's completion
    makespan = 0
    for j, row in enumerate(rows):
        t = done.get(seq[j], 0)
        if j in barriers and makespan > t:
            t = makespan
        ends = []
        for s, lat in enumerate(row):
            for back, at in gates[s]:
                if back <= j and comp[j - back][at] > t:
                    t = comp[j - back][at]
            t += lat
            ends.append(t)
        comp.append(ends)
        done[seq[j]] = t
        if t > makespan:
            makespan = t

    num_jobs = len(rows)
    labels: list[str] = []
    busy: dict[str, int] = {}
    first: dict[str, int] = {}
    last_end: dict[str, int] = {}
    # Labels in the reference timeline's order of first appearance: job c
    # opens chain c of every stage with more than c replicas, and a chain's
    # completions only grow, so its last job holds its last end.
    for c in range(min(num_jobs, max(replication))):
        for s, (name, r) in enumerate(zip(names, replication)):
            if c < r:
                label = name if r == 1 else f"{name}[{c}]"
                labels.append(label)
                first[label] = comp[c][s] - rows[c][s]
                last_end[label] = comp[num_jobs - 1 - (num_jobs - 1 - c) % r][s]
                busy[label] = sum(row[s] for row in rows[c::r])
    return FastSchedule(
        num_jobs=num_jobs,
        num_stages=len(names),
        makespan=makespan,
        entry_admit_cycles=max(ends[0] for ends in comp[-replication[0]:]),
        sequence_completion=dict(sorted(done.items())),
        stage_label_order=labels,
        stage_busy=busy,
        stage_first_start=first,
        stage_last_end=last_end,
    )


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
    """Slot-major solver for unbuffered, unreplicated layer-periodic workloads.

    ``rows[i]`` is slot ``i``'s stage latency row.  Each slot carries its
    completion through every stage against the per-stage tails (the
    previous job's completion there).  Slot ``i`` is
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


def _stage_shape(accelerator: "Accelerator") -> tuple[list[str], list[int]]:
    """Stage names and replication factors, as the reference reads them."""
    names = [stage.name for stage in accelerator.stages]
    replication = [max(getattr(stage, "replication", 1), 1) for stage in accelerator.stages]
    return names, replication


def simulate_fast(
    accelerator: "Accelerator",
    billed: Sequence[int],
    seq: Sequence[int],
    pipelined: bool = True,
    buffer_slots: int | None = None,
    barriers: set[int] | None = None,
) -> FastSchedule:
    """Summary of the reference recurrence over a job list.

    Job ``j`` bills ``billed[j]`` tokens for sequence ``seq[j]``; the
    parameters mean what they mean for the reference simulator.
    """
    if not billed:
        raise ValueError("simulate_fast needs at least one job")
    names, replication = _stage_shape(accelerator)
    rows = [accelerator.stage_latency_row(int(length)) for length in billed]
    seq = [int(sid) for sid in seq]
    return _walk_jobs(rows, seq, names, replication, pipelined, buffer_slots, barriers or set())


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
    every layer repeats the same pattern.  Pipelined, unbuffered,
    unreplicated layers with unique sequences go to the slot-major solver
    (see the module docstring); every other pattern is tiled and walked.
    """
    billed = [int(v) for v in slot_billed]
    seq = [int(v) for v in slot_sequences]
    if not billed:
        raise ValueError("simulate_fast_layered needs at least one slot")
    names, replication = _stage_shape(accelerator)
    rows = [accelerator.stage_latency_row(length) for length in billed]
    if (
        pipelined
        and buffer_slots is None
        and all(r == 1 for r in replication)
        and len(set(seq)) == len(seq)
    ):
        return _layered_small(rows, seq, num_layers, names)
    return _walk_jobs(
        rows * num_layers, seq * num_layers, names, replication, pipelined, buffer_slots, set()
    )
