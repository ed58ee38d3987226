"""Equivalence tests: the fast engine vs the event-building reference oracle.

The fast path must reproduce the reference simulator *cycle-for-cycle* for
every input the simulator accepts: random length batches, arbitrary job
lists with repeated sequences inside a layer, replicated stages,
micro-batch barriers, finite inter-stage buffers, the non-pipelined (drain)
mode, and every batch scheduler.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.accelerator import build_sparse_accelerator
from repro.scheduling.baselines import (
    MicroBatchScheduler,
    PaddedScheduler,
    SequentialScheduler,
)
from repro.scheduling import fast_pipeline
from repro.scheduling.length_aware import (
    LengthAwareScheduler,
    build_layer_ordered_jobs,
    sort_batch_by_length,
)
from repro.scheduling.pipeline import (
    LazyTimeline,
    PipelineJob,
    ScheduleResult,
    pipeline_engine,
    simulate_coarse_pipeline,
    simulate_coarse_pipeline_reference,
)
from repro.transformer.configs import ModelConfig

_MODEL = ModelConfig(name="fastsim-3L", num_layers=3, hidden_dim=768, num_heads=12)
_DEEP_MODEL = ModelConfig(name="fastsim-12L", num_layers=12, hidden_dim=768, num_heads=12)


@pytest.fixture(scope="module")
def accelerator():
    return build_sparse_accelerator(_MODEL, top_k=30, avg_seq=96, max_seq=160)


@pytest.fixture(scope="module")
def replicated_accelerator():
    return build_sparse_accelerator(_MODEL, top_k=30, avg_seq=96, max_seq=160, replication=2)


def _jobs(lengths, num_layers=_MODEL.num_layers, billed=None):
    order = sort_batch_by_length(lengths)
    return build_layer_ordered_jobs(list(lengths), order, num_layers, billed_lengths=billed)


def _assert_equivalent(accelerator, jobs, **kwargs):
    reference = simulate_coarse_pipeline_reference(accelerator, jobs, **kwargs)
    fast = simulate_coarse_pipeline(accelerator, jobs, engine="fast", **kwargs)
    assert fast.makespan == reference.makespan
    assert fast.average_utilization() == reference.average_utilization()
    assert fast.total_bubble_cycles() == reference.total_bubble_cycles()
    assert len(fast) == len(reference)
    # Materializing the lazy timeline must reproduce the exact event list.
    assert fast.events == reference.events


class TestVectorizedEquivalence:
    @given(
        lengths=st.lists(st.integers(16, 160), min_size=1, max_size=7),
        num_layers=st.integers(1, 5),
        replicated=st.booleans(),
        pipelined=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_batches_match_reference_cycle_for_cycle(
        self, lengths, num_layers, replicated, pipelined
    ):
        accelerator = build_sparse_accelerator(
            _MODEL, top_k=30, avg_seq=96, max_seq=160, replication=2 if replicated else 1
        )
        jobs = _jobs(lengths, num_layers=num_layers)
        _assert_equivalent(
            accelerator, jobs, pipelined=pipelined, buffer_slots=None
        )

    @given(
        lengths=st.lists(st.integers(16, 160), min_size=2, max_size=6),
        barrier_seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_barriers_match_reference(self, lengths, barrier_seed):
        accelerator = build_sparse_accelerator(_MODEL, top_k=30, avg_seq=96, max_seq=160)
        jobs = _jobs(lengths)
        barriers = {1 + barrier_seed % (len(jobs) - 1)} if len(jobs) > 1 else set()
        _assert_equivalent(
            accelerator, jobs, pipelined=True, buffer_slots=None, barriers=barriers
        )

    def test_micro_batch_scheduler_matches_reference(self, replicated_accelerator):
        lengths = [150, 120, 90, 60, 45, 33, 100]
        for scheduler in (
            MicroBatchScheduler(micro_batch_size=2),
            MicroBatchScheduler(micro_batch_size=3),
        ):
            fast = scheduler.schedule(replicated_accelerator, lengths)
            ref = simulate_coarse_pipeline_reference(
                replicated_accelerator,
                _jobs_for(scheduler, replicated_accelerator, lengths),
                pipelined=True,
                buffer_slots=None,
                barriers=_barriers_for(scheduler, lengths),
            )
            assert fast.makespan_cycles == ref.makespan

    @pytest.mark.parametrize("device", ["accelerator", "replicated_accelerator"])
    def test_every_scheduler_matches_reference_engine(self, device, request, monkeypatch):
        # The unreplicated design runs the pipelined layered schedulers
        # through the slot-major solver; the replicated one through the
        # job-major walk.
        replicated_accelerator = request.getfixturevalue(device)
        lengths = [150, 120, 90, 60, 33, 45, 100]
        schedulers = (
            LengthAwareScheduler(),
            LengthAwareScheduler(sort_descending=False),
            MicroBatchScheduler(),
            SequentialScheduler(),
            SequentialScheduler(padded=True),
            PaddedScheduler(),
            PaddedScheduler(pad_to=200),
        )
        for scheduler in schedulers:
            fast = scheduler.schedule(replicated_accelerator, lengths)
            monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "reference")
            ref = scheduler.schedule(replicated_accelerator, lengths)
            monkeypatch.delenv("REPRO_PIPELINE_ENGINE")
            assert fast.makespan_cycles == ref.makespan_cycles, scheduler.name
            assert fast.average_utilization == ref.average_utilization, scheduler.name
            assert (
                fast.sequence_completion_cycles() == ref.sequence_completion_cycles()
            ), scheduler.name
            assert fast.entry_admit_cycles() == ref.entry_admit_cycles(), scheduler.name
            assert fast.timeline.events == ref.timeline.events, scheduler.name

    def test_deep_model_exercises_steady_state_extrapolation(self):
        accelerator = build_sparse_accelerator(_DEEP_MODEL, top_k=30, avg_seq=96, max_seq=160)
        jobs = _jobs([140, 100, 82, 78, 72], num_layers=_DEEP_MODEL.num_layers)
        _assert_equivalent(accelerator, jobs, pipelined=True, buffer_slots=None)


@functools.cache
def _replicated_accelerator(replication):
    return build_sparse_accelerator(
        _MODEL, top_k=30, avg_seq=96, max_seq=160, replication=replication
    )


@st.composite
def _job_lists(draw):
    """Random issue orders: sequences repeat inside a layer, each job bills its own length."""
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 160), st.integers(0, 8)),
            min_size=1,
            max_size=24,
        )
    )
    layers: dict[int, int] = {}
    jobs = []
    for sequence_id, length, pad in picks:
        layer = layers.get(sequence_id, 0)
        jobs.append(PipelineJob(sequence_id, layer, length, length + pad))
        layers[sequence_id] = layer + 1
    return jobs


def _as_result(accelerator, timeline):
    return ScheduleResult(
        scheduler="jobs",
        accelerator_name=accelerator.name,
        timeline=timeline,
        lengths=[],
        billed_lengths=[],
        num_layers=1,
        clock_hz=accelerator.clock_hz,
    )


class TestJobWalk:
    """The job-major walk vs the oracle on arbitrary job lists."""

    @given(
        jobs=_job_lists(),
        barriers=st.sets(st.integers(0, 23)),
        replication=st.integers(1, 3),
        buffer_slots=st.none() | st.integers(1, 3),
        pipelined=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_job_lists_match_reference(
        self, jobs, barriers, replication, buffer_slots, pipelined
    ):
        accelerator = _replicated_accelerator(replication)
        kwargs = dict(pipelined=pipelined, buffer_slots=buffer_slots, barriers=barriers)
        fast = simulate_coarse_pipeline(accelerator, jobs, engine="fast", **kwargs)
        ref = simulate_coarse_pipeline_reference(accelerator, jobs, **kwargs)
        assert isinstance(fast, LazyTimeline)
        assert fast.makespan == ref.makespan
        assert fast.average_utilization() == ref.average_utilization()
        assert fast.total_bubble_cycles() == ref.total_bubble_cycles()
        fast_result = _as_result(accelerator, fast)
        ref_result = _as_result(accelerator, ref)
        assert (
            fast_result.sequence_completion_cycles() == ref_result.sequence_completion_cycles()
        )
        assert fast_result.entry_admit_cycles() == ref_result.entry_admit_cycles()
        summary = fast.fast_schedule
        occupancy = ref.stage_occupancy()
        assert summary.stage_label_order == ref.stage_names()
        assert summary.stage_busy == {k: o.busy_cycles for k, o in occupancy.items()}
        assert summary.stage_first_start == {k: o.first_start for k, o in occupancy.items()}
        assert summary.stage_last_end == {k: o.last_end for k, o in occupancy.items()}
        assert fast.events == ref.events


@functools.cache
def _layered_accelerator(num_layers):
    model = ModelConfig(
        name=f"fastsim-{num_layers}L", num_layers=num_layers, hidden_dim=768, num_heads=12
    )
    return build_sparse_accelerator(model, top_k=30, avg_seq=96, max_seq=160)


def _assert_schedules_match(scheduler, accelerator, lengths, monkeypatch):
    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "fast")
    fast = scheduler.schedule(accelerator, lengths)
    monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "reference")
    ref = scheduler.schedule(accelerator, lengths)
    monkeypatch.delenv("REPRO_PIPELINE_ENGINE")
    assert isinstance(fast.timeline, LazyTimeline)
    assert not isinstance(ref.timeline, LazyTimeline)
    assert fast.makespan_cycles == ref.makespan_cycles
    assert fast.sequence_completion_cycles() == ref.sequence_completion_cycles()
    assert fast.entry_admit_cycles() == ref.entry_admit_cycles()
    assert fast.average_utilization == ref.average_utilization
    assert fast.timeline.events == ref.timeline.events


class TestScalarLayeredPath:
    """The slot-major solver (unreplicated, unbuffered batches) vs the oracle.

    Batches of any size take the slot-major path, which extrapolates the
    remaining layers once each coordinate's per-layer step repeats.
    """

    @given(
        lengths=st.lists(st.integers(1, 160), min_size=1, max_size=40),
        num_layers=st.integers(1, 12),
        descending=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_length_aware_matches_reference(self, lengths, num_layers, descending):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_schedules_match(
                LengthAwareScheduler(sort_descending=descending),
                _layered_accelerator(num_layers),
                lengths,
                monkeypatch,
            )

    @given(
        lengths=st.lists(st.integers(1, 160), min_size=1, max_size=40),
        num_layers=st.integers(1, 12),
        extra=st.none() | st.integers(0, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_padded_matches_reference(self, lengths, num_layers, extra):
        pad_to = None if extra is None else max(lengths) + extra
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_schedules_match(
                PaddedScheduler(pad_to=pad_to),
                _layered_accelerator(num_layers),
                lengths,
                monkeypatch,
            )

    def test_small_unreplicated_batches_take_the_scalar_path(self, monkeypatch):
        calls = []
        solver = fast_pipeline._layered_small

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return solver(*args, **kwargs)

        monkeypatch.setattr(fast_pipeline, "_layered_small", spy)
        accelerator = _layered_accelerator(12)
        sizes = (1, 3, 16, 32, 33, 64, 256)
        for size in sizes:
            _assert_schedules_match(
                LengthAwareScheduler(), accelerator, list(range(20, 20 + size)), monkeypatch
            )
        assert calls == list(sizes)


def _full_layer_walk(rows, num_layers):
    """Every layer of the slot-major recurrence, with no extrapolation."""
    num_stages = len(rows[0])
    done = [0] * len(rows)
    tails = [0] * num_stages
    for _ in range(num_layers):
        for i, row in enumerate(rows):
            t = done[i]
            for s in range(num_stages):
                t = max(t, tails[s]) + row[s]
                tails[s] = t
            done[i] = t
    return done, tails


@st.composite
def _stage_rows(draw):
    """1-8 slots of 1-4 stages with small latencies, so ties and late flips occur."""
    num_stages = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(1, 8)] * num_stages)
    return draw(st.lists(row, min_size=1, max_size=8))


class TestSteadyStateExtrapolation:
    """The scalar solver's per-coordinate steady-state test vs a full walk."""

    @given(rows=_stage_rows(), num_layers=st.integers(1, 200))
    # A lead that shrinks every layer and changes sides before the last one.
    @example(rows=[(2, 4, 2), (4, 2, 4)], num_layers=10)
    # A step whose side changed between the two compared layers.
    @example(rows=[(2, 2), (2, 2), (1, 2)], num_layers=34)
    @settings(max_examples=300, deadline=None)
    def test_matches_full_layer_walk(self, rows, num_layers):
        names = [f"stage{s}" for s in range(len(rows[0]))]
        seq = list(range(len(rows)))
        schedule = fast_pipeline._layered_small(rows, seq, num_layers, names)
        done, tails = _full_layer_walk(rows, num_layers)
        assert [schedule.sequence_completion[i] for i in seq] == done
        assert list(schedule.stage_last_end.values()) == tails
        assert schedule.makespan == tails[-1]
        assert schedule.entry_admit_cycles == tails[0]

    def test_serving_batch_extrapolates_after_three_layers(self, monkeypatch):
        # A 16-sequence batch of the length-aware scheduler on a 12-layer
        # design: the test holds at layer index 2, leaving 9 layers.
        calls = []
        holds = fast_pipeline._holds_to_horizon

        def spy(margins, prev_margins, remaining):
            result = holds(margins, prev_margins, remaining)
            calls.append((remaining, result))
            return result

        monkeypatch.setattr(fast_pipeline, "_holds_to_horizon", spy)
        lengths = [140, 100, 96, 82, 78, 72, 64, 60, 57, 51, 48, 44, 40, 33, 29, 21]
        _assert_schedules_match(
            LengthAwareScheduler(), _layered_accelerator(12), lengths, monkeypatch
        )
        assert calls[-1] == (9, True)


def _jobs_for(scheduler, accelerator, lengths):
    """Rebuild the micro-batch scheduler's job list for the oracle run."""
    order = sort_batch_by_length(lengths)
    billed = list(lengths)
    for start in range(0, len(order), scheduler.micro_batch_size):
        group = order[start : start + scheduler.micro_batch_size]
        group_max = max(lengths[i] for i in group)
        for i in group:
            billed[i] = group_max
    return build_layer_ordered_jobs(
        lengths, order, accelerator.model_config.num_layers, billed_lengths=billed
    )


def _barriers_for(scheduler, lengths):
    order = sort_batch_by_length(lengths)
    micro_batch_of = {
        idx: position // scheduler.micro_batch_size
        for position, idx in enumerate(order)
    }
    jobs = build_layer_ordered_jobs(lengths, order, _MODEL.num_layers)
    return {
        j
        for j, job in enumerate(jobs)
        if j > 0
        and micro_batch_of[job.sequence_id] != micro_batch_of[jobs[j - 1].sequence_id]
    }


class TestEngineSelection:
    def test_env_selects_reference_engine(self, accelerator, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "reference")
        assert pipeline_engine() == "reference"
        timeline = simulate_coarse_pipeline(accelerator, _jobs([100, 80]), buffer_slots=None)
        assert not isinstance(timeline, LazyTimeline)

    def test_default_engine_is_fast(self, accelerator, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE_ENGINE", raising=False)
        assert pipeline_engine() == "fast"
        timeline = simulate_coarse_pipeline(accelerator, _jobs([100, 80]), buffer_slots=None)
        assert isinstance(timeline, LazyTimeline)

    def test_invalid_engine_rejected(self, accelerator, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="REPRO_PIPELINE_ENGINE"):
            simulate_coarse_pipeline(accelerator, _jobs([100]))
        monkeypatch.delenv("REPRO_PIPELINE_ENGINE")
        with pytest.raises(ValueError, match="engine"):
            simulate_coarse_pipeline(accelerator, _jobs([100]), engine="warp-drive")

    @pytest.mark.parametrize("buffer_slots", [1, 2, 3])
    def test_finite_buffers_run_on_the_fast_engine(self, accelerator, buffer_slots):
        jobs = _jobs([150, 120, 90, 60, 140, 30])
        fast = simulate_coarse_pipeline(
            accelerator, jobs, engine="fast", buffer_slots=buffer_slots
        )
        assert isinstance(fast, LazyTimeline)
        _assert_equivalent(accelerator, jobs, pipelined=True, buffer_slots=buffer_slots)

    def test_non_pipelined_supported_for_any_buffers(self, accelerator):
        jobs = _jobs([150, 120, 90])
        _assert_equivalent(accelerator, jobs, pipelined=False, buffer_slots=2)


class TestBatchValidation:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([], "cannot schedule an empty batch"),
            ([-3, 5], "sequence lengths must be >= 1"),
            ([40, 0], "sequence lengths must be >= 1"),
        ],
    )
    def test_every_scheduler_rejects_the_same_bad_batches(
        self, accelerator, monkeypatch, engine, lengths, message
    ):
        monkeypatch.setenv("REPRO_PIPELINE_ENGINE", engine)
        schedulers = (
            LengthAwareScheduler(),
            PaddedScheduler(),
            MicroBatchScheduler(),
            SequentialScheduler(),
        )
        for scheduler in schedulers:
            with pytest.raises(ValueError, match=message):
                scheduler.schedule(accelerator, lengths)

    @pytest.mark.parametrize("buffer_slots", [-1, 0])
    def test_both_engines_reject_the_same_buffer_slots(
        self, accelerator, monkeypatch, buffer_slots
    ):
        """Below one slot is an error on either engine, not an IndexError or
        a silent "unbuffered" (layered schedulers and the barrier path alike)."""
        messages = set()
        for engine in ("fast", "reference"):
            monkeypatch.setenv("REPRO_PIPELINE_ENGINE", engine)
            for scheduler in (
                LengthAwareScheduler(buffer_slots=buffer_slots),
                PaddedScheduler(buffer_slots=buffer_slots),
                MicroBatchScheduler(buffer_slots=buffer_slots),
            ):
                with pytest.raises(ValueError) as raised:
                    scheduler.schedule(accelerator, [40, 30, 20])
                messages.add(str(raised.value))
        assert messages == {f"buffer_slots must be None or an int >= 1, got {buffer_slots}"}


class TestLazyTimeline:
    def test_hot_queries_answer_without_materializing(self, accelerator):
        timeline = simulate_coarse_pipeline(
            accelerator, _jobs([150, 120, 90]), engine="fast", buffer_slots=None
        )
        assert isinstance(timeline, LazyTimeline)
        assert timeline.makespan > 0
        assert 0.0 < timeline.average_utilization() <= 1.0
        assert timeline.total_bubble_cycles() >= 0
        assert timeline._cache is None  # no events were built
        assert len(timeline.events) == len(timeline)  # materializes on demand
        assert timeline._cache is not None
