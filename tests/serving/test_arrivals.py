"""Tests for the arrival processes feeding the online serving engine."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.length_distributions import sample_lengths
from repro.decode.output_lengths import FixedOutputLength, GeometricOutputLength
from repro.registry import REGISTRY
from repro.serving.arrivals import (
    BurstyArrivals,
    ClosedLoopArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceArrivals,
    get_arrival_process,
)
from repro.serving.classes import ClassMixArrivals, RequestClass, get_request_class
from repro.serving.request import Request
from repro.serving.slo import SLOSpec
from repro.transformer.configs import MRPC, RTE


class TestPoissonArrivals:
    def test_deterministic_given_seed(self):
        a = PoissonArrivals(rate_qps=100).generate(MRPC, 64, seed=7)
        b = PoissonArrivals(rate_qps=100).generate(MRPC, 64, seed=7)
        assert a == b

    def test_different_seed_changes_stream(self):
        a = PoissonArrivals(rate_qps=100).generate(MRPC, 64, seed=7)
        b = PoissonArrivals(rate_qps=100).generate(MRPC, 64, seed=8)
        assert a != b

    def test_times_sorted_and_rate_roughly_matches(self):
        requests = PoissonArrivals(rate_qps=200).generate(MRPC, 2000, seed=1)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        measured = len(requests) / times[-1]
        assert measured == pytest.approx(200, rel=0.15)

    def test_lengths_follow_dataset_sample(self):
        requests = PoissonArrivals(rate_qps=100).generate(MRPC, 32, seed=3)
        expected = [int(x) for x in sample_lengths(MRPC, 32, seed=3)]
        assert [r.length for r in requests] == expected

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_qps=0.0)


class TestBurstyArrivals:
    def test_mean_rate_is_preserved(self):
        # Short dwell times so the measurement averages over many quiet/burst
        # cycles (with few cycles the empirical rate has huge variance).
        process = BurstyArrivals(rate_qps=300, burst_ratio=6.0, mean_dwell_s=0.02)
        requests = process.generate(RTE, 3000, seed=5)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        measured = len(requests) / times[-1]
        assert measured == pytest.approx(300, rel=0.2)

    def test_burstier_traffic_has_higher_gap_variance(self):
        poisson = PoissonArrivals(rate_qps=200).generate(RTE, 2000, seed=11)
        bursty = BurstyArrivals(rate_qps=200, burst_ratio=10.0, burst_fraction=0.1).generate(
            RTE, 2000, seed=11
        )
        def cv(ts):
            return float(np.std(np.diff(ts)) / np.mean(np.diff(ts)))

        assert cv([r.arrival_time for r in bursty]) > cv([r.arrival_time for r in poisson])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(rate_qps=100, burst_ratio=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(rate_qps=100, burst_fraction=1.0)


class TestTraceArrivals:
    def test_replays_time_length_pairs(self):
        trace = ((0.0, 40), (0.5, 80), (0.25, 60))
        requests = TraceArrivals(trace=trace).generate(MRPC)
        assert [r.arrival_time for r in requests] == [0.0, 0.25, 0.5]
        assert [r.length for r in requests] == [40, 60, 80]

    def test_times_only_trace_samples_lengths(self):
        requests = TraceArrivals(trace=(0.0, 0.1, 0.2)).generate(MRPC, seed=3)
        assert [r.arrival_time for r in requests] == [0.0, 0.1, 0.2]
        assert [r.length for r in requests] == [
            int(x) for x in sample_lengths(MRPC, 3, seed=3)
        ]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceArrivals(trace=())


class TestDiurnalArrivals:
    def test_deterministic_given_seed(self):
        process = DiurnalArrivals(rate_qps=120, amplitude=0.7, period_s=4.0)
        assert process.generate(MRPC, 128, seed=9) == process.generate(MRPC, 128, seed=9)
        assert process.generate(MRPC, 128, seed=9) != process.generate(MRPC, 128, seed=10)

    def test_times_sorted_and_mean_rate_roughly_matches(self):
        process = DiurnalArrivals(rate_qps=150, amplitude=0.6, period_s=2.0)
        requests = process.generate(MRPC, 3000, seed=2)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        measured = len(requests) / times[-1]
        assert measured == pytest.approx(150, rel=0.2)

    def test_peak_half_cycle_is_denser_than_trough(self):
        # With phase=0 the sinusoid peaks in the first half of each period and
        # troughs in the second, so the first half-cycle must carry more
        # arrivals than the second.
        process = DiurnalArrivals(rate_qps=100, amplitude=0.8, period_s=4.0)
        times = [r.arrival_time for r in process.generate(MRPC, 2000, seed=4)]
        in_window = [t % 4.0 for t in times if t <= 12.0]  # three full cycles
        peak = sum(1 for t in in_window if t < 2.0)
        trough = len(in_window) - peak
        assert peak > 1.5 * trough

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(rate_qps=100, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(rate_qps=100, period_s=0.0)

    def test_registered(self):
        process = get_arrival_process("diurnal", rate_qps=10)
        assert isinstance(process, DiurnalArrivals)


class TestFlashCrowdArrivals:
    def test_deterministic_given_seed(self):
        process = FlashCrowdArrivals(rate_qps=50, spike_ratio=4.0)
        assert process.generate(MRPC, 256, seed=1) == process.generate(MRPC, 256, seed=1)

    def test_spike_window_is_denser(self):
        process = FlashCrowdArrivals(
            rate_qps=40, spike_ratio=6.0, spike_start_s=2.0, spike_duration_s=2.0
        )
        times = [r.arrival_time for r in process.generate(MRPC, 800, seed=11)]
        assert times == sorted(times)
        spike = sum(1 for t in times if 2.0 <= t < 4.0)
        before = sum(1 for t in times if 0.0 <= t < 2.0)
        # 6x rate over an equal-length window: far denser than the baseline.
        assert spike > 3 * before

    def test_baseline_rate_outside_the_spike(self):
        process = FlashCrowdArrivals(
            rate_qps=80, spike_ratio=10.0, spike_start_s=100.0, spike_duration_s=1.0
        )
        requests = process.generate(MRPC, 1500, seed=3)
        times = [r.arrival_time for r in requests if r.arrival_time < 10.0]
        measured = len(times) / 10.0
        assert measured == pytest.approx(80, rel=0.2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdArrivals(rate_qps=50, spike_ratio=0.5)
        with pytest.raises(ValueError):
            FlashCrowdArrivals(rate_qps=50, spike_duration_s=-1.0)

    def test_registered_with_alias(self):
        assert isinstance(
            get_arrival_process("flash-crowd", rate_qps=10), FlashCrowdArrivals
        )
        assert isinstance(get_arrival_process("flash", rate_qps=10), FlashCrowdArrivals)


class TestClosedLoopArrivals:
    def test_everything_arrives_at_time_zero(self):
        requests = ClosedLoopArrivals().generate(MRPC, 32, seed=2)
        assert all(r.arrival_time == 0.0 for r in requests)

    def test_sorted_by_decreasing_length(self):
        lengths = [r.length for r in ClosedLoopArrivals().generate(MRPC, 32, seed=2)]
        assert lengths == sorted(lengths, reverse=True)

    def test_unsorted_keeps_sample_order(self):
        lengths = [
            r.length for r in ClosedLoopArrivals(sort_by_length=False).generate(MRPC, 32, seed=2)
        ]
        assert lengths == [int(x) for x in sample_lengths(MRPC, 32, seed=2)]


class TestFactory:
    def test_builds_by_name(self):
        assert isinstance(get_arrival_process("poisson", rate_qps=10), PoissonArrivals)
        assert isinstance(get_arrival_process("bursty", rate_qps=10), BurstyArrivals)
        assert isinstance(get_arrival_process("closed"), ClosedLoopArrivals)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_arrival_process("fractal", rate_qps=10)

    def test_rate_required_for_open_loop(self):
        with pytest.raises(ValueError):
            get_arrival_process("poisson")


# ----------------------------------------------------------------------
# generate() against the stream built request by request
# ----------------------------------------------------------------------


#: A tier whose SLO sets all three budgets, so class deadlines depend on
#: the prompt and on the sampled output length.
DECODE_TIER = RequestClass(
    name="test-decode-tier",
    priority=1,
    slo=SLOSpec(base_s=0.1, per_token_s=1e-4, per_output_token_s=0.01),
)

#: Unsorted, with ties, so the replay order (time, then index) matters.
TIMES = tuple((i * 7 % 13) / 50 for i in range(40))
PROCESSES = {
    "poisson": PoissonArrivals(rate_qps=300),
    "bursty": BurstyArrivals(rate_qps=300, mean_dwell_s=0.02),
    "diurnal": DiurnalArrivals(rate_qps=300, period_s=0.1),
    "flash-crowd": FlashCrowdArrivals(rate_qps=300, spike_start_s=0.02, spike_duration_s=0.05),
    "closed-loop": ClosedLoopArrivals(),
    "trace": TraceArrivals(trace=TIMES),
    "trace-lengths": TraceArrivals(trace=tuple((t, 20 + i) for i, t in enumerate(TIMES))),
}


def untagged_stream(process, num_requests: int, seed: int) -> list[Request]:
    """The stream as each process built it, one ``Request`` at a time."""
    if isinstance(process, TraceArrivals):
        paired = isinstance(process.trace[0], tuple)
        times = [float(entry[0] if paired else entry) for entry in process.trace]
        count = min(num_requests, len(times))
        if paired:
            lengths = [int(entry[1]) for entry in process.trace]
        else:
            lengths = [int(x) for x in sample_lengths(MRPC, count, seed=seed)]
        order = sorted(range(count), key=lambda i: (times[i], i))
        return [Request(rank, lengths[i], max(times[i], 0.0)) for rank, i in enumerate(order)]
    lengths = [int(x) for x in sample_lengths(MRPC, num_requests, seed=seed)]
    if isinstance(process, ClosedLoopArrivals):
        return [Request(i, n, 0.0) for i, n in enumerate(sorted(lengths, reverse=True))]
    rng = np.random.default_rng([seed, 0x5E12])
    times = np.maximum.accumulate(np.maximum(process.arrival_times(num_requests, rng), 0.0))
    return [Request(i, lengths[i], float(times[i])) for i in range(num_requests)]


def reference_stream(process, mix, num_requests, seed, slo, output_lengths) -> list[Request]:
    """Untagged stream, then class tags, then output lengths, then deadlines."""
    stream = untagged_stream(process, num_requests, seed)
    if mix is not None:
        rng = np.random.default_rng([seed, 0xC1A5])
        shares = np.asarray([share for _, share in mix])
        picks = rng.choice(len(mix), size=len(stream), p=shares / shares.sum())
        stream = [replace(r, request_class=mix[k][0]) for r, k in zip(stream, picks.tolist())]
    if output_lengths is not None:
        outputs = output_lengths.sample(len(stream), seed).tolist()
        stream = [replace(r, output_len=n) for r, n in zip(stream, outputs)]
    stamped = []
    for request in stream:
        spec = None
        if request.request_class is not None:
            spec = get_request_class(request.request_class).slo
        spec = spec or slo
        if spec is not None:
            request = replace(request, deadline=spec.deadline_for(request))
        stamped.append(request)
    return stamped


def fields(request: Request) -> tuple:
    """Every field, with the floats as exact hex strings."""
    deadline = request.deadline
    return (
        request.request_id,
        request.length,
        request.arrival_time.hex(),
        None if deadline is None else deadline.hex(),
        request.request_class,
        request.output_len,
    )


budgets = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
slo_specs = st.none() | st.builds(
    SLOSpec, base_s=budgets, per_token_s=budgets.map(lambda x: x / 100), per_output_token_s=budgets
)
mixes = st.none() | st.lists(
    st.tuples(
        st.sampled_from(["interactive", "batch", "best-effort", DECODE_TIER.name]),
        st.floats(min_value=0.1, max_value=1.0),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda entry: entry[0],
).map(tuple)
output_specs = (
    st.none()
    | st.builds(FixedOutputLength, output_len=st.integers(1, 64))
    | st.builds(GeometricOutputLength, mean_output_len=st.floats(1.0, 64.0))
)


@pytest.fixture(scope="module")
def decode_tier():
    """``DECODE_TIER`` registered for this module's tests only."""
    with pytest.MonkeyPatch.context() as patch:
        for table, value in (("_factories", DECODE_TIER), ("_canonical", DECODE_TIER.name)):
            patch.setitem(getattr(REGISTRY, table)["request-class"], DECODE_TIER.name, value)
        yield DECODE_TIER


class TestColumnarGenerate:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        process=st.sampled_from(sorted(PROCESSES)),
        mix=mixes,
        num_requests=st.integers(1, 60),
        seed=st.integers(0, 2**16),
        slo=slo_specs,
        output_lengths=output_specs,
    )
    def test_generate_equals_the_request_by_request_stream(
        self, decode_tier, process, mix, num_requests, seed, slo, output_lengths
    ):
        base = PROCESSES[process]
        arrivals = base if mix is None else ClassMixArrivals(base=base, mix=mix)
        got = arrivals.generate(
            MRPC, num_requests, seed=seed, slo=slo, output_lengths=output_lengths
        )
        expected = reference_stream(base, mix, num_requests, seed, slo, output_lengths)
        assert [fields(r) for r in got] == [fields(r) for r in expected]

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_builds_each_request_once(self, monkeypatch, process):
        built = []
        original = Request.__post_init__

        def spy(request):
            built.append(request.request_id)
            original(request)

        monkeypatch.setattr(Request, "__post_init__", spy)
        arrivals = ClassMixArrivals(
            base=PROCESSES[process], mix="interactive:0.5,batch:0.3,best-effort:0.2"
        )
        requests = arrivals.generate(
            MRPC,
            32,
            seed=3,
            slo=SLOSpec(base_s=0.1, per_token_s=1e-4, per_output_token_s=0.01),
            output_lengths=GeometricOutputLength(),
        )
        assert sorted(built) == [r.request_id for r in requests]
