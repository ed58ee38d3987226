"""Tests for batch-formation policies and multi-accelerator routing."""

from __future__ import annotations

import pytest

from repro.serving.policies import (
    FixedSizeBatcher,
    LengthBucketedBatcher,
    TimeoutBatcher,
    get_batch_policy,
)
from repro.serving.request import Request
from repro.serving.routing import (
    LeastLoadedRouter,
    LengthShardedRouter,
    RoundRobinRouter,
    get_router,
)
from repro.serving.slo import CostModelRouter, DeadlineBatcher
from repro.transformer.configs import MRPC


def _queue(*specs: tuple[int, float]) -> list[Request]:
    return [
        Request(request_id=i, length=length, arrival_time=arrival)
        for i, (length, arrival) in enumerate(specs)
    ]


class TestFixedSizeBatcher:
    def test_waits_for_a_full_batch(self):
        policy = FixedSizeBatcher(batch_size=4)
        queue = _queue((30, 0.0), (40, 0.1), (50, 0.2))
        assert policy.form_batch(queue, now=1.0, draining=False) is None
        assert len(queue) == 3

    def test_dispatches_full_batches_fifo(self):
        policy = FixedSizeBatcher(batch_size=2)
        queue = _queue((30, 0.0), (40, 0.1), (50, 0.2))
        batch = policy.form_batch(queue, now=0.2, draining=False)
        assert [r.request_id for r in batch] == [0, 1]
        assert [r.request_id for r in queue] == [2]

    def test_flushes_partial_batch_when_draining(self):
        policy = FixedSizeBatcher(batch_size=4)
        queue = _queue((30, 0.0),)
        batch = policy.form_batch(queue, now=0.0, draining=True)
        assert [r.request_id for r in batch] == [0]
        assert queue == []

    def test_has_no_timer(self):
        assert FixedSizeBatcher(4).next_action_time(_queue((30, 0.0)), now=0.0) is None


class TestTimeoutBatcher:
    def test_dispatches_on_full_batch_before_timeout(self):
        policy = TimeoutBatcher(batch_size=2, timeout_s=1.0)
        queue = _queue((30, 0.0), (40, 0.0), (50, 0.0))
        batch = policy.form_batch(queue, now=0.0, draining=False)
        assert len(batch) == 2

    def test_partial_batch_released_after_timeout(self):
        policy = TimeoutBatcher(batch_size=16, timeout_s=0.5)
        queue = _queue((30, 0.0),)
        assert policy.form_batch(queue, now=0.1, draining=False) is None
        assert policy.next_action_time(queue, now=0.1) == pytest.approx(0.5)
        batch = policy.form_batch(queue, now=0.5, draining=False)
        assert [r.request_id for r in batch] == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutBatcher(batch_size=0)
        with pytest.raises(ValueError):
            TimeoutBatcher(batch_size=4, timeout_s=-1.0)


class TestLengthBucketedBatcher:
    def test_full_bucket_dispatches_similar_lengths(self):
        policy = LengthBucketedBatcher(batch_size=2, timeout_s=10.0, num_buckets=2)
        policy.prepare(MRPC)  # buckets split at the MRPC length midpoint
        queue = _queue((20, 0.0), (80, 0.0), (22, 0.1), (82, 0.1))
        batch = policy.form_batch(queue, now=0.1, draining=False)
        assert sorted(r.length for r in batch) == [20, 22]
        assert sorted(r.length for r in queue) == [80, 82]

    def test_timeout_releases_oldest_bucket(self):
        policy = LengthBucketedBatcher(batch_size=4, timeout_s=0.2, num_buckets=2)
        policy.prepare(MRPC)
        queue = _queue((20, 0.0), (80, 0.05))
        assert policy.form_batch(queue, now=0.1, draining=False) is None
        batch = policy.form_batch(queue, now=0.25, draining=False)
        assert [r.length for r in batch] == [20]
        assert [r.length for r in queue] == [80]

    def test_draining_flushes_every_bucket(self):
        policy = LengthBucketedBatcher(batch_size=4, timeout_s=10.0, num_buckets=2)
        policy.prepare(MRPC)
        queue = _queue((20, 0.0), (80, 0.0))
        seen = []
        while queue:
            seen.append(policy.form_batch(queue, now=0.0, draining=True))
        assert [len(b) for b in seen] == [1, 1]

    def test_explicit_edges_override_prepare(self):
        policy = LengthBucketedBatcher(batch_size=2, bucket_edges=(50,))
        policy.prepare(MRPC)
        queue = _queue((10, 0.0), (60, 0.0), (12, 0.0))
        batch = policy.form_batch(queue, now=0.0, draining=False)
        assert sorted(r.length for r in batch) == [10, 12]


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        batch = _queue((30, 0.0))
        picks = [router.select([0.0, 0.0, 0.0], batch, now=0.0) for _ in range(5)]
        assert picks == [0, 1, 2, 0, 1]

    def test_least_loaded_picks_smallest_backlog(self):
        router = LeastLoadedRouter()
        batch = _queue((30, 0.0))
        assert router.select([5.0, 1.5, 3.0], batch, now=1.0) == 1
        # Ties break on index for determinism.
        assert router.select([0.5, 0.5], batch, now=1.0) == 0

    def test_length_sharded_routes_by_band(self):
        router = LengthShardedRouter()
        router.prepare(2, MRPC)  # bands split at the MRPC length midpoint
        short = _queue((MRPC.min_length, 0.0))
        long = _queue((MRPC.max_length, 0.0))
        assert router.select([0.0, 0.0], short, now=0.0) == 0
        assert router.select([0.0, 0.0], long, now=0.0) == 1


class TestRoutersOverDevices:
    """Routers read per-device state through the unified Device protocol."""

    class _StubDevice:
        def __init__(self, free_at: float):
            self._free_at = free_at

        def next_start(self, now: float) -> float:
            return max(now, self._free_at)

    def test_backlog_seconds_handles_devices_and_floats(self):
        from repro.serving.routing import Router

        assert Router.backlog_seconds(5.0, now=1.0) == pytest.approx(4.0)
        assert Router.backlog_seconds(0.5, now=1.0) == 0.0
        device = self._StubDevice(free_at=3.0)
        assert Router.backlog_seconds(device, now=1.0) == pytest.approx(2.0)
        assert Router.backlog_seconds(device, now=4.0) == 0.0

    def test_least_loaded_picks_earliest_admitting_device(self):
        router = LeastLoadedRouter()
        fleet = [self._StubDevice(5.0), self._StubDevice(1.5), self._StubDevice(3.0)]
        assert router.select(fleet, _queue((30, 0.0)), now=1.0) == 1


class TestFactories:
    def test_batch_policy_by_name(self):
        assert isinstance(get_batch_policy("fixed", batch_size=8), FixedSizeBatcher)
        assert isinstance(get_batch_policy("timeout", batch_size=8, timeout_s=0.1), TimeoutBatcher)
        assert isinstance(get_batch_policy("bucketed", batch_size=8), LengthBucketedBatcher)
        with pytest.raises(KeyError):
            get_batch_policy("magic")

    def test_router_by_name(self):
        assert isinstance(get_router("round-robin"), RoundRobinRouter)
        assert isinstance(get_router("least-loaded"), LeastLoadedRouter)
        assert isinstance(get_router("length-sharded"), LengthShardedRouter)
        with pytest.raises(KeyError):
            get_router("random")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: TimeoutBatcher(timeout_s=v), "timeout_s must be >= 0"),
        (lambda v: LengthBucketedBatcher(timeout_s=v), "timeout_s must be >= 0"),
        (lambda v: DeadlineBatcher(timeout_s=v), "timeout_s must be >= 0"),
        (lambda v: DeadlineBatcher(margin_s=v), "margin_s must be >= 0"),
        (lambda v: CostModelRouter(blacklist_s=v), "blacklist_s must be >= 0"),
    ],
    ids=["timeout", "bucketed-timeout", "deadline-timeout", "deadline-margin", "blacklist"],
)
def test_time_knobs_must_be_finite_and_non_negative(build, message, value):
    # A NaN or infinite timeout never fires: the run would wait forever.
    with pytest.raises(ValueError, match=message):
        build(value)
