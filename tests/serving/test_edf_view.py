"""The EDF batchers' persistent view against a sort on every call.

:class:`DeadlineBatcher` and :class:`PriorityDeadlineBatcher` keep their
queue's EDF tiers between calls and work out every queue edit by comparing
the queue with what they last saw.  This state machine drives each of them
side by side with an oracle -- a copy of the formation code that regrouped
and re-sorted the queue on every call -- through arrivals, requeues at the
head, removals from outside, formations, timer queries and re-binds.  After
every step the two must agree on the batch, the queue (contents and order),
the shed list, the preemption count, the timer and the exact sequence of
``batch_latency_seconds`` calls the fleet saw.
"""

from __future__ import annotations

from operator import is_

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.serving import DeadlineBatcher, PriorityDeadlineBatcher, Request
from repro.serving.policies import _TIME_EPS


class _SortingDeadline(DeadlineBatcher):
    """``DeadlineBatcher`` formation as a sort of the whole queue per call."""

    def _sorting_shed_late(self, queue, now):
        if self.shed_late and self._fleet:
            late = self._late.late_requests(queue, now)
            if late:
                dropped = {r.request_id for r in late}
                queue[:] = [r for r in queue if r.request_id not in dropped]
                self._shed.extend(late)

    def next_action_time(self, queue, now):
        if not queue:
            return None
        ordered = sorted(queue, key=self._edf_key)
        latest = self._latest_start(ordered[: self.batch_size])
        oldest = min(r.arrival_time for r in queue)
        action = min(latest, oldest + self.timeout_s)
        return max(action, now)

    def form_batch(self, queue, now, draining):
        self._sorting_shed_late(queue, now)
        if not queue:
            return None
        ordered = sorted(queue, key=self._edf_key)
        candidate = ordered[: self.batch_size]
        timed_out = now + _TIME_EPS >= min(r.arrival_time for r in queue) + self.timeout_s
        pressured = now + _TIME_EPS >= self._latest_start(candidate)
        if len(candidate) >= self.batch_size or draining or pressured or timed_out:
            taken = {r.request_id for r in candidate}
            queue[:] = [r for r in queue if r.request_id not in taken]
            return candidate
        return None


class _SortingPriority(PriorityDeadlineBatcher):
    """``PriorityDeadlineBatcher`` formation, regrouping the queue per call."""

    _sorting_shed_late = _SortingDeadline._sorting_shed_late

    def _sorting_tiers(self, queue):
        grouped = {}
        for request in queue:
            grouped.setdefault(self._priority(request), []).append(request)
        return [
            sorted(grouped[prio], key=self._edf_key)
            for prio in sorted(grouped, reverse=True)
        ]

    def _sorting_due(self, tier, candidate, now, draining):
        timed_out = now + _TIME_EPS >= min(r.arrival_time for r in tier) + self.timeout_s
        pressured = now + _TIME_EPS >= self._latest_start(candidate)
        return len(candidate) >= self.batch_size or draining or pressured or timed_out

    def next_action_time(self, queue, now):
        if not queue:
            return None
        action = min(r.arrival_time for r in queue) + self.timeout_s
        for tier in self._sorting_tiers(queue):
            action = min(action, self._latest_start(tier[: self.batch_size]))
        return max(action, now)

    def form_batch(self, queue, now, draining):
        self._sorting_shed_late(queue, now)
        if not queue:
            return None
        tiers = self._sorting_tiers(queue)
        chosen = None
        for rank, tier in enumerate(tiers):
            candidate = tier[: self.batch_size]
            if not self._sorting_due(tier, candidate, now, draining):
                continue
            service = self._estimate(tuple(r.length for r in candidate))
            for higher in tiers[:rank]:
                higher_candidate = higher[: self.batch_size]
                if now + service > self._latest_start(higher_candidate) + _TIME_EPS:
                    chosen = higher_candidate
                    self.num_preemptions += 1
                    break
            if chosen is None:
                chosen = candidate
            break
        if chosen is None:
            return None
        taken = {r.request_id for r in chosen}
        queue[:] = [r for r in queue if r.request_id not in taken]
        return chosen


class _LoggingDevice:
    """A fake device whose latency grows with the padded batch; logs each query."""

    def __init__(self, log, index, per_token, free_at):
        self.log = log
        self.index = index
        self.per_token = per_token
        self.free_at = free_at

    def batch_latency_seconds(self, lengths):
        self.log.append((self.index, tuple(lengths)))
        return 2e-4 + self.per_token * max(lengths) * len(lengths)

    def next_start(self, now):
        return max(now, self.free_at)


#: (per-token seconds, busy-until instant) per fake device.
_DEVICES = ((1e-5, 0.0), (4e-6, 0.004))

#: Registered tiers, an unregistered name (priority 0) and untagged traffic.
_CLASSES = ("interactive", "batch", "best-effort", "unknown-tier", None)


class EDFViewMachine(RuleBasedStateMachine):
    @initialize(
        tiered=st.booleans(),
        batch_size=st.integers(1, 4),
        timeout_s=st.sampled_from([0.003, 0.02, 0.1]),
        margin_s=st.sampled_from([0.0, 0.001]),
        shed_late=st.booleans(),
        fleet_size=st.integers(0, len(_DEVICES)),
        timer_every_step=st.booleans(),
    )
    def start(
        self, tiered, batch_size, timeout_s, margin_s, shed_late, fleet_size, timer_every_step
    ):
        view_cls, oracle_cls = (
            (PriorityDeadlineBatcher, _SortingPriority)
            if tiered
            else (DeadlineBatcher, _SortingDeadline)
        )
        knobs = dict(
            batch_size=batch_size, timeout_s=timeout_s, margin_s=margin_s, shed_late=shed_late
        )
        self.view, self.oracle = view_cls(**knobs), oracle_cls(**knobs)
        self.fleet_size = fleet_size
        #: Ask for the timer after every step, as the engines do after every
        #: event; that keeps every memo warm, so a stale one shows at once.
        #: Without it, formation meets cold memos and computes them lazily.
        self.timer_every_step = timer_every_step
        self.view_log, self.oracle_log = [], []
        self.view_queue, self.oracle_queue = [], []
        #: Requests out of the queue (formed or removed), free to requeue.
        self.outside: list[Request] = []
        self.now = 0.0
        self.next_id = 0
        self.rebind()

    def _fleet(self, log):
        return [
            _LoggingDevice(log, index, per_token, free_at)
            for index, (per_token, free_at) in enumerate(_DEVICES[: self.fleet_size])
        ]

    def _both(self, edit):
        edit(self.view_queue)
        edit(self.oracle_queue)

    @rule()
    def rebind(self):
        self.view.bind_fleet(self._fleet(self.view_log))
        self.oracle.bind_fleet(self._fleet(self.oracle_log))

    @rule(
        arrivals=st.lists(
            st.tuples(
                st.sampled_from(_CLASSES),
                st.sampled_from([8, 16, 40, 128]),
                st.sampled_from([0.0, 0.001, 0.004, 0.02]),
                st.sampled_from([None, None, 0.0, 0.001, 0.002, 0.01, 0.05]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def arrive(self, arrivals):
        fresh = []
        for request_class, length, age, slack in arrivals:
            arrival = max(0.0, self.now - age)
            deadline = None if slack is None else arrival + slack
            fresh.append(Request(self.next_id, length, arrival, deadline, request_class))
            self.next_id += 1
        self._both(lambda queue: queue.extend(fresh))

    @rule(data=st.data())
    def requeue(self, data):
        if not self.outside:
            return
        picks = data.draw(st.sets(st.sampled_from(range(len(self.outside))), min_size=1))
        batch = [self.outside[i] for i in sorted(picks)]
        self.outside = [r for i, r in enumerate(self.outside) if i not in picks]

        def prepend(queue):
            queue[:0] = batch

        self._both(prepend)

    @rule(data=st.data())
    def remove_from_outside(self, data):
        if not self.view_queue:
            return
        picks = data.draw(st.sets(st.sampled_from(range(len(self.view_queue))), min_size=1))
        self.outside.extend(self.view_queue[i] for i in sorted(picks))

        def remove(queue):
            queue[:] = [r for i, r in enumerate(queue) if i not in picks]

        self._both(remove)

    @rule(
        advance=st.sampled_from([0.0, 0.0005, 0.002, 0.01]),
        draining=st.sampled_from([False, False, False, True]),
    )
    def form_batch(self, advance, draining):
        self.now += advance
        batch = self.view.form_batch(self.view_queue, self.now, draining)
        expected = self.oracle.form_batch(self.oracle_queue, self.now, draining)
        assert batch == expected
        assert self.view.take_shed() == self.oracle.take_shed()
        if batch:
            self.outside.extend(batch)

    @rule(advance=st.sampled_from([0.0, 0.001]))
    def next_action_time(self, advance):
        self.now += advance
        self._same_timer()

    def _same_timer(self):
        timer = self.view.next_action_time(self.view_queue, self.now)
        assert timer == self.oracle.next_action_time(self.oracle_queue, self.now)

    @invariant()
    def agree(self):
        if self.timer_every_step:
            self._same_timer()
        assert len(self.view_queue) == len(self.oracle_queue)
        assert all(map(is_, self.view_queue, self.oracle_queue))
        assert getattr(self.view, "num_preemptions", 0) == getattr(
            self.oracle, "num_preemptions", 0
        )
        assert self.view_log == self.oracle_log


EDFViewMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEDFView = EDFViewMachine.TestCase


def test_an_older_arrival_appended_moves_the_timeout():
    """The engines append arrivals in arrival order, but a request stamped
    earlier than everything queued must still pull the timeout timer in."""
    policy = DeadlineBatcher(batch_size=4, timeout_s=0.01)
    queue = [Request(0, 8, 0.005)]
    assert policy.next_action_time(queue, 0.005) == 0.005 + 0.01
    queue.append(Request(1, 8, 0.001))
    assert policy.next_action_time(queue, 0.005) == 0.001 + 0.01
