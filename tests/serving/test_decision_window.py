"""The autoscaler's incremental decision window against a rescan per decision.

Each autoscaler decision observes the deadline-carrying completions and
sheds in ``(previous now, now + _EPS]`` and the completions that have not
started by ``now + _EPS``.  ``_DecisionWindow`` keeps those counts from the
ledger rows appended since the previous decision; the oracle here is the
rescan of every record and shed request that the engine ran on each
decision before it, over records built independently of the ledger the
window reads.  Times sit on a grid of ``_EPS / 2`` around the decision
instants, so every window boundary is hit: at or before the previous
``now``, inside, exactly at ``now + _EPS`` and within ``_EPS`` after ``now``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.serving import Request
from repro.serving.autoscaler import _DecisionWindow
from repro.serving.core import _EPS
from repro.serving.request import CompletionLedger, RequestRecord

_STEP = _EPS / 2


def _rescan(records, shed_requests, window_start, now):
    """The per-decision rescan: ``(served, on_time, shed, not_started)``."""
    served = [
        r
        for r in records
        if r.deadline is not None and window_start < r.completion_time <= now + _EPS
    ]
    shed = [
        r
        for r in shed_requests
        if r.deadline is not None and window_start < r.arrival_time <= now + _EPS
    ]
    on_time = sum(1 for r in served if r.on_time)
    not_started = sum(1 for r in records if r.start_time > now + _EPS)
    return len(served), on_time, len(shed), not_started


def _record(request_id, start, completion, deadline):
    arrival = min(start, completion, completion if deadline is None else deadline)
    request = Request(request_id, 16, arrival, deadline)
    return RequestRecord(
        request=request,
        dispatch_time=request.arrival_time,
        start_time=start,
        completion_time=completion,
        device_index=0,
        batch_id=request_id,
    )


def _land(ledger, record):
    """Land ``record`` in ``ledger`` as a one-request batch."""
    row = ledger.add_batch(
        record.dispatch_time, record.start_time, record.device_index, record.batch_id
    )
    ledger.extend(row, [record.request], [record.completion_time])


#: Offsets from the current ``now`` in grid steps: mostly around the window
#: boundaries, sometimes far before or after them, or exactly ``now + _EPS``
#: (grid arithmetic need not land on that float).
_OFFSETS = st.integers(-6, 6) | st.integers(-400, 400) | st.just("horizon")


class DecisionWindowMachine(RuleBasedStateMachine):
    @initialize(base=st.sampled_from([0.0, 0.25, 1.0, 37.5]))
    def start(self, base):
        self.base = base
        self.ticks = 0
        self.records: list[RequestRecord] = []
        self.ledger = CompletionLedger()
        self.shed_requests: list[Request] = []
        self.window = _DecisionWindow(self.ledger, self.shed_requests)
        self.window_start = 0.0
        self.next_id = 0

    def _now(self):
        return self.base + self.ticks * _STEP

    def _at(self, offset):
        if offset == "horizon":
            return self._now() + _EPS
        return max(0.0, self.base + (self.ticks + offset) * _STEP)

    @rule(
        start=_OFFSETS,
        completion=_OFFSETS,
        deadline=st.none() | st.sampled_from(["on-time", "late", "at-completion"]),
    )
    def append_record(self, start, completion, deadline):
        completion_time = self._at(completion)
        deadline_time = {
            None: None,
            "on-time": completion_time + 3 * _STEP,
            "late": max(0.0, completion_time - 1e-6),
            "at-completion": completion_time,
        }[deadline]
        record = _record(self.next_id, self._at(start), completion_time, deadline_time)
        self.records.append(record)
        _land(self.ledger, record)
        self.next_id += 1

    @rule(arrival=_OFFSETS, deadline=st.booleans())
    def append_shed(self, arrival, deadline):
        arrival_time = self._at(arrival)
        self.shed_requests.append(
            Request(self.next_id, 16, arrival_time, arrival_time + 0.01 if deadline else None)
        )
        self.next_id += 1

    @rule(step=st.sampled_from([0, 0, 1, 2, 3, 4, 5, 40]))
    def decide(self, step):
        # Steps of 0 repeat an instant; steps of one grid point are shorter
        # than ``_EPS``, so a time after ``now`` can span three windows.
        self.ticks += step
        now = self._now()
        expected = _rescan(self.records, self.shed_requests, self.window_start, now)
        assert self.window.advance(now) == expected
        assert self.window.start == now
        assert self.ledger.records() == self.records
        self.window_start = now


DecisionWindowMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDecisionWindow = DecisionWindowMachine.TestCase


class _CountingList(list):
    """A list that counts the elements read out of it."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_each_record_is_read_once_across_decisions():
    """20k rows over 200 decisions: a rescan would read each row twice per
    decision; the window reads each one at most twice in total."""
    ledger, shed_requests = CompletionLedger(), _CountingList()
    requests = ledger.requests = _CountingList()
    plain_records: list[RequestRecord] = []
    window = _DecisionWindow(ledger, shed_requests)
    window_start = 0.0
    for decision in range(1, 201):
        now = decision * 0.01
        for i in range(100):
            request_id = len(plain_records)
            # Dispatched now, starting and completing out of append order.
            start = now + 0.0001 * ((request_id * 37) % 300)
            completion = start + 0.0001 * ((request_id * 11) % 500)
            deadline = None if request_id % 5 == 0 else completion + (0.01 if i % 3 else -0.01)
            record = _record(request_id, start, completion, deadline)
            _land(ledger, record)
            plain_records.append(record)
        counts = window.advance(now)
        if decision % 40 == 0:
            assert counts == _rescan(plain_records, [], window_start, now)
        window_start = now
    assert len(ledger) == 20_000
    assert requests.reads <= 2 * len(requests)
    assert shed_requests.reads == 0
