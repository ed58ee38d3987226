"""The decode loop's per-device wake times against a scan of every device.

:class:`_SimCore` keeps each device's next decode event -- its step end
while a step runs, else its first joiner's ready time -- and its ``pump``,
``next_action_time`` and ``busy`` read those instead of visiting every
device and every joiner.  This state machine drives it side by side with an
oracle -- a copy of the loop that scanned every device on every pump and
every idle device's joiners on every timer query -- through arrivals and
pumps at event instants that tie across identical devices.  After every
pump the two must agree on the records, each device's step, token and KV
accounting, the next action time and whether decode work is pending.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.devices import BatchExecution, Device
from repro.serving import FixedSizeBatcher, Request, ServingOptions, TimeoutBatcher
from repro.serving.core import _EPS, open_session
from repro.serving.engine import _SimCore

#: Every cost is a multiple of this dyadic tick, so sums stay exact and
#: identical devices reach identical instants.
_TICK = 1 / 1024


class _GridDevice(Device):
    """Prefill and decode costs on the tick grid, one KV byte per token."""

    name = "grid"

    def execute(self, lengths):
        # Ready times within a batch are not in batch order.
        offsets = [_TICK * (1 + length % 3) for length in lengths]
        latency = max(offsets)
        return BatchExecution(
            device=self.name,
            lengths=list(lengths),
            latency_seconds=latency,
            completion_offsets=offsets,
            admit_seconds=latency,
        )

    def kv_bytes_per_token(self):
        return 1

    def kv_read_bandwidth(self):
        return 1.0

    def decode_step_latency_seconds(self, context_lengths):
        return _TICK * (1 + sum(context_lengths) % 3)


class _ScanEveryDevice(_SimCore):
    """The decode loop that visited every device and joiner on every call."""

    def _start_step(self, index, now):
        state = self.states[index]
        device = self.fleet[index]
        if state.step_members:
            return
        if state.joiners and (self.iteration_level or not state.running):
            ready = [j for j in state.joiners if j.ready_time <= now + _EPS]
            if ready:
                ready.sort(key=lambda j: (j.ready_time, j.request.request_id))
                slots = (
                    len(ready)
                    if device.max_batch_size is None
                    else max(device.max_batch_size - len(state.running), 0)
                )
                joining = ready[:slots]
                if joining:
                    joined = {id(j) for j in joining}
                    state.joiners = [j for j in state.joiners if id(j) not in joined]
                    state.running.extend(joining)
        if not state.running:
            return
        contexts = [member.context_length for member in state.running]
        latency = device.decode_step_latency_seconds(contexts)
        start = device.next_start(now)
        device.book_interval(start, start + latency)
        state.step_members = list(state.running)
        state.wake = start + latency
        state.num_steps += 1

    def pump(self, now, draining=False):
        for index, state in enumerate(self.states):
            if state.release_heap:
                self._drain_kv_releases(index, now)
            if state.step_members and state.wake <= now + _EPS:
                self._finish_step(index, state.wake)
        self._kv_blocked = False
        planned = super(_SimCore, self).pump(now, draining)
        for index in range(len(self.fleet)):
            self._start_step(index, now)
        return planned

    def next_action_time(self, now):
        timer = self.batch_policy.next_action_time(self.queue, now)
        if timer is None or (self._kv_blocked and timer <= now + _EPS):
            timer = math.inf
        for state in self.states:
            if state.step_members:
                timer = min(timer, state.wake)
            elif state.joiners:
                timer = min(timer, min(j.ready_time for j in state.joiners))
            if state.release_heap:
                timer = min(timer, state.release_heap[0][0])
        return None if math.isinf(timer) else timer

    def busy(self):
        return any(s.running or s.joiners or s.step_members for s in self.states)


class DecodeEventsMachine(RuleBasedStateMachine):
    @initialize(
        num_devices=st.integers(1, 6),
        kv_cache_bytes=st.sampled_from([None, 13, 20, 40]),
        max_batch_size=st.sampled_from([None, 1, 2, 4]),
        iteration_level=st.booleans(),
        batch_size=st.integers(1, 6),
        timeout_ticks=st.sampled_from([None, 0, 2]),
    )
    def build(
        self, num_devices, kv_cache_bytes, max_batch_size, iteration_level, batch_size,
        timeout_ticks,
    ):
        def core(cls):
            def policy():
                if timeout_ticks is None:
                    return FixedSizeBatcher(batch_size=batch_size)
                return TimeoutBatcher(batch_size=batch_size, timeout_s=timeout_ticks * _TICK)

            fleet = [
                _GridDevice(max_batch_size=max_batch_size, kv_cache_bytes=kv_cache_bytes)
                for _ in range(num_devices)
            ]
            session = open_session(
                fleet,
                "mrpc",
                lambda dataset: ([], "explicit", None),
                ServingOptions(batch_policy=policy(), iteration_level=iteration_level),
                output_lengths="explicit",
            )
            return cls(session)

        self.system, self.oracle = core(_SimCore), core(_ScanEveryDevice)
        self.now = 0.0
        self.next_id = 0

    @rule(
        requests=st.lists(
            st.tuples(st.integers(1, 8), st.sampled_from([1, 1, 2, 3, 5])),
            min_size=1,
            max_size=6,
        )
    )
    def arrive(self, requests):
        for length, output_len in requests:
            request = Request(self.next_id, length, self.now, output_len=output_len)
            self.next_id += 1
            self.system.offer(request, self.now)
            self.oracle.offer(request, self.now)

    @rule(
        advance=st.sampled_from(["event", "event", 0, 1, 3]),
        draining=st.sampled_from([False, False, True]),
    )
    def pump(self, advance, draining):
        if advance == "event":
            timer = self.system.next_action_time(self.now)
            self.now = self.now + _TICK if timer is None else max(self.now, timer)
        else:
            self.now += advance * _TICK
        assert self.system.pump(self.now, draining) == self.oracle.pump(self.now, draining)

    @invariant()
    def agree(self):
        system, oracle = self.system, self.oracle
        assert system.report.records == oracle.report.records
        assert system.report.num_kv_stalls == oracle.report.num_kv_stalls
        for mine, theirs in zip(system.states, oracle.states):
            assert mine.num_steps == theirs.num_steps
            assert mine.decode_tokens == theirs.decode_tokens
            assert mine.kv_peak_bytes == theirs.kv_peak_bytes
            assert mine.reserved_bytes == theirs.reserved_bytes
        assert system.next_action_time(self.now) == oracle.next_action_time(self.now)
        assert system.busy() == oracle.busy()


DecodeEventsMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDecodeEvents = DecodeEventsMachine.TestCase
