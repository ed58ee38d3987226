"""Autoscaling policies: decide how many devices should be online.

The serving engine can drive a *device pool* instead of a fixed fleet
(``simulate_online(..., autoscaler=...)``): at a fixed cadence it hands the
policy a :class:`ScaleObservation` summarizing the interval since the last
decision, and the policy answers with the number of devices it wants
*provisioned*.  The engine clamps the answer to ``[min_devices, pool size]``
and applies it with a **provisioning lag** -- a scale-up decision brings a
device online only ``provisioning_lag_s`` simulated seconds later, which is
what makes reactive scaling a real trade-off: by the time capacity arrives,
the spike that triggered it has partly passed.

Scale-downs take effect immediately for *routing* (no new batches land on a
deprovisioned device) but billing continues until the device's in-flight
work drains, mirroring how cloud instances bill through their drain period.

Two built-in policy families register under ``kind="autoscaler"``:

* ``queue-depth`` -- the classic reactive threshold: scale up when the
  central queue holds more than ``scale_up_depth`` waiting requests per
  provisioned device, scale down when it holds at most ``scale_down_depth``.
* ``predicted-attainment`` -- SLO-feedback scaling: scale up whenever the
  interval's observed deadline attainment falls below ``target``, scale
  down only when attainment sits at/above ``high_water`` with an empty
  queue.  This couples the scaling signal to the metric the planner
  optimizes instead of a proxy.

Third-party policies plug in with ``@register("autoscaler", "my-policy")``
and become reachable from the CLI (``--autoscaler my-policy``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..registry import REGISTRY, register
from .core import _EPS
from .request import _DEADLINE_EPS

__all__ = [
    "Autoscaler",
    "PredictedAttainmentAutoscaler",
    "QueueDepthAutoscaler",
    "ScaleObservation",
    "get_autoscaler",
]


@dataclass(frozen=True)
class ScaleObservation:
    """What an autoscaler sees at one decision instant.

    ``recent_*`` fields summarize the interval since the previous decision:
    ``recent_attainment`` is the deadline attainment of requests resolved in
    the window (completions by completion time, sheds by arrival time;
    ``None`` when no deadline-carrying request resolved), and
    ``recent_offered_qps`` is the window's arrival rate.  A decision at
    ``now`` counts what resolved in ``(start, now + _EPS]``, where ``start``
    is the previous decision's ``now`` (0.0 before the first) and ``_EPS``
    is the engine's 1e-12 s time tolerance, so a request resolved less than
    ``_EPS`` after ``now`` counts in this window and again in the next.
    ``queue_depth`` is the waiting-to-start population: the central
    formation queue plus requests already cut into batches but still stuck
    behind a device's backlog (the engine drains the former into the latter
    at every event, so the raw queue alone would understate load), that is,
    those whose start is after ``now + _EPS``.
    ``provisioned_devices`` counts active devices plus scale-ups still in
    their provisioning lag -- the quantity a decision should steer, since
    pending capacity is already paid for.
    """

    now: float
    queue_depth: int
    active_devices: int
    provisioned_devices: int
    min_devices: int
    max_devices: int
    recent_attainment: float | None
    recent_offered_qps: float


class Autoscaler:
    """Base class: map a :class:`ScaleObservation` to a desired pool size."""

    name: str = "autoscaler"

    def decide(self, observation: ScaleObservation) -> int:
        """Return the desired number of *provisioned* devices.

        The engine clamps the answer to ``[min_devices, max_devices]``, so
        policies may return their raw preference.
        """
        raise NotImplementedError


@register("autoscaler", "queue-depth")
@dataclass
class QueueDepthAutoscaler(Autoscaler):
    """Reactive threshold scaling on per-device queue depth.

    Config knobs: ``scale_up_depth`` (waiting requests per provisioned
    device above which one device is added) and ``scale_down_depth``
    (waiting requests per provisioned device at/below which one device is
    removed).  One device per decision in either direction keeps the policy
    stable under the decision cadence; the hysteresis band between the two
    thresholds prevents flapping.
    """

    scale_up_depth: float = 8.0
    scale_down_depth: float = 1.0
    name: str = "queue-depth"

    def __post_init__(self) -> None:
        if self.scale_up_depth <= 0:
            raise ValueError("scale_up_depth must be > 0")
        if self.scale_down_depth < 0:
            raise ValueError("scale_down_depth must be >= 0")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError("scale_down_depth must be < scale_up_depth")

    def decide(self, observation: ScaleObservation) -> int:
        provisioned = max(observation.provisioned_devices, 1)
        per_device = observation.queue_depth / provisioned
        if per_device > self.scale_up_depth:
            return observation.provisioned_devices + 1
        if per_device <= self.scale_down_depth:
            return observation.provisioned_devices - 1
        return observation.provisioned_devices


@register("autoscaler", "predicted-attainment")
@dataclass
class PredictedAttainmentAutoscaler(Autoscaler):
    """SLO-feedback scaling on the interval's observed deadline attainment.

    Config knobs: ``target`` (attainment fraction below which one device is
    added) and ``high_water`` (attainment fraction at/above which one device
    is removed, and only with an empty queue).  Intervals with no
    deadline-carrying traffic are treated as healthy, so an idle pool drains
    back toward ``min_devices``.  ``high_water`` defaults to the midpoint of
    ``[target, 1]`` to leave a hysteresis band.
    """

    target: float = 0.95
    high_water: float | None = None
    name: str = "predicted-attainment"

    def __post_init__(self) -> None:
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if self.high_water is None:
            self.high_water = (self.target + 1.0) / 2.0
        if not self.target <= self.high_water <= 1.0:
            raise ValueError("high_water must be in [target, 1]")

    def decide(self, observation: ScaleObservation) -> int:
        attainment = observation.recent_attainment
        if attainment is not None and attainment < self.target:
            return observation.provisioned_devices + 1
        healthy = attainment is None or attainment >= self.high_water
        if healthy and observation.queue_depth == 0:
            return observation.provisioned_devices - 1
        return observation.provisioned_devices


class _DecisionWindow:
    """The counts behind each :class:`ScaleObservation`, kept incrementally.

    During a run the ledger's rows and the report's ``shed_requests`` only
    grow, so a decision reads just the rows appended since the previous
    one.  Rows land at dispatch, so their start and completion times are
    not in append order: each time waits in a min-heap until a decision's
    horizon ``now + _EPS`` passes it.  A popped time after ``now`` is
    carried into the next window, which also counts it (see
    :class:`ScaleObservation` for the window bounds).
    """

    def __init__(self, ledger, shed_requests: list) -> None:
        #: The previous decision's ``now``: the window's exclusive lower bound.
        self.start = 0.0
        self._ledger = ledger
        self._shed_requests = shed_requests
        self._rows_read = 0
        self._shed_read = 0
        # Deadline-carrying completions split by outcome, deadline-carrying
        # sheds by arrival, and every row's start.
        self._on_time = _WindowedTimes()
        self._late = _WindowedTimes()
        self._shed = _WindowedTimes()
        self._starts: list[float] = []

    def advance(self, now: float) -> tuple[int, int, int, int]:
        """Close the window at ``now`` and open the next one there.

        Returns ``(served, on_time, shed, not_started)``: deadline-carrying
        completions in the window, how many of them met their deadline,
        deadline-carrying sheds in the window, and rows that start after
        ``now + _EPS``.  ``now`` must not decrease between calls.
        """
        push, starts = heapq.heappush, self._starts
        ledger = self._ledger
        read, rows = self._rows_read, len(ledger)
        batch_start = ledger.start
        for request, completion, batch in zip(
            ledger.requests[read:rows], ledger.completion[read:rows], ledger.batch_row[read:rows]
        ):
            push(starts, batch_start[batch])
            deadline = request.deadline
            if deadline is not None:
                on_time = completion <= deadline + _DEADLINE_EPS
                push((self._on_time if on_time else self._late).heap, completion)
        self._rows_read = rows
        shed_requests = self._shed_requests
        for request in shed_requests[self._shed_read :]:
            if request.deadline is not None:
                push(self._shed.heap, request.arrival_time)
        self._shed_read = len(shed_requests)

        on_time = self._on_time.count(self.start, now)
        late = self._late.count(self.start, now)
        shed = self._shed.count(self.start, now)
        horizon = now + _EPS
        while starts and starts[0] <= horizon:
            heapq.heappop(starts)
        self.start = now
        return on_time + late, on_time, shed, len(starts)


class _WindowedTimes:
    """A min-heap of times not yet inside a window, and the times carried
    over from the previous window (those after its ``now``)."""

    __slots__ = ("carried", "heap")

    def __init__(self) -> None:
        self.heap: list[float] = []
        self.carried: list[float] = []

    def count(self, start: float, now: float) -> int:
        """Pop the heap through ``now + _EPS``; count the times in
        ``(start, now + _EPS]``.

        Every carried time lies in this window.  The times after ``now``
        are carried on to the next one.
        """
        heap, due, horizon = self.heap, self.carried, now + _EPS
        while heap and heap[0] <= horizon:
            due.append(heapq.heappop(heap))
        self.carried = [t for t in due if t > now]
        return sum(1 for t in due if t > start)


def get_autoscaler(name: str, **kwargs) -> Autoscaler:
    """Build an autoscaler by registered name (``queue-depth``, ...).

    Thin convenience wrapper over ``repro.registry.create("autoscaler",
    name)``; third-party policies registered with
    ``@register("autoscaler", ...)`` are constructed the same way.
    """
    return REGISTRY.create("autoscaler", name, **kwargs)
