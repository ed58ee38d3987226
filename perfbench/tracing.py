"""Layer spans recorded from outside the program.

The traced run wraps the public functions of each layer -- class methods on
the layer's base class and every subclass that overrides them, or the module
attribute a caller looks up when it imported a function by name -- with a
recorder that appends one span per call: layer, start, end and the span that
was open when the call began (its parent).  Spans stay in memory and are
written out when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so time is attributed once: a cost-model query made from
inside batch formation counts as cost-model time, not formation time.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager


def _subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Calls per layer whose result was not ``None`` (formed batches).
        self.non_none: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _open(self, layer_id: int) -> int:
        index = len(self.end)
        stack = self._stack
        self.layer.append(layer_id)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        index = self._open(self._layer_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count_results: bool = False):
        """``fn`` recording one span per call.

        A call made while a span of the same layer is innermost (a composite
        fault timeline asking its children, a class mix asking its base
        stream) is part of that span and records none of its own, so a
        layer's call count is the number of calls into the layer.
        """
        layer_id = self._layer_id(name)
        open_, close, stack, layer = self._open, self._close, self._stack, self.layer
        counts = self.non_none
        if count_results:
            counts.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = open_(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count_results and result is not None:
                counts[name] += 1
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count_results: bool = False) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced copy."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count_results))

    def patch_methods(self, base: type, attr: str, name: str, count_results: bool = False) -> None:
        """Trace ``attr`` on ``base`` and on every subclass that overrides it."""
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, count_results)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, self seconds and inclusive seconds."""
        import numpy as np

        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - covered
        width = len(self.layers)
        calls = np.bincount(layer, minlength=width)
        self_s = np.bincount(layer, weights=own, minlength=width)
        inclusive = np.bincount(layer, weights=duration, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "inclusive_s": float(inclusive[i]),
            }
            for i, name in enumerate(self.layers)
        }

    def save(self, path: str) -> None:
        """Write every span (layer name, start, end, parent index) to ``path``."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(recorder: SpanRecorder) -> None:
    """Patch the public entry points of every layer the benchmark reports."""
    import repro.decode.engine as decode_engine
    import repro.serving.engine as serving_engine
    from repro.devices import Device
    from repro.devices.schedule_cache import ScheduleCache
    from repro.faults import DeviceFaultTimeline
    from repro.scheduling.baselines import (
        MicroBatchScheduler,
        PaddedScheduler,
        SequentialScheduler,
    )
    from repro.scheduling.length_aware import LengthAwareScheduler
    from repro.serving import ArrivalProcess, Autoscaler, BatchPolicy, Router
    from repro.serving.core import DispatchCore

    recorder.patch_methods(ArrivalProcess, "generate", "arrivals")
    # The decode engine imported the stream builder by name.
    recorder.patch(decode_engine, "generate_decode_requests", "arrivals")
    recorder.patch(DispatchCore, "offer", "admission")
    recorder.patch_methods(BatchPolicy, "form_batch", "formation", count_results=True)
    recorder.patch_methods(BatchPolicy, "next_action_time", "formation.timer")
    recorder.patch_methods(Router, "select", "routing")
    recorder.patch_methods(Device, "batch_latency_seconds", "costmodel")
    recorder.patch_methods(Device, "execute", "execute")
    recorder.patch(ScheduleCache, "lookup", "cache")
    recorder.patch(ScheduleCache, "store", "cache.store")
    schedulers = (LengthAwareScheduler, PaddedScheduler, MicroBatchScheduler, SequentialScheduler)
    for scheduler in schedulers:
        recorder.patch(scheduler, "schedule", "cycle")
    recorder.patch(DispatchCore, "dispatch", "dispatch")
    recorder.patch(DispatchCore, "finalize", "finalize")
    queries = ("multiplier", "next_online", "first_crash_in", "crashes_before", "downtime_before")
    for query in queries:
        recorder.patch_methods(DeviceFaultTimeline, query, "faults")
    recorder.patch_methods(Autoscaler, "decide", "autoscaler")
    recorder.patch_methods(Device, "decode_step_latency_seconds", "decode")
    # End-of-run folding, looked up by name in both engines.
    for engine in (serving_engine, decode_engine):
        recorder.patch(engine, "collect_device_stats", "report.fold")
        recorder.patch(engine, "collect_class_stats", "report.fold")
