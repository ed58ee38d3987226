"""Request objects flowing through the online serving simulator.

A :class:`Request` is one inference call: a sequence of a given length that
arrives at a given wall-clock time, optionally carrying an absolute
**deadline** (its service-level objective) and an ``output_len`` -- how many
tokens it generates (one for an encoder request).  Once the engine has
dispatched and finished it, the request is wrapped in a
:class:`RequestRecord` that pins down every timestamp of its life cycle --
arrival, batch formation (dispatch), execution start on the device, and
completion, and a decode run's first token -- so that queueing delay,
service time, end-to-end latency, time to first token and deadline
attainment can all be reported separately.  A run keeps its completions as
columns in a :class:`CompletionLedger` and builds the records only when
asked for them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = ["CompletionLedger", "Request", "RequestRecord"]

#: Tolerance when comparing completion times against deadlines.
_DEADLINE_EPS = 1e-9


# Slotted, like the records: a run holds one of each per offered request.
@dataclass(frozen=True, slots=True)
class Request:
    """One inference request in the open-loop stream.

    ``deadline`` is the absolute wall-clock time (seconds, same axis as
    ``arrival_time``) by which the request should complete; ``None`` means
    the request carries no SLO.  Deadlines are usually assigned by an
    :class:`~repro.serving.slo.SLOSpec` (base + per-token slack), but a
    trace or an explicit request list may carry arbitrary deadlines, as
    long as each is at or after the arrival (zero slack is allowed).
    """

    request_id: int
    length: int
    arrival_time: float
    deadline: float | None = None
    #: Name of the :class:`~repro.serving.classes.RequestClass` this request
    #: belongs to (``None`` = untagged single-tenant traffic; the report then
    #: keeps its historical class-free shape).
    request_class: str | None = None
    #: Tokens the request generates; prefill produces the first.
    output_len: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("request length must be >= 1")
        if self.output_len < 1:
            raise ValueError("output_len must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.deadline is not None and self.deadline < self.arrival_time:
            raise ValueError("deadline must be at or after arrival_time")

    @property
    def total_tokens(self) -> int:
        """Prompt plus every generated token: the KV-cache reservation."""
        return self.length + self.output_len

    @property
    def slo_seconds(self) -> float | None:
        """The latency budget this request arrived with (deadline - arrival)."""
        if self.deadline is None:
            return None
        return self.deadline - self.arrival_time


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """A completed request with its full timing breakdown (seconds).

    ``completion_time`` is when the *last* token was produced;
    ``first_token_time`` is when prefill finished (the first token), kept
    only by a ledger that tracks first tokens (a decode run's).
    """

    request: Request
    dispatch_time: float
    start_time: float
    completion_time: float
    device_index: int
    batch_id: int
    first_token_time: float | None = None

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.completion_time - self.request.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting before the batch started executing."""
        return self.start_time - self.request.arrival_time

    @property
    def deadline(self) -> float | None:
        """The request's absolute deadline (None when it carried no SLO)."""
        return self.request.deadline

    @property
    def on_time(self) -> bool:
        """Whether the request completed by its deadline (vacuously true
        for requests without one)."""
        if self.request.deadline is None:
            return True
        return self.completion_time <= self.request.deadline + _DEADLINE_EPS

    @property
    def num_output_tokens(self) -> int:
        """Tokens this request generated."""
        return self.request.output_len

    @property
    def ttft(self) -> float | None:
        """Time to first token: arrival to the end of prefill.

        A one-token request's only token is its last, so its TTFT is its
        latency; a multi-token request whose first token was not kept
        reports ``None``.
        """
        if self.first_token_time is not None:
            return self.first_token_time - self.request.arrival_time
        return self.latency if self.request.output_len == 1 else None

    @property
    def inter_token_latency(self) -> float | None:
        """Mean seconds per generated token after the first (None if none,
        or if the first token was not kept)."""
        extra = self.request.output_len - 1
        if extra <= 0 or self.first_token_time is None:
            return None
        return (self.completion_time - self.first_token_time) / extra


def _request_column(attr: str, dtype):
    getter = attrgetter(attr)
    return lambda ledger: np.fromiter(map(getter, ledger.requests), dtype, len(ledger))


#: How each :meth:`CompletionLedger.column` is folded from the stored columns.
_COLUMNS = {
    "arrival": _request_column("arrival_time", np.float64),
    "request_id": _request_column("request_id", np.int64),
    "output_len": _request_column("output_len", np.int64),
    # None (no SLO) becomes NaN.
    "deadline": lambda ledger: np.array([r.deadline for r in ledger.requests], np.float64),
    "completion": lambda ledger: np.array(ledger.completion),
    # Without kept first tokens, a one-token row's first token is its
    # completion and a multi-token row's is unknown (NaN).
    "first_token": lambda ledger: (
        np.array(ledger.first_token)
        if ledger.first_token is not None
        else np.where(ledger.column("output_len") == 1, ledger.column("completion"), np.nan)
    ),
    "start": lambda ledger: np.array(ledger.start)[np.array(ledger.batch_row)],
    "latency": lambda ledger: ledger.column("completion") - ledger.column("arrival"),
    "queueing_delay": lambda ledger: ledger.column("start") - ledger.column("arrival"),
    "ttft": lambda ledger: ledger.column("first_token") - ledger.column("arrival"),
    "has_deadline": lambda ledger: ~np.isnan(ledger.column("deadline")),
    # RequestRecord.on_time, row by row: vacuously true without a deadline.
    "on_time": lambda ledger: ~ledger.column("has_deadline")
    | (ledger.column("completion") <= ledger.column("deadline") + _DEADLINE_EPS),
    "request_class": lambda ledger: [r.request_class for r in ledger.requests],
}


class CompletionLedger:
    """Every completed request of a run, one row each, kept as columns.

    A batch lands as column extends (:meth:`add_batch`, then :meth:`extend`):
    the requests, their completion times and each row's batch row, while the
    dispatch time, start, device and batch id are stored once per batch.  A
    decode run's ledger (``first_tokens=True``) also keeps each row's
    first-token time.  Rows stay in landing order until :meth:`sort` puts
    them in completion order, ties by request id.  ``version`` changes with
    every row landed and every sort, so :meth:`cached` folds are never stale
    on a ledger that is still growing.
    """

    def __init__(self, first_tokens: bool = False) -> None:
        self.requests: list[Request] = []
        self.completion = array("d")
        self.batch_row = array("q")
        self.first_token = array("d") if first_tokens else None
        self.dispatch = array("d")
        self.start = array("d")
        self.device = array("q")
        self.batch_id = array("q")
        self.version = 0
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.requests)

    def add_batch(self, dispatch: float, start: float, device: int, batch_id: int) -> int:
        """Store one batch's values; returns its batch row for :meth:`extend`."""
        self.dispatch.append(dispatch)
        self.start.append(start)
        self.device.append(device)
        self.batch_id.append(batch_id)
        return len(self.batch_id) - 1

    def extend(self, batch_row: int, requests: list, completions: list, first_tokens=None) -> None:
        """Land requests of one batch that complete at ``completions``.

        A decode run's ledger also keeps ``first_tokens`` (by default the
        completions: a one-token request's only token is its last).
        """
        if not requests:
            return
        self.requests.extend(requests)
        self.completion.extend(completions)
        self.batch_row.extend([batch_row] * len(requests))
        if self.first_token is not None:
            self.first_token.extend(completions if first_tokens is None else first_tokens)
        self.version += 1

    def cached(self, key, compute):
        """``compute()``, memoized until the next row lands or the next sort."""
        hit = self._memo.get(key)
        if hit is not None and hit[0] == self.version:
            return hit[1]
        value = compute()
        self._memo[key] = (self.version, value)
        return value

    def column(self, name: str):
        """One value per row, in row order (see ``_COLUMNS`` for the names)."""
        return self.cached(name, lambda: _COLUMNS[name](self))

    def sort(self) -> None:
        """Put the rows in completion order, ties by request id."""
        order = np.lexsort((self.column("request_id"), self.column("completion")))
        rows = order.tolist()
        self.requests = [self.requests[i] for i in rows]
        for name in ("completion", "batch_row", "first_token"):
            stored = getattr(self, name)
            if stored is not None:
                setattr(self, name, array(stored.typecode, np.array(stored)[order].tobytes()))
        self.version += 1

    def record(self, row: int) -> RequestRecord:
        """Row ``row`` as a record."""
        batch = self.batch_row[row]
        fields = (self.requests[row], self.dispatch[batch], self.start[batch])
        fields += (self.completion[row], self.device[batch], self.batch_id[batch])
        if self.first_token is not None:
            fields += (self.first_token[row],)
        return RequestRecord(*fields)

    def records(self) -> list[RequestRecord]:
        """Every row as a record, in row order; built once per ``version``."""
        return self.cached("records", lambda: [self.record(row) for row in range(len(self))])
