"""Request objects flowing through the online serving simulator.

A :class:`Request` is one inference call: a sequence of a given length that
arrives at a given wall-clock time, optionally carrying an absolute
**deadline** (its service-level objective) and an ``output_len`` -- how many
tokens it generates (one for an encoder request).  Once the engine has
dispatched and finished it, the request is wrapped in a
:class:`RequestRecord` that pins down every timestamp of its life cycle --
arrival, batch formation (dispatch), execution start on the device, and
completion -- so that queueing delay, service time, end-to-end latency, and
deadline attainment can all be reported separately; a decode run's
:class:`DecodeRequestRecord` adds the first token's time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DecodeRequestRecord", "Request", "RequestRecord"]

#: Tolerance when comparing completion times against deadlines.
_DEADLINE_EPS = 1e-9


# Slotted: a stream holds one per offered request, and stamping deadlines
# builds each one twice.
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

    def restamped(self, deadline: float | None, request_class: str | None) -> "Request":
        """This request with its deadline and class replaced.

        One constructor call instead of :func:`dataclasses.replace` (whose
        field introspection dominated stamping large streams);
        ``__post_init__`` validation still runs.
        """
        return Request(
            self.request_id,
            self.length,
            self.arrival_time,
            deadline,
            request_class,
            self.output_len,
        )

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


@dataclass(frozen=True)
class RequestRecord:
    """A completed request with its full timing breakdown (seconds)."""

    request: Request
    dispatch_time: float
    start_time: float
    completion_time: float
    device_index: int
    batch_id: int

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


@dataclass(frozen=True)
class DecodeRequestRecord(RequestRecord):
    """A completed request of a decode run, with its first token's time.

    ``completion_time`` is when the *last* token was produced;
    ``first_token_time`` is when prefill finished (= the first token) and
    defaults to ``completion_time``: a one-token request's only token.
    """

    first_token_time: float | None = None

    def __post_init__(self) -> None:
        if self.first_token_time is None:
            object.__setattr__(self, "first_token_time", self.completion_time)

    @property
    def num_output_tokens(self) -> int:
        """Tokens this request generated."""
        return self.request.output_len

    @property
    def ttft(self) -> float:
        """Time to first token: arrival to the end of prefill."""
        return self.first_token_time - self.request.arrival_time

    @property
    def inter_token_latency(self) -> float | None:
        """Mean seconds per generated token after the first (None if none)."""
        extra = self.request.output_len - 1
        if extra <= 0:
            return None
        return (self.completion_time - self.first_token_time) / extra
