"""Decoder-workload requests and their completed records.

A :class:`DecodeRequest` is an autoregressive generation call: a prompt of
``length`` tokens (the encoder-style input) plus a sampled ``output_len``
(how many tokens the request will generate before finishing).  It subclasses
the serving :class:`~repro.serving.request.Request`, so the whole arrival /
deadline / batch-policy machinery applies unchanged -- an ``output_len`` of 1
*is* an encoder request: prefill produces the single output token and there
is nothing left to decode.

:class:`DecodeRequestRecord` extends the timing breakdown with the decode
phase's two headline metrics: **TTFT** (time to first token -- arrival to the
end of prefill) and **inter-token latency** (mean seconds per generated token
after the first).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serving.request import Request, RequestRecord

__all__ = ["DecodeRequest", "DecodeRequestRecord"]


@dataclass(frozen=True)
class DecodeRequest(Request):
    """One autoregressive request: ``length`` prompt tokens, then generate
    ``output_len`` tokens (the first is produced by prefill itself)."""

    output_len: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.output_len < 1:
            raise ValueError("output_len must be >= 1")

    def restamped(self, deadline: float | None, request_class: str | None) -> "DecodeRequest":
        return DecodeRequest(
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


@dataclass(frozen=True)
class DecodeRequestRecord(RequestRecord):
    """A completed decode request with its generation-phase timestamps.

    ``completion_time`` is when the *last* token was produced;
    ``first_token_time`` is when prefill finished (= the first token).  For
    ``output_len == 1`` the two coincide and the record degenerates to the
    encoder :class:`~repro.serving.request.RequestRecord` semantics exactly.
    """

    first_token_time: float = 0.0

    @property
    def num_output_tokens(self) -> int:
        """Tokens this request generated (1 for plain encoder requests)."""
        return int(getattr(self.request, "output_len", 1))

    @property
    def ttft(self) -> float:
        """Time to first token: arrival to the end of prefill."""
        return self.first_token_time - self.request.arrival_time

    @property
    def decode_seconds(self) -> float:
        """Time spent in the decode phase (0 for single-token requests)."""
        return self.completion_time - self.first_token_time

    @property
    def inter_token_latency(self) -> float | None:
        """Mean seconds per generated token after the first (None if none)."""
        extra = self.num_output_tokens - 1
        if extra <= 0:
            return None
        return self.decode_seconds / extra
