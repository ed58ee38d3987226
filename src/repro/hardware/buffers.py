"""On-chip buffer models (double buffers and FIFOs).

The coarse-grained pipeline of Fig. 2(a) inserts double buffers between every
pair of adjacent stages so that stage ``i`` can produce the next sequence's
data while stage ``i+1`` consumes the previous one.  The scheduler only needs
occupancy semantics (a stage may start only when its input buffer holds data
and its output buffer has a free slot); the sizing helpers let the resource
model charge BRAM for the buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resources import FpgaResources

__all__ = ["DoubleBuffer", "BufferSizing", "bram_blocks_for_bytes"]


def bram_blocks_for_bytes(num_bytes: int, block_bytes: int = 4608) -> int:
    """Number of BRAM36 blocks (4.5 KiB each) needed to hold ``num_bytes``."""
    if num_bytes < 0:
        raise ValueError("buffer size must be non-negative")
    if num_bytes == 0:
        return 0
    return -(-num_bytes // block_bytes)


@dataclass(frozen=True)
class BufferSizing:
    """Capacity requirement of one inter-stage buffer."""

    name: str
    bytes_per_slot: int
    num_slots: int = 2  # double buffering

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_slot * self.num_slots

    def resources(self) -> FpgaResources:
        """BRAM cost of the buffer (control logic cost is negligible)."""
        return FpgaResources(bram=bram_blocks_for_bytes(self.total_bytes), lut=200, ff=300)


@dataclass
class DoubleBuffer:
    """Occupancy state of a two-slot (ping-pong) buffer.

    The producer writes into the free slot while the consumer reads the full
    slot; ``push`` marks a slot full, ``pop`` frees it.  Payloads are opaque
    to the buffer (the scheduler stores sequence identifiers).
    """

    name: str = "buffer"
    num_slots: int = 2
    _occupied: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ValueError("a buffer needs at least one slot")

    @property
    def occupancy(self) -> int:
        """Number of full slots."""
        return len(self._occupied)

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.num_slots

    @property
    def is_empty(self) -> bool:
        return self.occupancy == 0

    def push(self, item) -> None:
        """Producer side: deposit one item; raises when the buffer is full."""
        if self.is_full:
            raise RuntimeError(f"buffer '{self.name}' overflow")
        self._occupied.append(item)

    def pop(self):
        """Consumer side: remove the oldest item; raises when empty."""
        if self.is_empty:
            raise RuntimeError(f"buffer '{self.name}' underflow")
        return self._occupied.pop(0)

    def peek(self):
        """Oldest item without removing it."""
        if self.is_empty:
            raise RuntimeError(f"buffer '{self.name}' is empty")
        return self._occupied[0]

    def reset(self) -> None:
        """Drop all contents."""
        self._occupied.clear()
