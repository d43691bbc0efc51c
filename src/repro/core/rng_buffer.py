"""The random number buffer (Section 5.1).

A small buffer in the memory controller that stores random bits generated
ahead of demand, during idle or lowly utilised DRAM periods.  When the
buffer holds enough bits, an application's random number request is served
with low latency instead of paying the full DRAM TRNG latency.

The buffer tracks bit *counts* (the amount of pre-generated entropy), not
bit values: the paper's evaluation depends only on how many bits are
ready, never on what they are.  Served bits are discarded, satisfying the
security requirement that every random number is unique and never handed
to two requesters (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BufferStats:
    """Counters of the random number buffer."""

    bits_added: int = 0
    bits_served: int = 0
    bits_dropped: int = 0
    serves: int = 0
    misses: int = 0
    fill_operations: int = 0

    @property
    def total_requests(self) -> int:
        return self.serves + self.misses

    @property
    def serve_rate(self) -> float:
        """Fraction of random number requests served from the buffer."""
        total = self.total_requests
        return self.serves / total if total else 0.0


class RandomNumberBuffer:
    """A bounded store of pre-generated random bits."""

    def __init__(self, entries: int = 16, bits_per_entry: int = 64) -> None:
        if entries < 0:
            raise ValueError("entries must be non-negative")
        if bits_per_entry <= 0:
            raise ValueError("bits_per_entry must be positive")
        self.entries = entries
        self.bits_per_entry = bits_per_entry
        self.capacity_bits = entries * bits_per_entry
        self._available_bits = 0
        self.stats = BufferStats()
        #: Bumped on every occupancy change.  The cycle-skipping engine's
        #: controller-side event-bound cache keys on it: the buffer is the
        #: one piece of state a quiet controller's fill decision depends
        #: on that other components mutate.
        self.version = 0

    # -- capacity -----------------------------------------------------------------

    @property
    def available_bits(self) -> int:
        """Random bits currently stored in the buffer."""
        return self._available_bits

    @property
    def free_bits(self) -> int:
        """Remaining capacity in bits."""
        return self.capacity_bits - self._available_bits

    @property
    def is_full(self) -> bool:
        return self._available_bits >= self.capacity_bits

    @property
    def is_empty(self) -> bool:
        return self._available_bits == 0

    @property
    def occupancy(self) -> float:
        """Fraction of the buffer currently filled."""
        if self.capacity_bits == 0:
            return 0.0
        return self._available_bits / self.capacity_bits

    def has(self, bits: int) -> bool:
        """Whether ``bits`` random bits are available."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self._available_bits >= bits

    # -- filling ------------------------------------------------------------------

    def add_bits(self, bits: int) -> int:
        """Add up to ``bits`` generated bits; returns how many were stored.

        Bits beyond the capacity are dropped (the fill policies stop
        generating once the buffer is full, so drops only happen when a
        batch slightly overshoots the remaining space).
        """
        if bits < 0:
            raise ValueError("bits must be non-negative")
        stored = min(bits, self.free_bits)
        self._available_bits += stored
        self.version += 1
        self.stats.bits_added += stored
        self.stats.bits_dropped += bits - stored
        if stored:
            self.stats.fill_operations += 1
        return stored

    # -- serving ------------------------------------------------------------------

    def take(self, bits: int) -> bool:
        """Serve ``bits`` random bits from the buffer if available.

        Returns ``True`` on success (the bits are removed and must not be
        reused); ``False`` (and records a miss) if the buffer does not
        hold enough bits.
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        if self._available_bits >= bits:
            self._available_bits -= bits
            self.version += 1
            self.stats.bits_served += bits
            self.stats.serves += 1
            return True
        self.stats.misses += 1
        return False

    def drain(self) -> int:
        """Remove and return all stored bits (used when re-keying)."""
        bits = self._available_bits
        self._available_bits = 0
        self.version += 1
        return bits

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RandomNumberBuffer({self._available_bits}/{self.capacity_bits} bits, "
            f"serve_rate={self.stats.serve_rate:.2f})"
        )
