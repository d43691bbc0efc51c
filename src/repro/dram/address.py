"""Physical address decomposition.

The memory controller needs to know which channel, bank, row and column a
physical address maps to.  The mapping used here interleaves consecutive
cache blocks across channels and banks (``Row | Bank | Channel | Column``
from most to least significant), which is the common high-parallelism
mapping also used by Ramulator's default configuration.  The mapping is a
bijection between physical addresses (at cache-block granularity) and
``(channel, rank, bank, row, column)`` tuples, which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .timing import DRAMOrganization


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address decomposed into DRAM coordinates."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int
    #: Flat bank index within the owning channel, precomputed by
    #: :meth:`AddressMapping.decode` so the schedulers' row-hit scans (the
    #: hottest per-request work in dense simulations) read one attribute
    #: instead of redoing the rank/bank arithmetic.  Excluded from
    #: equality so hand-built instances compare as before; on those it is
    #: ``None``, which fails loudly (``TypeError`` on indexing) if such an
    #: instance ever reaches a scheduler scan — only decoded addresses do.
    flat_bank: int | None = field(default=None, compare=False)

    def bank_id(self, organization: DRAMOrganization) -> int:
        """Flat bank index within the owning channel."""
        if self.flat_bank is not None:
            return self.flat_bank
        return self.rank * organization.banks_per_rank + self.bank


class AddressMapping:
    """Maps physical addresses to DRAM coordinates and back.

    The address layout (most significant to least significant) is::

        row | rank | bank | column | channel | block offset

    so that consecutive cache blocks of a streaming access pattern spread
    across channels first (channel interleaving, as in Ramulator's default
    RoBaRaCoCh mapping), while accesses within one row of one channel stay
    in the same bank (row-buffer locality).
    """

    def __init__(self, organization: DRAMOrganization | None = None) -> None:
        self.organization = organization or DRAMOrganization()
        org = self.organization
        self._block_bits = (org.bytes_per_column - 1).bit_length()
        self._column_bits = (org.columns_per_row - 1).bit_length()
        self._channel_bits = (org.channels - 1).bit_length() if org.channels > 1 else 0
        self._bank_bits = (org.banks_per_rank - 1).bit_length() if org.banks_per_rank > 1 else 0
        self._rank_bits = (
            (org.ranks_per_channel - 1).bit_length() if org.ranks_per_channel > 1 else 0
        )
        self._row_bits = (org.rows_per_bank - 1).bit_length()

    # -- decoding -----------------------------------------------------------------

    def decode(self, address: int) -> DecodedAddress:
        """Decompose a byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        org = self.organization
        bits = address >> self._block_bits
        channel = bits % org.channels
        bits //= org.channels
        column = bits % org.columns_per_row
        bits //= org.columns_per_row
        bank = bits % org.banks_per_rank
        bits //= org.banks_per_rank
        rank = bits % org.ranks_per_channel
        bits //= org.ranks_per_channel
        row = bits % org.rows_per_bank
        return DecodedAddress(
            channel=channel,
            rank=rank,
            bank=bank,
            row=row,
            column=column,
            flat_bank=rank * org.banks_per_rank + bank,
        )

    def channel_of(self, address: int) -> int:
        """Return only the channel index of ``address`` (fast path)."""
        return (address >> self._block_bits) % self.organization.channels

    # -- encoding -----------------------------------------------------------------

    def encode(
        self,
        channel: int,
        bank: int,
        row: int,
        column: int,
        rank: int = 0,
    ) -> int:
        """Compose DRAM coordinates into a byte address.

        The returned address is aligned to a cache block.
        """
        org = self.organization
        # One comparison chain on the fast path (trace generation encodes
        # every address); the per-field checks only name the bad field.
        if not (
            0 <= channel < org.channels
            and 0 <= rank < org.ranks_per_channel
            and 0 <= bank < org.banks_per_rank
            and 0 <= row < org.rows_per_bank
            and 0 <= column < org.columns_per_row
        ):
            self._check_range("channel", channel, org.channels)
            self._check_range("rank", rank, org.ranks_per_channel)
            self._check_range("bank", bank, org.banks_per_rank)
            self._check_range("row", row, org.rows_per_bank)
            self._check_range("column", column, org.columns_per_row)
        bits = row
        bits = bits * org.ranks_per_channel + rank
        bits = bits * org.banks_per_rank + bank
        bits = bits * org.columns_per_row + column
        bits = bits * org.channels + channel
        return bits << self._block_bits

    @staticmethod
    def _check_range(name: str, value: int, limit: int) -> None:
        if not 0 <= value < limit:
            raise ValueError(f"{name} must be in [0, {limit}), got {value}")

    # -- metadata -----------------------------------------------------------------

    @property
    def block_size(self) -> int:
        """Cache block size in bytes (granularity of one memory request)."""
        return self.organization.bytes_per_column

    def block_index(self, address: int) -> int:
        """Return the cache-block index of ``address``."""
        return address >> self._block_bits
