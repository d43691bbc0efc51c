"""DRAM channel device model.

A channel groups the banks reachable through one memory channel and owns
the shared data bus.  The memory controller issues accesses through
:meth:`Channel.service_access`, which combines the bank state machine with
data-bus serialisation: row preparation of different banks overlaps, while
data transfers serialise on the bus (one burst of ``tBL`` cycles each).

Random number generation occupies the whole channel: all banks are used in
parallel with violated timing parameters, so no regular access can proceed
concurrently.  :meth:`Channel.occupy_for_rng` models this by marking every
bank and the bus busy until the end of the RNG operation and closing all
row buffers (the reserved RNG rows replace whatever was open).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bank import AccessCategory, Bank, BankStats
from .timing import DRAMOrganization, DRAMTiming


@dataclass(slots=True)
class ChannelStats:
    """Aggregate per-channel counters."""

    read_accesses: int = 0
    write_accesses: int = 0
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0
    busy_cycles: int = 0
    rng_cycles: int = 0
    rng_operations: int = 0
    rng_bits_generated: int = 0

    @property
    def total_accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_closed + self.row_conflicts
        return self.row_hits / total if total else 0.0


class Channel:
    """One DRAM channel: a set of banks sharing a data bus."""

    def __init__(
        self,
        channel_id: int,
        timing: DRAMTiming | None = None,
        organization: DRAMOrganization | None = None,
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing or DRAMTiming()
        self.organization = organization or DRAMOrganization()
        #: Flat mirror of every bank's currently open row.  The
        #: schedulers' row-hit scans index this list directly — one list
        #: load + int compare per queued request — instead of chasing
        #: ``banks[i].open_row`` attribute chains.  The list identity is
        #: permanent: each bank holds a reference and updates its slot on
        #: every open-row mutation (as does the channel's inlined access
        #: path), so no code path can desynchronise the mirror.
        self.open_rows: list = [None] * self.organization.banks_per_channel
        self.banks = [
            Bank(bank_id, self.timing, open_row_mirror=self.open_rows)
            for bank_id in range(self.organization.banks_per_channel)
        ]
        self.bus_free_at: int = 0
        self.stats = ChannelStats()

    # -- regular accesses ---------------------------------------------------------

    def service_access(
        self,
        bank_id: int,
        row: int,
        now: int,
        is_write: bool = False,
    ) -> tuple[int, AccessCategory]:
        """Service one column access and return its data completion cycle.

        The completion cycle is when the last beat of the data burst leaves
        (read) or arrives at (write) the channel.  Bank preparation of
        different banks may overlap; bursts serialise on the data bus.
        """
        banks = self.banks
        if not 0 <= bank_id < len(banks):
            raise ValueError(f"bank_id {bank_id} out of range for channel {self.channel_id}")
        bank = banks[bank_id]
        timing = self.timing
        stats = self.stats
        bank_stats = bank.stats

        # The bank state machine of :meth:`Bank.access` is applied inline
        # here (classification, preparation latency, counters, open-row
        # update, busy-until) — this per-access path is the hottest DRAM
        # code in dense simulations and the method/enum indirections cost
        # more than the logic.  Keep the two in sync.
        ready = bank.ready_at
        start = now if now >= ready else ready
        open_row = bank.open_row
        if open_row == row:
            category = AccessCategory.ROW_HIT
            column_ready = start
            bank_stats.row_hits += 1
            stats.row_hits += 1
        elif open_row is None:
            category = AccessCategory.ROW_CLOSED
            column_ready = start + timing.tRCD
            bank_stats.row_closed += 1
            bank_stats.activations += 1
            stats.row_closed += 1
            bank.open_row = row
            self.open_rows[bank_id] = row
        else:
            category = AccessCategory.ROW_CONFLICT
            column_ready = start + timing.tRP + timing.tRCD
            bank_stats.row_conflicts += 1
            bank_stats.precharges += 1
            bank_stats.activations += 1
            stats.row_conflicts += 1
            bank.open_row = row
            self.open_rows[bank_id] = row

        cas_latency = timing.tCWL if is_write else timing.tCL
        data_start = column_ready + cas_latency
        bus_free_at = self.bus_free_at
        if data_start < bus_free_at:
            data_start = bus_free_at
        data_end = data_start + timing.tBL

        # The bank remains busy until the burst completes (plus write
        # recovery for writes), which also enforces a minimal tRAS-like
        # occupancy for back-to-back accesses to the same bank.
        bank_busy_until = data_end + (timing.tWR if is_write else 0)
        if bank_busy_until > bank.ready_at:
            bank.ready_at = bank_busy_until
        self.bus_free_at = data_end

        if is_write:
            stats.write_accesses += 1
            bank_stats.writes += 1
        else:
            stats.read_accesses += 1
            bank_stats.reads += 1
        stats.busy_cycles += data_end - max(now, min(column_ready, data_start))

        return data_end, category

    # -- RNG occupancy ------------------------------------------------------------

    def occupy_for_rng(self, now: int, duration: int, bits: int) -> int:
        """Occupy the whole channel for an RNG operation.

        Returns the cycle at which the channel becomes available again.
        All row buffers are closed because RNG accesses target the reserved
        RNG rows with violated timing parameters.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        end = max(now, self.bus_free_at) + duration
        for index, bank in enumerate(self.banks):
            bank.open_row = None
            self.open_rows[index] = None
            bank.complete_access(end)
        self.bus_free_at = end
        self.stats.rng_cycles += duration
        self.stats.rng_operations += 1
        self.stats.rng_bits_generated += bits
        return end

    # -- queries ------------------------------------------------------------------

    def open_row(self, bank_id: int) -> int | None:
        """Currently open row of ``bank_id`` (``None`` if precharged)."""
        return self.banks[bank_id].open_row

    def is_row_hit(self, bank_id: int, row: int) -> bool:
        """Whether an access to ``(bank_id, row)`` would hit the row buffer."""
        return self.banks[bank_id].open_row == row

    def is_bus_free(self, now: int) -> bool:
        """Whether the data bus is free at cycle ``now``."""
        return now >= self.bus_free_at

    def earliest_free_cycle(self, now: int) -> int:
        """Earliest cycle (not before ``now``) the data bus is free.

        The bus is the channel's binding resource: bank preparation can
        overlap, so :attr:`bus_free_at` (together with the per-bank
        :meth:`~repro.dram.bank.Bank.earliest_ready_cycle`) is the
        earliest-ready bound the cycle-skipping engine consumes.
        """
        return max(now, self.bus_free_at)

    def min_read_completion_distance(self, backend_latency: int) -> int:
        """Lower bound on cycles between issuing a read and its completion.

        A read issued at cycle ``t`` returns data no earlier than
        ``t + tCL + tBL`` (the column access cannot start before ``t``,
        CAS latency and the burst follow) and reaches the core
        ``backend_latency`` cycles later.  The batched-serve fast path
        uses this floor to cap serve windows: any read issued *inside* a
        window of at most this length completes *after* it, so the window
        never has to replay a completion it could not foresee.
        """
        return self.timing.tCL + self.timing.tBL + backend_latency

    def bank_stats(self) -> BankStats:
        """Aggregate bank counters across all banks of this channel."""
        total = BankStats()
        for bank in self.banks:
            total.merge(bank.stats)
        return total

    def reset_dynamic_state(self) -> None:
        """Reset row buffers and readiness without clearing statistics."""
        for bank in self.banks:
            bank.reset()  # each bank clears its open_rows slot
        self.bus_free_at = 0
