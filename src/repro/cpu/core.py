"""Trace-driven core model.

Each core replays an instruction trace through a reorder-buffer-like
instruction window (128 entries, Table 1).  The simulator ticks at DRAM
bus-cycle granularity; a core running at 4 GHz with a 3-wide issue width
may therefore issue and retire up to ``issue_width x clock_ratio``
instructions per bus cycle.

* Non-memory instructions ("bubbles") complete immediately but still
  consume issue slots and window entries.
* LLC-missing reads occupy a window entry until the memory controller
  returns their data; the window fills up and stalls the core when memory
  is slow (memory-level parallelism is bounded by the window size).
* Writebacks are sent fire-and-forget but exert back-pressure when the
  write queue is full.
* RNG requests occupy a window entry until the random number is
  delivered, exactly like memory reads.  Because retirement is in order,
  a burst of RNG requests followed by dependent computation stalls the
  instruction window until the random numbers arrive (Section 1: random
  number generation "can stall the processor's instruction window if
  later instructions depend on the generated random number").

The core records the cycle at which it retires its target instruction
count (``finish_cycle``) and freezes its statistics there; it keeps
executing (wrapping its trace) afterwards so that co-running applications
continue to observe realistic interference, as in the multi-programmed
methodology of Section 7.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from .trace import Trace


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of a core."""

    issue_width: int = 3
    window_size: int = 128
    clock_ratio: int = 5  # CPU cycles per DRAM bus cycle (4 GHz / 800 MHz).

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.clock_ratio <= 0:
            raise ValueError("clock_ratio must be positive")

    @property
    def slots_per_bus_cycle(self) -> int:
        """Maximum instructions issued (and retired) per bus cycle."""
        return self.issue_width * self.clock_ratio


@dataclass(slots=True)
class CoreStats:
    """Statistics of one core, frozen when the core finishes."""

    instructions: int = 0
    cycles: int = 0
    memory_stall_cycles: int = 0
    rng_stall_cycles: int = 0
    reads_issued: int = 0
    writes_issued: int = 0
    rng_requests: int = 0
    read_latency_sum: int = 0
    rng_latency_sum: int = 0

    @property
    def mcpi(self) -> float:
        """Memory stall cycles (bus cycles) per instruction."""
        if not self.instructions:
            return 0.0
        return self.memory_stall_cycles / self.instructions

    @property
    def ipc(self) -> float:
        """Instructions per CPU cycle (using the configured clock ratio)."""
        return 0.0 if not self.cycles else self.instructions / self.cycles

    @property
    def average_read_latency(self) -> float:
        if not self.reads_issued:
            return 0.0
        return self.read_latency_sum / self.reads_issued

    @property
    def average_rng_latency(self) -> float:
        if not self.rng_requests:
            return 0.0
        return self.rng_latency_sum / self.rng_requests

    def copy(self) -> "CoreStats":
        return dataclasses.replace(self)


class _WindowSlot:
    """One instruction-window entry."""

    __slots__ = ("done", "is_rng", "ready_at", "issued_at", "seq")

    def __init__(self, done: bool, is_rng: bool = False) -> None:
        self.done = done
        self.is_rng = is_rng
        #: Completion cycle of the memory read backing this slot, filled
        #: in by the memory controller when the read issues (``None``
        #: while the request is still queued, and always ``None`` for
        #: bubbles and RNG slots).  The batched-serve pre-flight reads it
        #: off stalled cores' window heads to bound serve windows by the
        #: earliest *waking* completion in O(cores) — a queued head read
        #: can only complete at least a full minimum read latency after
        #: it issues, which is past any window formed now.
        self.ready_at = None
        #: Cycle the core issued the memory read backing this slot
        #: (``None`` for bubbles and RNG slots); the completion handler
        #: charges the read latency against it.
        self.issued_at = None
        #: Issue sequence number within the owning core's window,
        #: assigned at issue time (the outstanding-slot FIFO orders by
        #: it; the window head is the slot whose sequence equals the
        #: core's retired count).
        self.seq = 0


class _RNGCompletion:
    """Completion callback of one in-flight RNG window slot.

    A class (not a closure) so a mid-run :class:`Core` — and the RNG
    subsystem structures holding the callback — stay serialisable by
    :mod:`repro.sim.checkpoint`.
    """

    __slots__ = ("core", "slot", "issue_cycle")

    def __init__(self, core: "Core", slot: _WindowSlot, issue_cycle: int) -> None:
        self.core = core
        self.slot = slot
        self.issue_cycle = issue_cycle

    def __call__(self, completion_cycle: int) -> None:
        core = self.core
        self.slot.done = True
        core._undone_slots -= 1
        core.stats.rng_latency_sum += max(0, completion_cycle - self.issue_cycle)


class Core:
    """A single trace-driven core."""

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        send_read: Callable[[int, int, "_WindowSlot"], bool],
        send_write: Callable[[int, int], bool],
        send_rng: Callable[[int, int, Callable], None],
        config: Optional[CoreConfig] = None,
        target_instructions: Optional[int] = None,
        priority: int = 0,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.config = config or CoreConfig()
        self.priority = priority
        self._send_read = send_read
        self._send_write = send_write
        self._send_rng = send_rng

        if target_instructions is not None and target_instructions <= 0:
            raise ValueError("target_instructions must be positive")
        self.target_instructions = (
            target_instructions if target_instructions is not None else trace.total_instructions
        )

        # The trace precompiled into flat parallel columns (shared across
        # every core replaying the same Trace object): the issue loop
        # replays them with index arithmetic instead of per-entry
        # TraceEntry attribute access.
        columns = trace.columns()
        self._col_bubbles = columns.bubbles
        self._col_reads = columns.read_addresses
        self._col_writes = columns.write_addresses
        self._col_rng = columns.rng_bits
        self._num_entries = len(columns)

        # Dynamic execution state.  The instruction window is not
        # materialised: done slots are observationally interchangeable
        # (only undone memory/RNG slots are ever inspected — by their
        # completion callbacks, the head-blocked checks and the engine's
        # wake probes), so the window reduces to the issue/retire
        # sequence counters plus a FIFO of the outstanding slots:
        #
        # * window occupancy   = ``_issued_seq - _retired_seq``,
        # * window head        = ``_undone_fifo[0]`` when its sequence
        #   equals ``_retired_seq`` (a completed-but-unretired or still
        #   outstanding memory/RNG slot), else an always-done bubble,
        # * head-of-window done-run (how many slots can retire before the
        #   oldest outstanding request) = ``oldest_undone_sequence -
        #   retired_sequence``, O(1) amortised.
        #
        # Bubble issue and retirement are therefore pure counter
        # arithmetic — no deque traffic at all on the streaming path.
        #: Window slots still waiting on a memory/RNG completion.  Kept
        #: incrementally so the cycle-skipping engine's all-done check is
        #: O(1) instead of a window scan.
        self._undone_slots = 0
        self._issued_seq = 0
        self._retired_seq = 0
        self._undone_fifo: Deque = deque()
        self._slots_per_cycle = self.config.slots_per_bus_cycle
        self._window_size = self.config.window_size
        # Current trace position, replayed from the precompiled columns
        # with integer sentinels (-1 = no pending read/write, 0 = no
        # pending RNG request) so the hot issue loop never touches a
        # TraceEntry object or an Optional.
        self._entry_index = 0
        self._bubbles_left = self._col_bubbles[0]
        self._pending_read = self._col_reads[0]
        self._pending_write = self._col_writes[0]
        self._pending_rng = self._col_rng[0]

        # Statistics.
        self.stats = CoreStats()
        self.finish_cycle: Optional[int] = None
        self.finished_stats: Optional[CoreStats] = None
        self.is_rng_application = trace.rng_requests > 0

    # ------------------------------------------------------------------ helpers

    @property
    def finished(self) -> bool:
        """Whether the core has retired its target instruction count."""
        return self.finish_cycle is not None

    @property
    def outstanding_window_entries(self) -> int:
        return self._issued_seq - self._retired_seq

    # ------------------------------------------------------------------ main loop

    def tick(self, now: int) -> None:
        """Advance the core by one DRAM bus cycle."""
        self.stats.cycles += 1

        retired = self._retire()
        issued = self._issue(now)

        if retired == 0 and issued == 0:
            fifo = self._undone_fifo
            head = fifo[0] if fifo else None
            head_blocked = (
                head is not None and head.seq == self._retired_seq and not head.done
            )
            if head_blocked or self._pending_write >= 0:
                self.stats.memory_stall_cycles += 1
                if head_blocked and head.is_rng:
                    self.stats.rng_stall_cycles += 1

        if self.finish_cycle is None and self.stats.instructions >= self.target_instructions:
            self.finish_cycle = now
            self.finished_stats = self.stats.copy()

    def _retire(self) -> int:
        budget = self._slots_per_cycle
        # Drop completed heads from the outstanding-slot FIFO here (not
        # only in the skip-bound computation) so it cannot accumulate one
        # entry per memory request over a whole run.
        fifo = self._undone_fifo
        while fifo and fifo[0].done:
            fifo.popleft()
        # Retirement is in issue order: everything older than the oldest
        # outstanding slot is done, so the retirable run is the window
        # occupancy capped by that slot's sequence, capped by the budget.
        retired = self._issued_seq - self._retired_seq
        if fifo:
            run = fifo[0].seq - self._retired_seq
            if run < retired:
                retired = run
        if retired > budget:
            retired = budget
        self._retired_seq += retired
        # Instructions count as executed when they retire (in order), so
        # the finish condition reflects completed work, not issued work.
        self.stats.instructions += retired
        return retired

    def _issue(self, now: int) -> int:
        issued = 0
        budget = self._slots_per_cycle
        window_size = self._window_size
        stats = self.stats

        while issued < budget:
            if self._pending_write >= 0:
                # Back-pressure: the writeback must be accepted before the
                # core moves on to the next trace entry.
                if self._send_write(self._pending_write, self.core_id):
                    stats.writes_issued += 1
                    self._pending_write = -1
                else:
                    break
            occupancy = self._issued_seq - self._retired_seq
            if occupancy >= window_size:
                break

            bubbles = self._bubbles_left
            if bubbles > 0:
                # Bubbles are issued in one batch: they complete
                # immediately and never interact with anything, so the
                # per-slot loop collapses to counter arithmetic.
                take = budget - issued
                if bubbles < take:
                    take = bubbles
                space = window_size - occupancy
                if space < take:
                    take = space
                self._bubbles_left = bubbles - take
                self._issued_seq += take
                issued += take
            elif self._pending_read >= 0:
                slot = _WindowSlot(done=False)
                slot.issued_at = now
                slot.seq = self._issued_seq
                if not self._send_read(self._pending_read, self.core_id, slot):
                    break  # Read queue full; retry next cycle.
                self._undone_fifo.append(slot)
                self._issued_seq += 1
                self._undone_slots += 1
                self._pending_read = -1
                stats.reads_issued += 1
                issued += 1
            elif self._pending_rng > 0:
                bits = self._pending_rng
                self._pending_rng = 0
                slot = _WindowSlot(done=False, is_rng=True)
                slot.seq = self._issued_seq
                self._undone_fifo.append(slot)
                self._issued_seq += 1
                self._undone_slots += 1
                stats.rng_requests += 1
                issued += 1
                self._send_rng(bits, self.core_id, _RNGCompletion(self, slot, now))
            elif self._pending_write < 0:
                # Entry exhausted (no bubbles, read, write or RNG request
                # left): advance to the next precompiled column position,
                # wrapping to keep generating interference.
                index = self._entry_index + 1
                if index >= self._num_entries:
                    index = 0
                self._entry_index = index
                self._bubbles_left = self._col_bubbles[index]
                self._pending_read = self._col_reads[index]
                self._pending_write = self._col_writes[index]
                self._pending_rng = self._col_rng[index]
            else:
                break
        return issued

    # ------------------------------------------------------------------ cycle skipping

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Lower bound on the next cycle at which :meth:`tick` must run.

        ``now`` means the core is active and must be ticked normally.  A
        future cycle means the ticks before it are pure bubble streaming
        (retire ``slots_per_bus_cycle`` done slots, issue as many bubbles)
        that :meth:`skip_cycles` replays in closed form.  ``None`` means
        the core is stalled — instruction window full behind an
        outstanding memory or RNG request — and can only be woken by a
        completion callback, which belongs to another component's bound.
        """
        if self._pending_write >= 0:
            # Writeback back-pressure retries the enqueue every cycle.
            return now
        slots = self._slots_per_cycle
        retired_seq = self._retired_seq
        occupancy = self._issued_seq - retired_seq
        fifo = self._undone_fifo
        head = fifo[0] if fifo else None
        if head is not None and head.seq == retired_seq and not head.done:
            space = self._window_size - occupancy
            if space <= 0:
                return None
            if self._bubbles_left > slots:
                # Window filling behind a blocked head: each tick retires
                # nothing and issues one issue-width of done bubbles.
                fill_ticks = space // slots
                if fill_ticks:
                    bubble_ticks = (self._bubbles_left - 1) // slots
                    return now + min(fill_ticks, bubble_ticks)
            return now
        if self._bubbles_left > slots:
            if not self._undone_slots:
                if occupancy < slots:
                    return now
                # Pure streaming: the window is all done and more than one
                # issue-width of bubbles remains at every tick start.
                quiet_ticks = (self._bubbles_left - 1) // slots
            else:
                # Mixed window: bubbles stream in behind the tail while
                # older requests are still outstanding mid-window.
                # Retirement is in issue order, so full batches retire as
                # long as the done run ahead of the oldest outstanding
                # slot spans at least one issue width per tick.
                while fifo and fifo[0].done:
                    fifo.popleft()
                retire_ticks = (fifo[0].seq - retired_seq) // slots
                if not retire_ticks:
                    return now
                quiet_ticks = min(retire_ticks, (self._bubbles_left - 1) // slots)
                if not quiet_ticks:
                    return now
            if self.finish_cycle is None:
                # Crossing the target instruction count is an event (the
                # engine must re-check ``all_finished`` right after it).
                remaining = self.target_instructions - self.stats.instructions
                finishing_tick = -(-remaining // slots)
                if finishing_tick < quiet_ticks:
                    quiet_ticks = finishing_tick
            return now + quiet_ticks
        return now

    def skip_cycles(self, now: int, target: int) -> None:
        """Apply the effects of the quiet ticks for cycles ``[now, target)``."""
        skipped = target - now
        slots = self._slots_per_cycle
        fifo = self._undone_fifo
        head = fifo[0] if fifo else None
        if head is not None and head.seq == self._retired_seq and not head.done:
            self.stats.cycles += skipped
            if self._issued_seq - self._retired_seq >= self._window_size:
                # Stalled: every skipped tick is a memory-stall cycle.
                self.stats.memory_stall_cycles += skipped
                if head.is_rng:
                    self.stats.rng_stall_cycles += skipped
            else:
                # Window filling behind a blocked head: bubbles stream in
                # without retiring (no stall is recorded while issuing).
                count = slots * skipped
                self._issued_seq += count
                self._bubbles_left -= count
            return
        # Bubble streaming: each tick retires a full batch of done slots
        # and issues as many bubbles — in the counter representation both
        # sides are pure arithmetic (the retired prefix is all done, and
        # done slots are observationally interchangeable).
        count = slots * skipped
        if self.finish_cycle is None and (
            self.stats.instructions + count >= self.target_instructions
        ):
            finishing_tick = -(-(self.target_instructions - self.stats.instructions) // slots)
            snapshot = self.stats.copy()
            snapshot.cycles += finishing_tick
            snapshot.instructions += slots * finishing_tick
            self.finish_cycle = now + finishing_tick - 1
            self.finished_stats = snapshot
        self.stats.cycles += skipped
        self.stats.instructions += count
        self._bubbles_left -= count
        self._issued_seq += count
        self._retired_seq += count

    def catch_up_stall(self, start: int, end: int) -> None:
        """Account the deferred stall ticks for cycles ``[start, end)``.

        Used by the event engine after it left a window-stalled core
        untouched: every deferred tick was a memory-stall cycle against
        the (still unretired) head slot.  Must be called before the head
        is retired so the RNG attribution still sees the right slot —
        a stalled core's head is always ``_undone_fifo[0]``.
        """
        stalled = end - start
        if stalled <= 0:
            return
        self.stats.cycles += stalled
        self.stats.memory_stall_cycles += stalled
        if self._undone_fifo[0].is_rng:
            self.stats.rng_stall_cycles += stalled

    def complete_read(self, slot: _WindowSlot, completion_cycle: Optional[int]) -> None:
        """Mark the read backing ``slot`` done and record its latency.

        ``slot`` is the window slot the core handed to ``send_read`` at
        issue time; the memory side calls back here (directly, or through
        :meth:`_on_read_complete` when the completion arrives as a
        :class:`~repro.controller.request.Request`) when the read's data
        returns.
        """
        slot.done = True
        self._undone_slots -= 1
        issue_cycle = slot.issued_at
        completion = completion_cycle if completion_cycle is not None else issue_cycle
        self.stats.read_latency_sum += max(0, completion - issue_cycle)

    def _on_read_complete(self, request) -> None:
        """Completion callback shared by every read request of this core.

        The request carries its window slot (``request.window_slot``, set
        by the system when it built the request around the slot the core
        passed to ``send_read``); the slot also records the issue cycle,
        so one bound method serves every read — the per-read closure the
        core used to allocate is gone from the hot path.  The body is
        :meth:`complete_read` inlined (one call per read completion).
        """
        slot = request.window_slot
        slot.done = True
        self._undone_slots -= 1
        issue_cycle = slot.issued_at
        completion = request.completion_cycle
        if completion is None:
            completion = issue_cycle
        if completion > issue_cycle:
            self.stats.read_latency_sum += completion - issue_cycle

    # ------------------------------------------------------------------ results

    def result_stats(self) -> CoreStats:
        """Statistics at finish time (or current stats if still running)."""
        return self.finished_stats if self.finished_stats is not None else self.stats
