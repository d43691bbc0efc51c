"""Per-channel memory controller.

One :class:`ChannelController` manages a single DRAM channel: it owns the
bounded read/write (and, for RNG-aware designs, RNG) request queues, asks
its scheduler which request to service next, drives the channel device
model, and tracks idle periods and execution-mode changes.

The controller has two execution modes, exactly as in the paper
(Section 5): *Regular Execution Mode*, in which it services ordinary
read/write requests, and *RNG Mode*, in which the channel is dedicated to
random number generation with violated timing parameters (either to serve
an on-demand RNG request, or to fill the random number buffer during idle
periods).  Switching modes pays a timing-parameter reconfiguration
penalty.

Design-specific behaviour is injected rather than subclassed:

* ``queue_policy`` decides which queue to serve next (the baseline policy
  simply runs the configured scheduler on the read queue; DR-STRaNGe's
  RNG-aware scheduler is a different policy, see
  :mod:`repro.core.rng_scheduler`).
* ``fill_policy`` decides when to generate random numbers for the buffer
  during idle / low-utilisation periods (``None`` for the RNG-oblivious
  baseline; see :mod:`repro.core.fill_policies`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

from ..dram.channel import Channel
from ..dram.dram_system import DRAMSystem
from ..sched.base import MemoryScheduler
from ..sched.frfcfs import FRFCFSCap
from ..trng.base import DRAMTRNGModel
from .config import ControllerConfig
from .queues import RequestQueue
from .request import Request, RequestType


class ExecutionMode(Enum):
    """Execution mode of the memory controller."""

    REGULAR = "regular"
    RNG = "rng"


@dataclass(slots=True)
class ControllerStats:
    """Per-controller counters."""

    served_reads: int = 0
    served_writes: int = 0
    served_rng_demand: int = 0
    rng_chained_demand: int = 0
    rng_fill_batches: int = 0
    rng_fill_bits: int = 0
    idle_cycles: int = 0
    busy_cycles: int = 0
    rng_mode_cycles: int = 0
    mode_switches: int = 0
    idle_periods: List[int] = field(default_factory=list)
    low_utilization_fills: int = 0

    @property
    def total_cycles(self) -> int:
        return self.idle_cycles + self.busy_cycles + self.rng_mode_cycles

    @property
    def served_regular(self) -> int:
        return self.served_reads + self.served_writes


@dataclass
class _RNGOperation:
    """An in-progress RNG-mode operation on this channel."""

    purpose: str  # "demand" or "fill"
    segment_end: int
    bits_in_segment: int
    request: Optional[Request] = None


class BaselineQueuePolicy:
    """Queue selection of the RNG-oblivious baseline.

    RNG demand requests live in the regular read queue and are selected by
    the underlying scheduler like any other request (they never hit the
    row buffer, so FR-FCFS services them in arrival order among misses).
    """

    name = "baseline"

    def select(
        self, controller: "ChannelController", now: int
    ) -> Optional[Tuple[RequestQueue, Request]]:
        request = controller.scheduler.select(controller.read_queue, controller, now)
        if request is not None:
            return controller.read_queue, request
        # If the controller happens to have a dedicated RNG queue but no
        # RNG-aware policy, still drain it (oldest first) so RNG requests
        # cannot starve behind an empty read queue.
        if controller.rng_queue is not None and len(controller.rng_queue) > 0:
            return controller.rng_queue, controller.rng_queue.oldest()
        return None

    def notify_rng_application(self, core_id: int) -> None:
        """The baseline does not distinguish RNG applications."""

    def reset(self) -> None:
        """No internal state."""


class ChannelController:
    """Memory controller for a single DRAM channel."""

    def __init__(
        self,
        channel: Channel,
        dram: DRAMSystem,
        scheduler: Optional[MemoryScheduler] = None,
        config: Optional[ControllerConfig] = None,
        trng: Optional[DRAMTRNGModel] = None,
        queue_policy=None,
        fill_policy=None,
        separate_rng_queue: bool = False,
    ) -> None:
        self.channel = channel
        self.dram = dram
        self.organization = dram.organization
        self.mapping = dram.mapping
        self.config = config or ControllerConfig()
        self.scheduler = scheduler or FRFCFSCap()
        if isinstance(self.scheduler, FRFCFSCap):
            self.scheduler.bind(self.organization)
        self.trng = trng
        self.queue_policy = queue_policy or BaselineQueuePolicy()
        self.fill_policy = fill_policy
        # Schedulers that keep the base class no-op tick never produce
        # events; resolving that once keeps the per-iteration event-bound
        # probe of the cycle-skipping engine allocation- and call-free.
        self._scheduler_event_probe = (
            self.scheduler.next_event_cycle
            if type(self.scheduler).next_event_cycle is not MemoryScheduler.next_event_cycle
            else None
        )
        # Same resolution for the per-cycle hook itself: most schedulers
        # keep the base no-op, so the hot tick path skips the call.
        self._scheduler_tick = (
            self.scheduler.tick
            if type(self.scheduler).tick is not MemoryScheduler.tick
            else None
        )

        cfg = self.config
        self.read_queue = RequestQueue(cfg.read_queue_capacity, name=f"read[{channel.channel_id}]")
        self.write_queue = RequestQueue(
            cfg.write_queue_capacity, name=f"write[{channel.channel_id}]"
        )
        self.rng_queue: Optional[RequestQueue] = (
            RequestQueue(cfg.rng_queue_capacity, name=f"rng[{channel.channel_id}]")
            if separate_rng_queue
            else None
        )

        # Hot-path scalars hoisted out of the config dataclass, and the
        # queue-policy type resolved once: the RNG-oblivious baseline
        # policy reduces to the within-queue scheduler whenever the RNG
        # queue is empty, so the per-serve policy dispatch can be
        # bypassed (see _schedule_regular / serve_batch).
        self._issue_lookahead = cfg.issue_lookahead
        self._backend_latency = cfg.backend_latency
        self._write_drain_high = cfg.write_drain_high
        self._write_drain_low = cfg.write_drain_low
        self._fast_policy = type(self.queue_policy) is BaselineQueuePolicy

        self.mode = ExecutionMode.REGULAR
        self.stats = ControllerStats()
        self.idle_streak = 0
        self.last_accessed_address = 0
        self._rng_op: Optional[_RNGOperation] = None
        self._inflight: List[Tuple[int, int, Request]] = []
        self._inflight_counter = itertools.count()
        self._write_draining = False
        self._idle_period_listeners: List[Callable[[int, int, int], None]] = []
        self._arrival_listeners: List[Callable[[int, Request], None]] = []

        # Cycle-skipping state (see next_event_cycle / skip_cycles).  The
        # event-bound cache holds the last quiet bound: every constituent
        # (inflight head, RNG segment end, bus release, blacklist clear,
        # fill-policy threshold crossing) is an absolute cycle frozen
        # while the controller is quiet, so it stays valid until the next
        # tick or enqueue — or until the shared random number buffer
        # (which the fill decision may consult) changes under us.
        self._bound_cache: Optional[int] = None
        self._bound_cache_valid = False
        self._fill_buffer = getattr(fill_policy, "buffer", None)
        self._fill_buffer_version = -1
        # Deferred quiet bookkeeping: while consecutive skipped cycles
        # share one classification, only the segment start is recorded;
        # the counters are applied in one batch when the segment closes.
        self._skip_kind: Optional[str] = None
        self._skip_from = 0
        self._skip_streak = False
        self._skip_fill_gate = None

    # ------------------------------------------------------------------ properties

    @property
    def channel_id(self) -> int:
        return self.channel.channel_id

    @property
    def in_rng_mode(self) -> bool:
        return self.mode is ExecutionMode.RNG

    def decode(self, request: Request):
        """Return (and cache) the decoded DRAM coordinates of a request."""
        if request.decoded is None:
            request.decoded = self.mapping.decode(request.address)
        return request.decoded

    def read_queue_occupancy(self) -> int:
        """Number of pending regular read requests."""
        return len(self.read_queue)

    def has_pending_regular_work(self) -> bool:
        """Whether any regular (non-RNG) request is queued or in flight."""
        return bool(self.read_queue) or bool(self.write_queue) or bool(self._inflight)

    def is_idle(self, now: int) -> bool:
        """Idle: no regular work queued/in flight and the data bus is free."""
        return (
            not self.read_queue
            and not self.write_queue
            and not self._inflight
            and self.channel.is_bus_free(now)
            and self.mode is ExecutionMode.REGULAR
        )

    # ------------------------------------------------------------------ listeners

    def add_idle_period_listener(self, listener: Callable[[int, int, int], None]) -> None:
        """Register ``listener(channel_id, idle_length, last_address)``.

        Called whenever an idle period ends because a regular request
        arrived; this is the hook the DRAM idleness predictors train on.
        """
        self._idle_period_listeners.append(listener)

    def add_arrival_listener(self, listener: Callable[[int, Request], None]) -> None:
        """Register ``listener(channel_id, request)`` for request arrivals."""
        self._arrival_listeners.append(listener)

    # ------------------------------------------------------------------ enqueue

    def enqueue(self, request: Request) -> bool:
        """Add a request to the appropriate queue; ``False`` if it is full."""
        # Arriving work ends any deferred quiet segment (the idle streak
        # and predictor bookkeeping must be current before the arrival
        # listeners observe them) and invalidates the cached event bound.
        # Requests arrive after this cycle's controller phase, whose quiet
        # slot was already granted, so the segment closes *through* the
        # current cycle — exactly like the tick that would have preceded
        # the arrival in the reference engine.
        if self._skip_kind is not None:
            self.catch_up(self.dram.now + 1)
        self._bound_cache_valid = False
        if request.type is RequestType.READ:
            queue = self.read_queue
        elif request.type is RequestType.WRITE:
            queue = self.write_queue
        elif self.rng_queue is not None:
            queue = self.rng_queue
        else:
            queue = self.read_queue

        if request.type is not RequestType.RNG and request.decoded is None:
            self.decode(request)

        if not queue.push(request):
            return False

        if request.type is not RequestType.RNG:
            if self.idle_streak > 0:
                self._end_idle_period(request)
            self.last_accessed_address = request.address
        if self._arrival_listeners:
            for listener in self._arrival_listeners:
                listener(self.channel_id, request)
        return True

    def _end_idle_period(self, request: Request) -> None:
        if self.idle_streak > 0:
            length = self.idle_streak
            self.stats.idle_periods.append(length)
            for listener in self._idle_period_listeners:
                listener(self.channel_id, length, self.last_accessed_address)
        self.idle_streak = 0

    # ------------------------------------------------------------------ main loop

    def tick(self, now: int) -> None:
        """Advance the controller by one bus cycle."""
        if self._skip_kind is not None:
            self.catch_up(now)
        self._bound_cache_valid = False
        if self._scheduler_tick is not None:
            self._scheduler_tick(now)
        inflight = self._inflight
        if inflight and inflight[0][0] <= now:
            self._complete_finished(now)
        if self._rng_op is not None:
            self._advance_rng_mode(now)

        # Idle periods are defined with respect to *regular* traffic
        # (Section 5.1): the streak keeps counting while the channel is
        # generating random numbers, so that the idleness predictors are
        # trained on the true gap between regular requests.
        read_queue = self.read_queue
        pending = read_queue._entries or self.write_queue._entries or inflight
        if not pending:
            self.idle_streak += 1

        if self.mode is ExecutionMode.RNG:
            self.stats.rng_mode_cycles += 1
            read_queue.occupancy_samples += 1
            read_queue.occupancy_sum += len(read_queue._entries)
            return

        if not pending and now >= self.channel.bus_free_at:
            self.stats.idle_cycles += 1
            if self.fill_policy is not None:
                self.fill_policy.on_idle_cycle(self, now)
        else:
            self.stats.busy_cycles += 1

        # Inline occupancy sample (sample_occupancy would be a call per tick).
        read_queue.occupancy_samples += 1
        read_queue.occupancy_sum += len(read_queue._entries)

        if self.fill_policy is not None and self.fill_policy.should_start_fill(self, now):
            self._start_fill(now)
            return

        self._schedule_regular(now)

        # Prime the event-bound cache while the post-schedule state is at
        # hand (body of _prime_queued_bound, inlined on this per-tick
        # path); the idle branches (fill events, bus-drain-to-idle) and
        # RNG mode stay on the full recompute path.
        if self.mode is ExecutionMode.REGULAR and (
            read_queue._entries or self.write_queue._entries
        ):
            bound = self.channel.bus_free_at - self._issue_lookahead
            if bound < now:
                bound = now
            inflight = self._inflight
            if inflight and inflight[0][0] < bound:
                bound = inflight[0][0]
            if self._scheduler_event_probe is not None:
                event = self._scheduler_event_probe(now)
                if event is not None and event < bound:
                    bound = event
            self._bound_cache = bound
            self._bound_cache_valid = True
            buffer = self._fill_buffer
            if buffer is not None:
                self._fill_buffer_version = buffer.version

    # ------------------------------------------------------------------ cycle skipping

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Lower bound on the next cycle at which :meth:`tick` changes state.

        Returns ``now`` when the controller cannot bound its next event
        (the engine must tick it normally), a future cycle when every
        tick before that cycle is *quiet* (only linear counters advance,
        which :meth:`skip_cycles` applies in bulk), or ``None`` when the
        controller generates no events at all until new work arrives —
        arrivals come from cores and the RNG subsystem, whose own bounds
        cover them.
        """
        if self._bound_cache_valid:
            buffer = self._fill_buffer
            if buffer is None or buffer.version == self._fill_buffer_version:
                return self._bound_cache
            self._bound_cache_valid = False
        # Recomputing must see current state: close any deferred quiet
        # segment first (e.g. the idle streak a fill-policy threshold is
        # measured against — a buffer change elsewhere can invalidate the
        # cache mid-deferral).
        if self._skip_kind is not None:
            self.catch_up(now)
        bound = self._compute_event_bound(now)
        if bound is None or bound > now:
            # Quiet bounds are cacheable: everything they derive from is
            # frozen until the next tick or enqueue invalidates them.
            self._bound_cache = bound
            self._bound_cache_valid = True
            buffer = self._fill_buffer
            if buffer is not None:
                self._fill_buffer_version = buffer.version
        return bound

    def _prime_queued_bound(self, now: int) -> None:
        """Cache the event bound for the queued-regular-work state.

        Mirrors :meth:`_compute_event_bound`'s queued-work branch —
        scheduler event, completion head, issue-lookahead resume — for
        the two hot exits that already know regular work is pending (the
        end of a serving tick and the end of a serve batch), so the
        engine's next probe is a cache hit instead of a recompute.  Only
        valid in Regular Execution Mode with the read or write queue
        non-empty; any new event source added to the queued-work branch
        of :meth:`_compute_event_bound` must be folded in here too.
        """
        bound = self.channel.bus_free_at - self._issue_lookahead
        if bound < now:
            bound = now
        inflight = self._inflight
        if inflight and inflight[0][0] < bound:
            bound = inflight[0][0]
        if self._scheduler_event_probe is not None:
            event = self._scheduler_event_probe(now)
            if event is not None and event < bound:
                bound = event
        self._bound_cache = bound
        self._bound_cache_valid = True
        buffer = self._fill_buffer
        if buffer is not None:
            self._fill_buffer_version = buffer.version

    def _compute_event_bound(self, now: int) -> Optional[int]:
        bound: Optional[int] = None
        if self._scheduler_event_probe is not None:
            scheduler_event = self._scheduler_event_probe(now)
            if scheduler_event is not None:
                if scheduler_event <= now:
                    return now
                bound = scheduler_event
        if self._inflight:
            completion = self._inflight[0][0]
            if completion <= now:
                return now
            if bound is None or completion < bound:
                bound = completion

        if self.mode is ExecutionMode.RNG:
            op = self._rng_op
            if op is None or op.segment_end <= now:
                return now
            if bound is None or op.segment_end < bound:
                bound = op.segment_end
            return bound

        if self.read_queue or self.write_queue or (self.rng_queue is not None and self.rng_queue):
            # Work is queued: the controller issues every cycle unless the
            # issue lookahead blocks it while the data bus drains.
            resume = self.channel.bus_free_at - self.config.issue_lookahead
            if resume <= now:
                return now
            if bound is None or resume < bound:
                bound = resume
            return bound

        if not self.channel.is_bus_free(now):
            # No queued work, but the bus is still draining: busy cycles
            # until it frees, at which point the idle period (and the fill
            # policy) starts.
            free = self.channel.earliest_free_cycle(now)
            if bound is None or free < bound:
                bound = free
            return bound

        if self._inflight:
            # Queues empty and bus free, but reads are in flight: the
            # controller stays busy (never idle) until the completion
            # already folded into ``bound`` above.
            return bound

        if self.fill_policy is not None:
            fill_event = self.fill_policy.idle_event_cycle(self, now)
            if fill_event is not None:
                if fill_event <= now:
                    return now
                if bound is None or fill_event < bound:
                    bound = fill_event
        return bound

    def skip_cycles(self, now: int, target: int) -> None:
        """Note the quiet ticks for cycles ``[now, target)``.

        Only valid when :meth:`next_event_cycle` returned at least
        ``target``: every skipped tick then increments counters whose
        per-cycle deltas are constant across the range.  The counters are
        not applied eagerly — consecutive quiet ranges with the same
        classification (idle / busy / RNG mode) collapse into a single
        deferred segment that :meth:`catch_up` closes before the next
        state change (a tick, an arriving request, or the end of the
        simulation).
        """
        pending = self.read_queue._entries or self.write_queue._entries or self._inflight
        if self.mode is ExecutionMode.RNG:
            kind = "rng"
        elif not pending and now >= self.channel.bus_free_at:
            kind = "idle"
        else:
            kind = "busy"
        if kind == self._skip_kind:
            return
        if self._skip_kind is not None:
            self._apply_skip(now)
        self._skip_kind = kind
        self._skip_from = now
        self._skip_streak = not pending
        if kind == "idle" and self.fill_policy is not None:
            # Idle segments replay the fill policy's per-cycle checks at
            # close time; snapshot the state those checks must run under
            # (the shared buffer can change before the segment closes).
            self._skip_fill_gate = self.fill_policy.begin_idle_skip(self)

    def catch_up(self, now: int) -> None:
        """Close the deferred quiet segment before state changes at ``now``."""
        if self._skip_kind is not None:
            self._apply_skip(now)
            self._skip_kind = None

    # ------------------------------------------------------------------ batched serving

    def serve_batch(self, now: int, limit: int) -> None:
        """Resolve every serve decision in cycles ``[now, limit)`` in one call.

        The engine calls this instead of per-cycle dispatch when the
        decision inputs are provably stable across the window (see
        :meth:`EventEngine._serve_window_end <repro.sim.engine.EventEngine>`):

        * no request arrives at this controller during the window (every
          core is window-stalled and the RNG subsystem is quiet),
        * the controller is in Regular Execution Mode with pending regular
          work throughout the window (no idle transition, so the idle
          streak and fill policy stay untouched),
        * no RNG-type request is queued (serving one would switch modes),
        * the within-queue scheduler has no event in the window (e.g. a
          BLISS clearing boundary),
        * no completion inside the window re-activates a core (waking
          completions bound the window), and
        * the fill policy reports no low-utilisation hazard at ``now``.

        Under those preconditions every tick in the window is either a
        quiet busy tick (constant counter deltas, applied in bulk) or a
        serve tick whose decision depends only on controller-local state —
        so the reference tick sequence is replayed exactly, just without
        returning to the engine between cycles.  Completions due inside
        the window fire at their recorded cycles' effects (the latency a
        callback records uses the request's own ``completion_cycle``) and
        only flip mid-window slots, which no stalled core observes before
        the window ends.
        """
        inflight = self._inflight
        read_queue = self.read_queue
        read_entries = read_queue._entries
        write_entries = self.write_queue._entries
        channel = self.channel
        lookahead = self._issue_lookahead
        backend_latency = self._backend_latency
        inflight_counter = self._inflight_counter
        stats = self.stats
        scheduler = self.scheduler
        # Per-serve call targets resolved once per window: the scheduler's
        # scan and bookkeeping hooks, the channel's access model and the
        # heap primitives are all loop-invariant.
        select_index = scheduler.select_index
        notify_served = scheduler.notify_served
        service_access = channel.service_access
        remove_at = read_queue.remove_at
        heappush = heapq.heappush
        heappop = heapq.heappop
        # The RNG-oblivious baseline policy reduces to the within-queue
        # scheduler when the RNG queue is empty (guaranteed in a serve
        # window) — bypass the policy layer for it.  No request arrives
        # during the window, so a read-only backlog stays read-only and
        # the write-drain hysteresis cannot engage: the branch holds for
        # the whole window and is hoisted out of the loop.
        fast = self._fast_policy and not write_entries and not self._write_draining

        # Close any quiet segment deferred from before the window; the
        # cycles [now, first serve point) are accounted inline below.
        if self._skip_kind is not None:
            self.catch_up(now)

        t = channel.bus_free_at - lookahead
        if t < now:
            t = now
        elif t > now:
            # Quiet busy lead-in (the bus is still draining): same bulk
            # accounting as `skip_cycles` with kind "busy" and pending
            # regular work (no idle streak).
            lead = min(t, limit) - now
            stats.busy_cycles += lead
            read_queue.bulk_sample_occupancy(lead)

        while t < limit and (read_entries or write_entries):
            # Faithful replay of `tick(t)`: the scheduler has no event in
            # the window (its per-cycle hook is a no-op by the
            # next_event_cycle contract), completions due fire first, the
            # cycle is busy (pending regular work, never idle), occupancy
            # is sampled before scheduling, and the fill check was proven
            # false for the whole window by the pre-flight.
            while inflight and inflight[0][0] <= t:
                completion, _, request = heappop(inflight)
                request.completion_cycle = completion
                callback = request.callback
                if callback is not None:
                    callback(request)
                pool = request.pool
                if pool is not None:
                    pool.append(request)
            stats.busy_cycles += 1
            read_queue.occupancy_samples += 1
            read_queue.occupancy_sum += len(read_entries)
            if fast:
                index = select_index(read_queue, self, t)
                if index >= 0:
                    # Read issue inlined (the window preconditions
                    # guarantee the read queue holds only decoded
                    # non-RNG reads): body of _issue_regular's read
                    # branch, minus the identity re-scan remove() and
                    # the write-path tests.
                    request = remove_at(index)
                    request.issue_cycle = t
                    decoded = request.decoded
                    if decoded is None:
                        decoded = self.decode(request)
                    finish, _ = service_access(
                        decoded.flat_bank, decoded.row, t, is_write=False
                    )
                    notify_served(request, t)
                    stats.served_reads += 1
                    completion = finish + backend_latency
                    heappush(
                        inflight, (completion, next(inflight_counter), request)
                    )
                    slot = request.window_slot
                    if slot is not None:
                        slot.ready_at = completion
            else:
                self._schedule_regular(t)
            nxt = channel.bus_free_at - lookahead
            if nxt <= t:
                nxt = t + 1
            elif nxt > limit:
                nxt = limit
            gap = nxt - t - 1
            if gap > 0:
                stats.busy_cycles += gap
                read_queue.bulk_sample_occupancy(gap)
            t = nxt

        if t < limit:
            # Work ran out (reads all in flight): the rest of the window
            # is quiet busy cycles.
            tail = limit - t
            stats.busy_cycles += tail
            read_queue.bulk_sample_occupancy(tail)

        # Completions due strictly inside the window fire before the
        # engine resumes; one due exactly at `limit` is the next event.
        while inflight and inflight[0][0] < limit:
            completion, _, request = heappop(inflight)
            request.completion_cycle = completion
            callback = request.callback
            if callback is not None:
                callback(request)
            pool = request.pool
            if pool is not None:
                pool.append(request)

        # Prime the event-bound cache for the engine's next probe (every
        # constituent is at or past `limit` by the window preconditions);
        # with no work left, fall back to a normal recompute.
        if read_entries or write_entries:
            self._prime_queued_bound(limit)
        else:
            self._bound_cache_valid = False

    def _apply_skip(self, end: int) -> None:
        """Apply the deferred segment's counters for cycles ``[from, end)``."""
        skipped = end - self._skip_from
        if skipped <= 0:
            return
        stats = self.stats
        kind = self._skip_kind
        if self._skip_streak:
            self.idle_streak += skipped
        if kind == "idle":
            stats.idle_cycles += skipped
            if self.fill_policy is not None:
                self.fill_policy.skip_idle_cycles(self, skipped, self._skip_fill_gate)
        elif kind == "busy":
            stats.busy_cycles += skipped
        else:
            stats.rng_mode_cycles += skipped
        queue = self.read_queue
        queue.occupancy_samples += skipped
        queue.occupancy_sum += skipped * len(queue._entries)

    # ------------------------------------------------------------------ completion

    def _complete_finished(self, now: int) -> None:
        while self._inflight and self._inflight[0][0] <= now:
            completion, _, request = heapq.heappop(self._inflight)
            request.completion_cycle = completion
            callback = request.callback
            if callback is not None:
                callback(request)
            pool = request.pool
            if pool is not None:
                pool.append(request)

    # ------------------------------------------------------------------ RNG mode

    def _advance_rng_mode(self, now: int) -> None:
        op = self._rng_op
        if self.mode is not ExecutionMode.RNG or op is None:
            return
        if now < op.segment_end:
            return

        if op.purpose == "demand":
            self.stats.served_rng_demand += 1
            if op.request is not None:
                op.request.complete(now)
            # Serve further queued RNG requests back-to-back while the
            # channel is already in RNG mode: batching them avoids paying
            # the timing-parameter switch penalty per request (Section 1:
            # "RNG requests are received in bursts and served together").
            chained = self._chain_demand_rng(now)
            if not chained:
                self._exit_rng_mode(now)
            return

        # Buffer-filling batch completed.
        self.stats.rng_fill_batches += 1
        self.stats.rng_fill_bits += op.bits_in_segment
        if self.fill_policy is not None:
            self.fill_policy.batch_generated(self, op.bits_in_segment, now)
        if self.fill_policy is not None and self.fill_policy.should_continue_fill(self, now):
            bits = self.trng.bits_per_batch(self.organization.banks_per_channel)
            duration = self.trng.batch_latency_cycles
            end = self.channel.occupy_for_rng(now, duration, bits)
            self._rng_op = _RNGOperation("fill", end, bits)
        else:
            self._exit_rng_mode(now)

    def _exit_rng_mode(self, now: int) -> None:
        penalty = self.config.rng_mode_switch_penalty
        if penalty:
            self.channel.occupy_for_rng(now, penalty, 0)
        self.mode = ExecutionMode.REGULAR
        self._rng_op = None
        self.stats.mode_switches += 1

    def _enter_rng_mode(self, now: int) -> int:
        """Pay the entry penalty; return the cycle RNG work can start."""
        self.mode = ExecutionMode.RNG
        self.stats.mode_switches += 1
        penalty = self.config.rng_mode_switch_penalty
        if penalty:
            return self.channel.occupy_for_rng(now, penalty, 0)
        return now

    def _start_demand_rng(self, queue: RequestQueue, request: Request, now: int) -> None:
        if self.trng is None:
            raise RuntimeError("controller has no TRNG model but received an RNG request")
        queue.remove(request)
        self.scheduler.notify_served(request, now)
        request.issue_cycle = now
        start = self._enter_rng_mode(now)
        duration = self.trng.demand_latency_cycles(
            request.rng_bits,
            self.organization.channels,
            self.organization.banks_per_channel,
            self.dram.timing.bus_frequency_mhz,
        )
        end = self.channel.occupy_for_rng(start, duration, request.rng_bits)
        self._rng_op = _RNGOperation("demand", end, request.rng_bits, request)

    def _chain_demand_rng(self, now: int) -> bool:
        """Start the next queued RNG request without leaving RNG mode."""
        selection = self.queue_policy.select(self, now)
        if selection is None:
            return False
        queue, request = selection
        if request is None or request.type is not RequestType.RNG:
            return False
        queue.remove(request)
        self.scheduler.notify_served(request, now)
        request.issue_cycle = now
        duration = self.trng.demand_latency_cycles(
            request.rng_bits,
            self.organization.channels,
            self.organization.banks_per_channel,
            self.dram.timing.bus_frequency_mhz,
        )
        end = self.channel.occupy_for_rng(now, duration, request.rng_bits)
        self._rng_op = _RNGOperation("demand", end, request.rng_bits, request)
        self.stats.rng_chained_demand += 1
        return True

    def _start_fill(self, now: int) -> None:
        if self.trng is None:
            raise RuntimeError("controller has no TRNG model but was asked to fill the buffer")
        start = self._enter_rng_mode(now)
        bits = self.trng.bits_per_batch(self.organization.banks_per_channel)
        duration = self.trng.batch_latency_cycles
        end = self.channel.occupy_for_rng(start, duration, bits)
        self._rng_op = _RNGOperation("fill", end, bits)
        if self.read_queue:
            self.stats.low_utilization_fills += 1

    # ------------------------------------------------------------------ regular mode

    def _schedule_regular(self, now: int) -> None:
        if self.channel.bus_free_at - now > self._issue_lookahead:
            return

        if self._should_drain_writes():
            request = self._select_write(now)
            if request is not None:
                self._issue_regular(self.write_queue, request, now)
            return

        if self._fast_policy:
            # Baseline policy inlined: within-queue scheduler over the
            # read queue, then the stray-RNG-queue drain it falls back to.
            read_queue = self.read_queue
            index = self.scheduler.select_index(read_queue, self, now)
            if index >= 0:
                request = read_queue._entries[index]
                if request.type is RequestType.RNG:
                    self._start_demand_rng(read_queue, request, now)
                else:
                    read_queue.remove_at(index)
                    self._issue_removed(request, now)
                return
            rng_queue = self.rng_queue
            if rng_queue is not None and rng_queue._entries:
                self._start_demand_rng(rng_queue, rng_queue._entries[0], now)
                return
        else:
            selection = self.queue_policy.select(self, now)
            if selection is not None:
                queue, request = selection
                if request.type is RequestType.RNG:
                    self._start_demand_rng(queue, request, now)
                else:
                    self._issue_regular(queue, request, now)
                return

        # Opportunistic write issue when there is nothing else to do.
        if self.write_queue._entries:
            request = self._select_write(now)
            if request is not None:
                self._issue_regular(self.write_queue, request, now)

    def _should_drain_writes(self) -> bool:
        occupancy = len(self.write_queue._entries)
        if self._write_draining:
            if occupancy <= self._write_drain_low:
                self._write_draining = False
        elif occupancy >= self._write_drain_high:
            self._write_draining = True
        return self._write_draining

    def _select_write(self, now: int) -> Optional[Request]:
        # Writes are served oldest-first with a row-hit preference; the
        # scan walks the queue's preextracted bank/row slot arrays.
        queue = self.write_queue
        entries = queue._entries
        if not entries:
            return None
        open_rows = self.channel.open_rows
        rows = queue._rows
        for index, bank in enumerate(queue._banks):
            if bank == -2:  # SLOT_UNDECODED: direct queue use (tests).
                bank = queue.repair_slot(index, self)
            if bank >= 0 and open_rows[bank] == rows[index]:
                return entries[index]
        return entries[0]

    def _issue_regular(self, queue: RequestQueue, request: Request, now: int) -> None:
        queue.remove(request)
        self._issue_removed(request, now)

    def _issue_removed(self, request: Request, now: int) -> None:
        """Issue a request already dequeued by the caller."""
        request.issue_cycle = now
        decoded = request.decoded
        if decoded is None:
            decoded = self.decode(request)
        is_write = request.type is RequestType.WRITE
        finish, _ = self.channel.service_access(
            decoded.flat_bank,
            decoded.row,
            now,
            is_write=is_write,
        )
        self.scheduler.notify_served(request, now)
        if is_write:
            self.stats.served_writes += 1
            request.completion_cycle = finish
            callback = request.callback
            if callback is not None:
                callback(request)
            # Writes complete at issue; recycle the request into its
            # per-core arena right away.
            pool = request.pool
            if pool is not None:
                pool.append(request)
        else:
            self.stats.served_reads += 1
            completion = finish + self._backend_latency
            heapq.heappush(self._inflight, (completion, next(self._inflight_counter), request))
            # Publish the completion cycle on the core's window slot so
            # the batched-serve pre-flight can bound windows by waking
            # completions without scanning the in-flight heap.
            slot = request.window_slot
            if slot is not None:
                slot.ready_at = completion

    # ------------------------------------------------------------------ finalisation

    def flush_idle_period(self) -> None:
        """Record a trailing idle period at the end of a simulation."""
        if self.idle_streak > 0:
            self.stats.idle_periods.append(self.idle_streak)
            self.idle_streak = 0
