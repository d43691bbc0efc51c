"""Application-level RNG request handling.

The :class:`RNGSubsystem` sits between the cores and the per-channel
memory controllers.  When an application requests a random number it

1. marks the application as an RNG application (Section 5.2.1),
2. tries to serve the request from the random number buffer with a small
   fixed latency (Section 5.1), and otherwise
3. splits the request into one per-channel RNG request — the memory
   controller uses all channels in parallel to minimise RNG latency
   (Section 3) — enqueues them (into the dedicated RNG queues for
   RNG-aware designs, or into the regular read queues for the
   RNG-oblivious baseline), and completes the application request when
   every per-channel share has been generated.

The subsystem also owns the delayed-completion machinery for buffer
serves and retries enqueues that bounce off full queues.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..controller.memory_controller import ChannelController
from ..controller.request import Request, RequestType, next_request_id
from .rng_buffer import RandomNumberBuffer
from .rng_scheduler import ApplicationRegistry


@dataclass
class RNGSubsystemStats:
    """Counters of application-level RNG request handling."""

    requests: int = 0
    buffer_serves: int = 0
    demand_generations: int = 0
    bits_requested: int = 0
    latency_sum: int = 0

    @property
    def buffer_serve_rate(self) -> float:
        return self.buffer_serves / self.requests if self.requests else 0.0


class _PendingGeneration:
    """Book-keeping for one in-flight demand generation."""

    __slots__ = ("core_id", "callback", "outstanding", "start_cycle")

    def __init__(self, core_id: int, callback: Callable[[int], None], outstanding: int, start_cycle: int):
        self.core_id = core_id
        self.callback = callback
        self.outstanding = outstanding
        self.start_cycle = start_cycle


class _BufferServeCompletion:
    """Deferred completion of a buffer-served RNG request.

    A class (not a closure) so the deferred-completion heap stays
    serialisable by :mod:`repro.sim.checkpoint`.
    """

    __slots__ = ("subsystem", "callback", "start_cycle")

    def __init__(self, subsystem: "RNGSubsystem", callback: Callable[[int], None], start_cycle: int):
        self.subsystem = subsystem
        self.callback = callback
        self.start_cycle = start_cycle

    def __call__(self, cycle: int) -> None:
        self.subsystem.stats.latency_sum += cycle - self.start_cycle
        self.callback(cycle)


class _ShareCompletion:
    """Per-channel share callback of one in-flight demand generation.

    Every share of a generation carries a callback referencing the same
    :class:`_PendingGeneration`; identity of that shared object is what
    completes the application request exactly once.  A class (not a
    closure) so outstanding RNG requests stay serialisable by
    :mod:`repro.sim.checkpoint` (pickle's memo preserves the sharing).
    """

    __slots__ = ("subsystem", "pending")

    def __init__(self, subsystem: "RNGSubsystem", pending: _PendingGeneration) -> None:
        self.subsystem = subsystem
        self.pending = pending

    def __call__(self, request: Request) -> None:
        pending = self.pending
        subsystem = self.subsystem
        pending.outstanding -= 1
        if pending.outstanding == 0:
            completion = (
                request.completion_cycle if request.completion_cycle is not None else subsystem.now
            )
            subsystem.stats.latency_sum += completion - pending.start_cycle
            pending.callback(completion)


class RNGSubsystem:
    """Routes application random number requests to the memory system."""

    def __init__(
        self,
        controllers: Sequence[ChannelController],
        registry: ApplicationRegistry,
        buffer: Optional[RandomNumberBuffer] = None,
        buffer_serve_latency: int = 2,
        new_request_id: Callable[[], int] = next_request_id,
    ) -> None:
        if not controllers:
            raise ValueError("the RNG subsystem needs at least one channel controller")
        if buffer_serve_latency < 0:
            raise ValueError("buffer_serve_latency must be non-negative")
        self.controllers = list(controllers)
        self.registry = registry
        self.buffer = buffer
        self.buffer_serve_latency = buffer_serve_latency
        #: Source of RNG request ids: the owning system's counter, so
        #: RNG shares and core requests are numbered in creation order.
        self.new_request_id = new_request_id
        self.stats = RNGSubsystemStats()

        self.now = 0
        self._deferred: List[tuple[int, int, Callable[[int], None]]] = []
        #: Tie-break of equal-cycle deferred completions (FIFO).
        self._deferred_seq = 0
        self._retry_queue: List[tuple[ChannelController, Request]] = []

    # -- time ----------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance the subsystem: fire deferred completions, retry enqueues."""
        self.now = now
        while self._deferred and self._deferred[0][0] <= now:
            cycle, _, callback = heapq.heappop(self._deferred)
            callback(cycle)
        if self._retry_queue:
            remaining: List[tuple[ChannelController, Request]] = []
            for controller, request in self._retry_queue:
                if not controller.enqueue(request):
                    remaining.append((controller, request))
            self._retry_queue = remaining

    def _defer(self, cycle: int, callback: Callable[[int], None]) -> None:
        seq = self._deferred_seq
        self._deferred_seq = seq + 1
        heapq.heappush(self._deferred, (cycle, seq, callback))

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Lower bound on the next cycle at which :meth:`tick` changes state.

        Deferred completions are a heap, so the head is the earliest
        event.  A non-empty retry queue re-attempts enqueues every cycle
        (each failed push mutates queue statistics and consumes nothing),
        so it forces normal ticking until it drains.
        """
        if self._retry_queue:
            return now
        if self._deferred:
            head = self._deferred[0][0]
            return now if head <= now else head
        return None

    def skip_cycles(self, now: int, target: int) -> None:
        """Apply the quiet ticks for cycles ``[now, target)`` (clock only)."""
        self.now = target - 1

    # -- application interface -------------------------------------------------------

    def request_random(self, bits: int, core_id: int, callback: Callable[[int], None]) -> None:
        """Handle an application's request for ``bits`` random bits.

        ``callback(completion_cycle)`` is invoked when the bits are ready.
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.registry.mark_rng_application(core_id)
        self.stats.requests += 1
        self.stats.bits_requested += bits
        start_cycle = self.now

        if self.buffer is not None and self.buffer.take(bits):
            self.stats.buffer_serves += 1
            completion = start_cycle + self.buffer_serve_latency
            self._defer(completion, _BufferServeCompletion(self, callback, start_cycle))
            return

        self.stats.demand_generations += 1
        self._generate_on_demand(bits, core_id, callback, start_cycle)

    # -- demand generation -------------------------------------------------------------

    def _generate_on_demand(
        self, bits: int, core_id: int, callback: Callable[[int], None], start_cycle: int
    ) -> None:
        num_channels = len(self.controllers)
        share = max(1, math.ceil(bits / num_channels))
        pending = _PendingGeneration(core_id, callback, num_channels, start_cycle)

        for controller in self.controllers:
            request = Request(
                type=RequestType.RNG,
                core_id=core_id,
                rng_bits=share,
                arrival_cycle=self.now,
                priority=self.registry.priority(core_id),
                callback=_ShareCompletion(self, pending),
                request_id=self.new_request_id(),
            )
            if not controller.enqueue(request):
                self._retry_queue.append((controller, request))

    # -- convenience -----------------------------------------------------------------

    @property
    def buffer_serve_rate(self) -> float:
        return self.stats.buffer_serve_rate
