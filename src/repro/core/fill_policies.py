"""Buffer-filling policies (Section 5.1).

A *fill policy* decides when a channel controller should generate random
numbers for the random number buffer:

* :class:`DRStrangeFillPolicy` — DR-STRaNGe's policy: during idle periods
  the DRAM idleness predictor decides whether the period is long enough
  to generate a batch; with the low-utilisation extension, periods where
  the read queue holds fewer than ``low_utilization_threshold`` requests
  are also used.  Without a predictor it degenerates to the *simple
  buffering mechanism* of Section 5.1.1 (fill on every idle cycle).
* :class:`GreedyIdleFillPolicy` — the Greedy Idle comparison point of
  Section 7: whenever an idle period reaches the period threshold, eight
  random bits appear in the buffer at **zero cost** (no RNG mode, no
  interference).  It is an idealised upper bound for idle-period-only
  buffering.
* :class:`NoFillPolicy` — never fills (used for the buffer-size "No
  Buffer" ablation point and for scheduler-only studies).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..controller.memory_controller import ExecutionMode
from .idleness_predictor import IdlenessPredictor
from .rng_buffer import RandomNumberBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..controller.memory_controller import ChannelController


class NoFillPolicy:
    """A fill policy that never generates random numbers ahead of demand."""

    name = "none"

    def on_idle_cycle(self, controller: "ChannelController", now: int) -> None:
        return None

    def should_start_fill(self, controller: "ChannelController", now: int) -> bool:
        return False

    def batch_generated(self, controller: "ChannelController", bits: int, now: int) -> None:
        return None

    def should_continue_fill(self, controller: "ChannelController", now: int) -> bool:
        return False

    # -- cycle-skipping support (see :mod:`repro.sim.engine`) ----------------------

    def idle_event_cycle(self, controller: "ChannelController", now: int) -> Optional[int]:
        """Earliest idle cycle at which this policy changes state (``None`` = never).

        Called by the event engine when ``controller`` is idle at ``now``
        and will stay idle; returning ``now`` forces a normal tick.
        """
        return None

    def begin_idle_skip(self, controller: "ChannelController"):
        """Snapshot the policy state a deferred idle segment must replay under.

        Called when the controller *opens* a deferred idle segment; the
        returned token is handed back to :meth:`skip_idle_cycles` when the
        segment closes.  The segment's cycles all happened under the state
        current at open time — a shared-buffer change after the open
        forces the segment closed at the engine's next probe, so close-time
        state may already differ from the state every covered tick saw.
        """
        return None

    def skip_idle_cycles(self, controller: "ChannelController", cycles: int, gate=None) -> None:
        """Replicate the effects of ``cycles`` quiet idle ticks in bulk.

        ``gate`` is the token :meth:`begin_idle_skip` returned when the
        segment opened.
        """
        return None

    def serve_window_hazard(self, controller: "ChannelController", now: int) -> bool:
        """Whether this policy could start a fill while ``controller`` serves.

        Consulted by the batched-serve pre-flight for a *busy* controller
        (pending regular work throughout the window).  Only a policy whose
        ``should_start_fill`` can return ``True`` outside idle cycles — the
        low-utilisation extension — ever reports a hazard; this policy never
        fills, so serving windows are always safe.
        """
        return False


class DRStrangeFillPolicy:
    """DR-STRaNGe's predictor-guided buffer-filling policy."""

    name = "dr-strange"

    def __init__(
        self,
        buffer: RandomNumberBuffer,
        predictors: Optional[Dict[int, IdlenessPredictor]] = None,
        low_utilization_threshold: int = 4,
    ) -> None:
        if low_utilization_threshold < 0:
            raise ValueError("low_utilization_threshold must be non-negative")
        self.buffer = buffer
        self.predictors = predictors or {}
        self.low_utilization_threshold = low_utilization_threshold
        # Statistics.
        self.idle_fill_starts = 0
        self.low_utilization_fill_starts = 0

    def predictor_for(self, controller: "ChannelController") -> Optional[IdlenessPredictor]:
        return self.predictors.get(controller.channel_id)

    # -- hooks used by the channel controller --------------------------------------

    def on_idle_cycle(self, controller: "ChannelController", now: int) -> None:
        return None

    def should_start_fill(self, controller: "ChannelController", now: int) -> bool:
        # Runs on every controller tick, so the buffer, predictor, idle
        # and occupancy tests read plain attributes.  Idle: no regular
        # work queued or in flight, the data bus free, Regular Execution
        # Mode.
        buffer = self.buffer
        capacity = buffer.capacity_bits
        if capacity == 0 or buffer._available_bits >= capacity:
            return False

        channel = controller.channel
        predictor = self.predictors.get(channel.channel_id)
        read_entries = controller.read_queue._entries
        bus_free = now >= channel.bus_free_at

        if (
            not read_entries
            and not controller.write_queue._entries
            and not controller._inflight
            and bus_free
            and controller.mode is ExecutionMode.REGULAR
        ):
            if predictor is None:
                # Simple buffering mechanism: use every idle cycle.
                self.idle_fill_starts += 1
                return True
            if predictor.predict_and_record(controller.last_accessed_address):
                self.idle_fill_starts += 1
                return True
            return False

        # Low-utilisation extension: a channel whose read queue holds fewer
        # than the threshold is also used, guided by the same predictor.
        threshold = self.low_utilization_threshold
        if (
            predictor is not None
            and threshold > 0
            and 0 < len(read_entries) < threshold
            and bus_free
        ):
            if predictor.predict(controller.last_accessed_address):
                self.low_utilization_fill_starts += 1
                return True
        return False

    def batch_generated(self, controller: "ChannelController", bits: int, now: int) -> None:
        self.buffer.add_bits(bits)

    def should_continue_fill(self, controller: "ChannelController", now: int) -> bool:
        if self.buffer.is_full:
            return False
        # Generation stops as soon as a new regular request arrives at the
        # channel (Section 5.1); RNG demand requests waiting in the RNG
        # queue also terminate filling so they can be served.
        if controller.read_queue._entries or controller.write_queue._entries:
            return False
        rng_queue = controller.rng_queue
        return rng_queue is None or not rng_queue._entries

    # -- cycle-skipping support (see :mod:`repro.sim.engine`) ----------------------

    def idle_event_cycle(self, controller: "ChannelController", now: int) -> Optional[int]:
        """``now`` when a fill would start this idle cycle, else ``None``.

        While the controller stays idle the predictor's inputs (the last
        accessed address and its table) cannot change, so a negative
        prediction stays negative for the whole idle stretch.  Without a
        predictor the simple buffering mechanism fills on every idle
        cycle, which makes every idle cycle an event.
        """
        if self.buffer.capacity_bits == 0 or self.buffer.is_full:
            return None
        predictor = self.predictor_for(controller)
        if predictor is None:
            return now
        if predictor.predict(controller.last_accessed_address):
            return now
        return None

    def begin_idle_skip(self, controller: "ChannelController"):
        """Whether the buffer could accept bits when the segment opened.

        The full/empty state gates every predictor touch in
        :meth:`should_start_fill`; it must be sampled when the deferred
        idle segment *opens*, because a demand take elsewhere can drain
        the buffer at the very cycle the segment closes — the reference
        ticks the segment replaces all saw the open-time state (any
        earlier buffer change invalidates the controller's event bound
        and closes the segment at the engine's next probe).
        """
        return self.buffer.capacity_bits != 0 and not self.buffer.is_full

    def skip_idle_cycles(self, controller: "ChannelController", cycles: int, gate=None) -> None:
        # ``should_start_fill`` would have called ``predict_and_record``
        # once per skipped idle cycle; only the first call of an idle
        # period records a pending prediction and ``predict`` itself is
        # pure, so a single call replicates all of them — under the
        # buffer state of the segment's *open* (``gate``), not of its
        # close.
        if not gate:
            return
        predictor = self.predictor_for(controller)
        if predictor is not None:
            predictor.predict_and_record(controller.last_accessed_address)

    def serve_window_hazard(self, controller: "ChannelController", now: int) -> bool:
        """Whether the low-utilisation extension could fire during a serve window.

        Mirrors :meth:`should_start_fill`'s non-idle branch at ``now``.
        Once the controller issues a request the data bus stays ahead of
        every later serve point (the issue lookahead keeps serve points
        strictly before ``bus_free_at``), so with a positive lookahead the
        only cycle of a serve window at which the bus can be observed free
        is the first one — which is exactly the cycle this is evaluated
        at.  The reference tick at ``now`` would make the same single
        ``predictor.predict`` call (``predict`` is idempotent for a fixed
        table and address), so evaluating the hazard here is bit-identical
        to the per-cycle check it replaces.  A zero lookahead makes every
        serve point bus-free; that configuration conservatively reports a
        standing hazard instead of reasoning about occupancy trajectories.
        """
        if self.buffer.capacity_bits == 0 or self.buffer.is_full:
            return False
        if self.low_utilization_threshold <= 0:
            return False
        predictor = self.predictor_for(controller)
        if predictor is None:
            return False
        if controller.config.issue_lookahead <= 0:
            return True
        occupancy = controller.read_queue_occupancy()
        if not 0 < occupancy < self.low_utilization_threshold:
            return False
        if not controller.channel.is_bus_free(now):
            return False
        return predictor.predict(controller.last_accessed_address)


class GreedyIdleFillPolicy:
    """The idealised Greedy Idle buffer-filling design (Section 7).

    Whenever a channel has been idle for ``period_threshold`` consecutive
    cycles, a batch of random bits is added to the buffer at no cost: the
    channel is never put into RNG mode, so filling causes no interference
    at all.  This is the zero-overhead comparison point the paper uses to
    upper-bound what idle-period-only buffering could achieve.
    """

    name = "greedy-idle"

    def __init__(
        self,
        buffer: RandomNumberBuffer,
        period_threshold: int = 40,
        bits_per_batch: int = 8,
    ) -> None:
        if period_threshold <= 0:
            raise ValueError("period_threshold must be positive")
        if bits_per_batch <= 0:
            raise ValueError("bits_per_batch must be positive")
        self.buffer = buffer
        self.period_threshold = period_threshold
        self.bits_per_batch = bits_per_batch
        self.free_batches = 0

    def on_idle_cycle(self, controller: "ChannelController", now: int) -> None:
        if self.buffer.is_full:
            return
        # One free batch per idle period, granted the moment the period
        # reaches the threshold ("If an idle period reaches the Period
        # Threshold, we assume we fill the buffer with 8 random bits
        # without any overhead", Section 7).
        if controller.idle_streak == self.period_threshold:
            self.buffer.add_bits(self.bits_per_batch)
            self.free_batches += 1

    def should_start_fill(self, controller: "ChannelController", now: int) -> bool:
        return False

    def batch_generated(self, controller: "ChannelController", bits: int, now: int) -> None:
        self.buffer.add_bits(bits)

    def should_continue_fill(self, controller: "ChannelController", now: int) -> bool:
        return False

    # -- cycle-skipping support (see :mod:`repro.sim.engine`) ----------------------

    def idle_event_cycle(self, controller: "ChannelController", now: int) -> Optional[int]:
        """The idle cycle at which the streak reaches the period threshold.

        The free batch is granted the moment ``idle_streak`` *equals* the
        threshold; the tick at cycle ``c`` observes a streak of
        ``idle_streak + (c - now) + 1``.  Once the streak has passed the
        threshold the rest of the idle period has no events.  Buffer
        fullness is deliberately not consulted: it can change without any
        controller-visible event (another channel's fill, a demand take),
        so the threshold crossing is reported as an event either way and
        the regular tick there decides.
        """
        remaining = self.period_threshold - controller.idle_streak - 1
        if remaining < 0:
            return None
        return now + remaining

    def begin_idle_skip(self, controller: "ChannelController"):
        return None

    def skip_idle_cycles(self, controller: "ChannelController", cycles: int, gate=None) -> None:
        return None

    def serve_window_hazard(self, controller: "ChannelController", now: int) -> bool:
        """Greedy Idle only acts on idle cycles; serving windows are safe."""
        return False
