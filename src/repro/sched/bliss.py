"""The Blacklisting memory scheduler (BLISS).

BLISS (Subramanian et al., ICCD 2014 / TPDS 2016) observes that ranking
schedulers are complex and instead separates applications into just two
groups: *blacklisted* (recently served many consecutive requests, i.e.
likely interference-causing) and *non-blacklisted*.  The scheduling order
is:

1. non-blacklisted applications' requests first,
2. then row-buffer hits,
3. then the oldest request.

An application is blacklisted when ``blacklisting_threshold`` of its
requests are served back-to-back; the blacklist is cleared every
``clearing_interval`` cycles.  The paper evaluates BLISS with a threshold
of 4 and a clearing interval of 10 000 cycles (Section 8.4, footnote 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from ..controller.queues import RequestQueue
from ..controller.request import Request
from .base import MemoryScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..controller.memory_controller import ChannelController


class BLISS(MemoryScheduler):
    """Blacklisting memory scheduler."""

    name = "bliss"

    def __init__(self, blacklisting_threshold: int = 4, clearing_interval: int = 10_000) -> None:
        if blacklisting_threshold <= 0:
            raise ValueError("blacklisting_threshold must be positive")
        if clearing_interval <= 0:
            raise ValueError("clearing_interval must be positive")
        self.blacklisting_threshold = blacklisting_threshold
        self.clearing_interval = clearing_interval
        self.blacklist: Set[int] = set()
        self._last_served_core: Optional[int] = None
        self._consecutive_served = 0
        self._last_clear_cycle = 0
        # Statistics.
        self.blacklist_events = 0
        self.clear_events = 0

    # -- scheduling ---------------------------------------------------------------

    def select_index(
        self,
        queue: RequestQueue,
        controller: "ChannelController",
        now: int,
    ) -> int:
        best_index = -1
        best_key = None
        blacklist = self.blacklist
        open_rows = controller.channel.open_rows
        rows = queue._rows
        qbanks = queue._banks
        for index, request in enumerate(queue._entries):
            bank = qbanks[index]
            if bank == -2:  # SLOT_UNDECODED: direct queue use (tests).
                bank = queue.repair_slot(index, controller)
            row_hit = bank >= 0 and open_rows[bank] == rows[index]
            key = (
                0 if request.core_id not in blacklist else 1,
                0 if row_hit else 1,
                request.arrival_cycle,
                request.request_id,
            )
            if best_key is None or key < best_key:
                best_index, best_key = index, key
        return best_index

    def select(
        self,
        queue: RequestQueue,
        controller: "ChannelController",
        now: int,
    ) -> Optional[Request]:
        index = self.select_index(queue, controller, now)
        return None if index < 0 else queue._entries[index]

    # -- bookkeeping --------------------------------------------------------------

    def notify_served(self, request: Request, now: int) -> None:
        core = request.core_id
        if core == self._last_served_core:
            self._consecutive_served += 1
        else:
            self._last_served_core = core
            self._consecutive_served = 1
        if self._consecutive_served >= self.blacklisting_threshold and core not in self.blacklist:
            self.blacklist.add(core)
            self.blacklist_events += 1

    def tick(self, now: int) -> None:
        if now - self._last_clear_cycle >= self.clearing_interval:
            if self.blacklist:
                self.clear_events += 1
            self.blacklist.clear()
            self._last_clear_cycle = now

    def next_event_cycle(self, now: int) -> Optional[int]:
        # The blacklist-clearing boundary must be ticked exactly: clearing
        # resets ``_last_clear_cycle`` to the cycle it runs at, so jumping
        # past the boundary would shift every later clearing interval.
        return self._last_clear_cycle + self.clearing_interval

    def reset(self) -> None:
        self.blacklist.clear()
        self._last_served_core = None
        self._consecutive_served = 0
        self._last_clear_cycle = 0
