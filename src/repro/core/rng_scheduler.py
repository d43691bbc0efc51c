"""The RNG-aware memory request scheduler (Section 5.2).

DR-STRaNGe keeps RNG requests in a separate per-channel RNG queue and
decides each scheduling step whether to serve the RNG queue or the
regular read queue, based on the OS-assigned priorities of the running
applications:

* **RNG prioritised** — if an RNG application with a pending RNG request
  has higher priority than every non-RNG application with a pending
  regular request, the RNG queue is chosen until it drains.
* **Non-RNG prioritised** — otherwise the regular read queue is chosen,
  except when its oldest request belongs to an RNG application and
  arrived *after* the oldest RNG request (serving the older RNG request
  first prevents starving the RNG application behind its own younger
  regular requests).
* **Equal priorities** — RNG requests are preferred, which minimises RNG
  interference by batching RNG work (Section 8.5 shows this does not hurt
  non-RNG applications).

A starvation-prevention counter tracks how long the deprioritised queue
has been stalled by priority-based decisions; when it reaches
``stall_limit`` the deprioritised queue is served once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from ..controller.queues import RequestQueue
from ..controller.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from ..controller.memory_controller import ChannelController


class ApplicationRegistry:
    """Shared record of application priorities and RNG-application status.

    The operating system assigns each application (core) a priority
    level; DR-STRaNGe additionally marks an application as an *RNG
    application* the first time it requests a random number
    (Section 5.2.1).  All channel controllers share one registry.
    """

    def __init__(self, priorities: Optional[Dict[int, int]] = None) -> None:
        self._priorities: Dict[int, int] = dict(priorities or {})
        self._rng_applications: Set[int] = set()

    def set_priority(self, core_id: int, priority: int) -> None:
        self._priorities[core_id] = priority

    def priority(self, core_id: int) -> int:
        return self._priorities.get(core_id, 0)

    def mark_rng_application(self, core_id: int) -> None:
        self._rng_applications.add(core_id)

    def is_rng_application(self, core_id: int) -> bool:
        return core_id in self._rng_applications

    @property
    def rng_applications(self) -> Set[int]:
        return set(self._rng_applications)


@dataclass
class RNGSchedulerStats:
    """Decision counters of the RNG-aware scheduler."""

    rng_queue_choices: int = 0
    regular_queue_choices: int = 0
    priority_inversions_prevented: int = 0
    starvation_interventions: int = 0


class RNGAwareQueuePolicy:
    """Per-channel queue-selection policy implementing the RNG-aware rules."""

    name = "rng-aware"

    def __init__(self, registry: ApplicationRegistry, stall_limit: int = 100) -> None:
        if stall_limit <= 0:
            raise ValueError("stall_limit must be positive")
        self.registry = registry
        self.stall_limit = stall_limit
        self.stats = RNGSchedulerStats()
        self._deprioritized: Optional[str] = None
        self._deprioritized_since: int = 0

    # -- queue selection ----------------------------------------------------------

    def select(
        self, controller: "ChannelController", now: int
    ) -> Optional[Tuple[RequestQueue, Request]]:
        read_queue = controller.read_queue
        rng_queue = controller.rng_queue

        has_rng = rng_queue is not None and len(rng_queue) > 0
        has_regular = len(read_queue) > 0

        if not has_rng and not has_regular:
            return None
        if not has_rng:
            return self._choose_regular(controller, read_queue, now, deprioritized=None, now_cycle=now)
        if not has_regular:
            return self._choose_rng(rng_queue, deprioritized=None, now_cycle=now)

        choice, deprioritized = self._priority_decision(controller, read_queue, rng_queue)

        # Starvation prevention: the stall-time counter measures how long
        # the deprioritised queue has been stalled by priority-based
        # decisions; once it reaches ``stall_limit`` cycles the scheduler
        # serves one request from the deprioritised queue (Section 5.2.1).
        if deprioritized is not None:
            if deprioritized != self._deprioritized:
                self._deprioritized = deprioritized
                self._deprioritized_since = now
            elif now - self._deprioritized_since >= self.stall_limit:
                self.stats.starvation_interventions += 1
                choice = deprioritized
                deprioritized = None

        if choice == "rng":
            return self._choose_rng(rng_queue, deprioritized, now_cycle=now)
        return self._choose_regular(controller, read_queue, now, deprioritized, now_cycle=now)

    def _priority_decision(
        self,
        controller: "ChannelController",
        read_queue: RequestQueue,
        rng_queue: RequestQueue,
    ) -> Tuple[str, Optional[str]]:
        registry = self.registry
        rng_priority = max(registry.priority(request.core_id) for request in rng_queue)
        non_rng_requests = [
            request
            for request in read_queue
            if not registry.is_rng_application(request.core_id)
        ]
        if non_rng_requests:
            regular_priority = max(registry.priority(r.core_id) for r in non_rng_requests)
        else:
            regular_priority = max(registry.priority(r.core_id) for r in read_queue)

        if rng_priority > regular_priority:
            return "rng", "regular"
        if regular_priority > rng_priority:
            oldest_regular = read_queue.oldest()
            oldest_rng = rng_queue.oldest()
            if (
                oldest_regular is not None
                and oldest_rng is not None
                and registry.is_rng_application(oldest_regular.core_id)
                and oldest_regular.arrival_cycle > oldest_rng.arrival_cycle
            ):
                # The RNG application's own regular request would otherwise
                # overtake its older RNG request.
                self.stats.priority_inversions_prevented += 1
                return "rng", None
            return "regular", "rng"
        # Equal priorities: pending row-buffer hits are served first (they
        # are nearly free and keep DRAM throughput high, as in FR-FCFS);
        # otherwise requests are ordered first-come-first-serve across the
        # two queues with ties broken towards the RNG queue, so a burst of
        # RNG requests is served back-to-back (batching avoids repeated
        # timing-parameter switches) without overtaking regular reads that
        # arrived before it.  Either way the decision counts towards
        # starvation prevention, so neither queue can be stalled for more
        # than ``stall_limit`` cycles.
        if self._has_row_hit(controller, read_queue):
            return "regular", None
        oldest_regular = read_queue.oldest()
        oldest_rng = rng_queue.oldest()
        if (
            oldest_regular is not None
            and oldest_rng is not None
            and oldest_regular.arrival_cycle < oldest_rng.arrival_cycle
        ):
            return "regular", "rng"
        return "rng", "regular"

    @staticmethod
    def _has_row_hit(controller: "ChannelController", read_queue: RequestQueue) -> bool:
        open_rows = controller.channel.open_rows
        rows = read_queue._rows
        for index, bank in enumerate(read_queue._banks):
            if bank == -2:  # SLOT_UNDECODED: direct queue use (tests).
                bank = read_queue.repair_slot(index, controller)
            if bank >= 0 and open_rows[bank] == rows[index]:
                return True
        return False

    def _choose_rng(
        self, rng_queue: RequestQueue, deprioritized: Optional[str], now_cycle: int
    ) -> Tuple[RequestQueue, Request]:
        self.stats.rng_queue_choices += 1
        self._note_service(served="rng", deprioritized=deprioritized, now=now_cycle)
        return rng_queue, rng_queue.oldest()

    def _choose_regular(
        self,
        controller: "ChannelController",
        read_queue: RequestQueue,
        now: int,
        deprioritized: Optional[str],
        now_cycle: int,
    ) -> Optional[Tuple[RequestQueue, Request]]:
        request = controller.scheduler.select(read_queue, controller, now)
        if request is None:
            return None
        self.note_regular_choice(now_cycle, deprioritized)
        return read_queue, request

    def note_regular_choice(self, now: int, deprioritized: Optional[str] = None) -> None:
        """Book one choice of the regular read queue at ``now``.

        The bookkeeping of :meth:`_choose_regular`, which calls it.  With
        an empty RNG queue :meth:`select` reduces to the within-queue
        scheduler plus this call, so the controller's serve fast paths
        select by index and call only this.  It is :meth:`_note_service`
        for ``served="regular"``.
        """
        self.stats.regular_queue_choices += 1
        current = self._deprioritized
        if current == "regular":
            current = self._deprioritized = None
        if deprioritized != current:
            self._deprioritized = deprioritized
            self._deprioritized_since = now

    def _note_service(self, served: str, deprioritized: Optional[str], now: int) -> None:
        # Serving from the previously deprioritised queue resets the
        # stall-time counter (Section 5.2.1).
        if self._deprioritized is not None and served == self._deprioritized:
            self._deprioritized = None
        if deprioritized != self._deprioritized:
            self._deprioritized = deprioritized
            self._deprioritized_since = now

    # -- bookkeeping hooks --------------------------------------------------------

    def reset(self) -> None:
        self._deprioritized = None
        self._deprioritized_since = 0
