"""First-Ready First-Come-First-Serve schedulers.

``FRFCFS`` is the classic policy: row-buffer hits first, then the oldest
request.  ``FRFCFSCap`` additionally caps the number of *consecutive* row
hits that may be served from the same row (a "column cap" of 16 in the
paper's baseline, following Mutlu & Moscibroda's STFM paper), which bounds
how long a high-row-locality application can monopolise a bank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..controller.queues import RequestQueue
from ..controller.request import Request, RequestType
from .base import MemoryScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..controller.memory_controller import ChannelController


class FRFCFS(MemoryScheduler):
    """First-ready (row hit) first, then first-come-first-serve.

    The scan iterates the queue's preextracted slot arrays (flat bank id
    and row per entry, see :class:`RequestQueue`) instead of touching
    request objects: one integer compare per queued entry, with the
    request object only materialised for the winner.
    """

    name = "fr-fcfs"

    def select_index(
        self,
        queue: RequestQueue,
        controller: "ChannelController",
        now: int,
    ) -> int:
        if not queue._entries:
            return -1
        open_rows = controller.channel.open_rows
        rows = queue._rows
        for index, bank in enumerate(queue._banks):
            if bank == -2:  # SLOT_UNDECODED: direct queue use (tests).
                bank = queue.repair_slot(index, controller)
            if bank >= 0 and open_rows[bank] == rows[index]:
                # First (oldest) row hit wins; nothing later can
                # change the outcome.
                return index
        return 0

    def select(
        self,
        queue: RequestQueue,
        controller: "ChannelController",
        now: int,
    ) -> Optional[Request]:
        index = self.select_index(queue, controller, now)
        return None if index < 0 else queue._entries[index]


class FRFCFSCap(FRFCFS):
    """FR-FCFS with a cap on consecutive row hits from the same row.

    The cap prevents the unfair prioritisation of applications with very
    high row-buffer locality: after ``cap`` row hits have been served from
    the same open row without interruption, the scheduler falls back to the
    oldest request even if further hits are pending.
    """

    name = "fr-fcfs+cap"

    def __init__(self, cap: int = 16) -> None:
        if cap <= 0:
            raise ValueError(f"column cap must be positive, got {cap}")
        self.cap = cap
        # (bank_id, row) of the current hit streak and its length.
        self._streak_key: Optional[Tuple[int, int]] = None
        self._streak_length = 0

    def select_index(
        self,
        queue: RequestQueue,
        controller: "ChannelController",
        now: int,
    ) -> int:
        if not queue._entries:
            return -1
        open_rows = controller.channel.open_rows
        rows = queue._rows
        capped_key = self._streak_key if self._streak_length >= self.cap else None
        for index, bank in enumerate(queue._banks):
            if bank == -2:  # SLOT_UNDECODED: direct queue use (tests).
                bank = queue.repair_slot(index, controller)
            if bank >= 0:
                row = rows[index]
                if open_rows[bank] == row and (
                    capped_key is None or capped_key != (bank, row)
                ):
                    return index
        return 0

    def notify_served(self, request: Request, now: int) -> None:
        if request.type is RequestType.RNG:
            self._streak_key = None
            self._streak_length = 0
            return
        key = (request.decoded.flat_bank, request.decoded.row) if request.decoded else None
        if key is not None and key == self._streak_key:
            self._streak_length += 1
        else:
            self._streak_key = key
            self._streak_length = 1

    # ``notify_served`` needs the organization to compute flat bank ids; the
    # controller injects it once at construction time via ``bind``.
    _org = None

    def bind(self, organization) -> None:
        """Associate the DRAM organization (called by the controller)."""
        self._org = organization

    def reset(self) -> None:
        self._streak_key = None
        self._streak_length = 0
