"""Memory request types exchanged between cores and the memory controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from ..dram.address import DecodedAddress


class RequestType(Enum):
    """Kind of memory request."""

    READ = "read"
    WRITE = "write"
    RNG = "rng"


#: Numbers hand-built requests (tests, ``make_read`` & co).  A
#: :class:`~repro.sim.system.System` numbers the requests it simulates
#: with its own counter, so no kernel state refers to this one.
_request_ids = itertools.count()


def next_request_id() -> int:
    """A fresh id for a hand-built request."""
    return next(_request_ids)


@dataclass(slots=True, eq=False)
class Request:
    """A single memory request.

    ``READ`` and ``WRITE`` requests carry a physical address.  ``RNG``
    requests carry the number of random bits this (per-channel) request
    must produce; the 64-bit application-level random number request is
    split into one ``RNG`` request per channel by the RNG subsystem.

    Requests compare by *identity* (``eq=False``): every live request is
    a distinct object (``request_id`` is unique within a system), and identity
    keeps the queues' membership scans (``list.index``/``in``) on the
    C fast path instead of field-by-field dataclass comparison.
    """

    type: RequestType
    core_id: int
    address: int = 0
    rng_bits: int = 0
    arrival_cycle: int = 0
    priority: int = 0
    callback: Optional[Callable[["Request"], None]] = None
    decoded: Optional[DecodedAddress] = None
    request_id: int = field(default_factory=next_request_id)
    # Book-keeping filled in by the controller.
    issue_cycle: Optional[int] = None
    completion_cycle: Optional[int] = None
    #: The instruction-window slot this read will complete (``None`` for
    #: writes, RNG requests and hand-built requests).  The controller
    #: publishes the completion cycle on it at issue time and the core's
    #: shared completion callback flips it done — replacing the per-read
    #: closure the core used to allocate.
    window_slot: Optional[object] = None
    #: Free-list this request returns to after its terminal completion
    #: (``None`` = never recycled).  The system installs one arena per
    #: core; the controller appends the request back after ``complete``
    #: has fired, so dense workloads reuse a bounded set of request
    #: objects instead of allocating one per memory access.
    pool: Optional[list] = None

    def __post_init__(self) -> None:
        if self.type is RequestType.RNG and self.rng_bits <= 0:
            raise ValueError("RNG requests must request a positive number of bits")
        if self.type is not RequestType.RNG and self.address < 0:
            raise ValueError("memory requests must have a non-negative address")

    def reuse(
        self,
        type: RequestType,
        address: int,
        arrival_cycle: int,
        callback: Optional[Callable[["Request"], None]],
        decoded: Optional[DecodedAddress],
        window_slot: Optional[object],
        request_id: int,
    ) -> "Request":
        """Re-initialise a recycled request from its per-core arena.

        ``core_id``, ``priority`` and ``pool`` are per-core constants and
        keep their values.  The caller passes a *fresh* ``request_id``
        from the same counter a new allocation would use, so schedulers
        that tie-break on the id (BLISS) observe the exact sequence a
        non-recycling run produces.
        """
        self.type = type
        self.address = address
        self.arrival_cycle = arrival_cycle
        self.callback = callback
        self.decoded = decoded
        self.window_slot = window_slot
        self.request_id = request_id
        self.issue_cycle = None
        self.completion_cycle = None
        return self

    @property
    def is_rng(self) -> bool:
        return self.type is RequestType.RNG

    @property
    def is_read(self) -> bool:
        return self.type is RequestType.READ

    @property
    def is_write(self) -> bool:
        return self.type is RequestType.WRITE

    @property
    def latency(self) -> Optional[int]:
        """Queueing + service latency, available once the request completed."""
        if self.completion_cycle is None:
            return None
        return self.completion_cycle - self.arrival_cycle

    def complete(self, cycle: int) -> None:
        """Mark the request as completed at ``cycle`` and fire its callback."""
        self.completion_cycle = cycle
        if self.callback is not None:
            self.callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.is_rng:
            payload = f"bits={self.rng_bits}"
        else:
            payload = f"addr={self.address:#x}"
        return (
            f"Request(id={self.request_id}, {self.type.value}, core={self.core_id}, "
            f"{payload}, t={self.arrival_cycle})"
        )


def make_read(address: int, core_id: int, cycle: int, callback=None, priority: int = 0) -> Request:
    """Convenience constructor for a read request."""
    return Request(
        type=RequestType.READ,
        core_id=core_id,
        address=address,
        arrival_cycle=cycle,
        callback=callback,
        priority=priority,
    )


def make_write(address: int, core_id: int, cycle: int, priority: int = 0) -> Request:
    """Convenience constructor for a write request."""
    return Request(
        type=RequestType.WRITE,
        core_id=core_id,
        address=address,
        arrival_cycle=cycle,
        priority=priority,
    )


def make_rng(bits: int, core_id: int, cycle: int, callback=None, priority: int = 0) -> Request:
    """Convenience constructor for a per-channel RNG request."""
    return Request(
        type=RequestType.RNG,
        core_id=core_id,
        rng_bits=bits,
        arrival_cycle=cycle,
        callback=callback,
        priority=priority,
    )
