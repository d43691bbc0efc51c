"""Causal, structured events: the trace layer's in-process backbone.

An **event** is a small JSON-compatible dict describing one state
transition somewhere in the stack — a point leased, a commit landed, a
worker connected, a job finalised.  Every event carries:

* ``seq`` — a per-bus monotonically increasing sequence number, stamped
  under the bus lock so observers (journals, watch subscribers) always
  see one total order per bus,
* ``ts`` — wall-clock epoch seconds (observational only; nothing in the
  simulator reads it back),
* ``kind`` — a dotted transition name (``point.commit``, ``job.state``,
  ``lease.expire``, …),
* free-form fields naming the causal ids involved (``run``, ``job``,
  ``point``, ``worker``, ``tenant``, ``figure``).

An :class:`EventBus` fans each event out to any number of subscriber
queues (the streaming ``watch`` protocol drains one queue per watching
connection) and to an optional append-only journal (see
:mod:`.trace`).  Dispatch happens inside the bus lock, so two events
emitted concurrently are delivered to every subscriber in the same
``seq`` order — the delta-ordering guarantee the watch tests pin.

Everything here is observe-only by construction: the simulator never
subscribes, events never feed scheduling decisions, and an emit on a
disabled bus is a single attribute check.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

#: Ring-buffer depth for late subscribers (`watch --from-seq` catch-up).
DEFAULT_BUFFER = 4096


class EventBus:
    """Thread-safe fan-out of structured events.

    One bus per event domain: the sweep orchestrator uses the process
    bus (:func:`bus`), while each sweep service instance owns a
    private bus so tests and co-located daemons never cross-talk.
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._seq = 0
        self._recent: deque = deque(maxlen=buffer)
        self._subscribers: List["queue.Queue"] = []
        self._sinks: List[Callable[[Dict], None]] = []

    # ----------------------------------------------------------------- emit

    def emit(self, kind: str, **fields) -> Optional[Dict]:
        """Stamp and dispatch one event; returns it (``None`` when off).

        The event dict is shared by reference with every observer, so
        treat it as frozen after emit.
        """
        if not self.enabled:
            return None
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": time.time(), "kind": kind}
            event.update(fields)
            self._recent.append(event)
            for sink in self._sinks:
                try:
                    sink(event)
                except Exception:
                    # A broken journal must never take down the emitter.
                    pass
            for subscriber in self._subscribers:
                try:
                    subscriber.put_nowait(event)
                except queue.Full:
                    pass
        return event

    # ------------------------------------------------------------ observers

    def subscribe(self, maxsize: int = 0, from_seq: int = 0) -> "queue.Queue":
        """A fresh queue receiving every event from here on.

        ``from_seq`` replays buffered events with ``seq > from_seq``
        into the queue first (still under the lock, so replay and live
        delivery cannot interleave out of order).
        """
        subscriber: "queue.Queue" = queue.Queue(maxsize=maxsize)
        with self._lock:
            if from_seq is not None:
                for event in self._recent:
                    if event["seq"] > from_seq:
                        subscriber.put_nowait(event)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue") -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def add_sink(self, sink: Callable[[Dict], None]) -> None:
        """Attach a synchronous sink (e.g. a journal's write method)."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Dict], None]) -> None:
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    # -------------------------------------------------------------- queries

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def recent(self, from_seq: int = 0) -> List[Dict]:
        """Buffered events with ``seq > from_seq`` (oldest first)."""
        with self._lock:
            return [event for event in self._recent if event["seq"] > from_seq]


#: The process-wide bus local sweeps emit into (scoped by
#: :func:`isolated_bus` in tests).
_BUS = EventBus()


def bus() -> EventBus:
    """The process-wide event bus currently installed."""
    return _BUS


def emit(kind: str, **fields) -> Optional[Dict]:
    """Emit onto the process bus (the common call site form)."""
    return _BUS.emit(kind, **fields)


class isolated_bus:
    """Context manager installing a fresh process bus (tests)."""

    def __init__(self, enabled: bool = True) -> None:
        self._fresh = EventBus(enabled=enabled)
        self._previous: Optional[EventBus] = None

    def __enter__(self) -> EventBus:
        global _BUS
        self._previous = _BUS
        _BUS = self._fresh
        return self._fresh

    def __exit__(self, *exc) -> None:
        global _BUS
        _BUS = self._previous
