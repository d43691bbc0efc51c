"""Work-queue coordinator: leases simulation points to remote workers.

The coordinator owns the full list of pending
:class:`~repro.orchestration.sweep.SimulationUnit`s and serves them over
the JSON-lines TCP protocol (:mod:`repro.distributed.protocol`).  Each
accepted connection gets its own thread; shared queue state sits behind
one lock.  Completed results are committed straight into the result
store (the content-addressed :class:`~repro.orchestration.cache.ResultCache`
or an in-memory equivalent), which is what keeps a distributed run
bit-identical to a serial one: the replay phase reads the same store
either way.

Fault tolerance:

* **Leases expire.**  A leased point must be renewed by heartbeats;
  when ``lease_timeout`` passes without one (worker wedged, network
  partition) the lease is revoked and the point goes back to the queue.
* **Dead connections requeue immediately.**  A worker that is killed
  (or whose machine reboots) drops its TCP connection; every point it
  held is requeued without waiting for the lease to time out.
* **Retries are bounded.**  Each revocation or reported error counts an
  attempt; a point that fails ``max_attempts`` times is marked failed
  and the run finishes with an error instead of looping forever.
* **Checkpoints survive their workers.**  Workers running with a
  checkpoint interval stream periodic snapshots of the leased point
  (``checkpoint`` messages); the coordinator keeps the newest one per
  point and attaches it to any re-lease, so a SIGKILLed worker costs at
  most one checkpoint interval of simulation — the replacement resumes
  bit-identically instead of restarting.
* **Stragglers are re-issued.**  Once the queue is empty, an idle
  worker asking for work is handed a *duplicate* lease on the
  longest-running point older than ``straggler_timeout``.  Simulations
  are deterministic and the store is content-addressed, so whichever
  copy finishes first wins and the loser's commit is a harmless
  overwrite with identical bytes.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from .. import telemetry
from ..orchestration.executors import store_put
from ..orchestration.sweep import SimulationUnit
from ..telemetry import logs
from .protocol import (
    FEATURES,
    PROTOCOL_VERSION,
    encode_message,
    prepare_connection,
    read_message,
    result_from_wire,
    unit_to_wire,
)

#: Seconds a lease survives without a heartbeat before it is revoked.
DEFAULT_LEASE_TIMEOUT = 15.0
#: How many times one point may fail (revocation or error) before the
#: whole run is declared failed.
DEFAULT_MAX_ATTEMPTS = 3
#: Lease age after which an idle worker may duplicate a tail point.
DEFAULT_STRAGGLER_TIMEOUT = 60.0
#: Sleep the coordinator suggests to workers when nothing is leasable.
DEFAULT_RETRY_SECONDS = 0.5
#: Per-watcher event queue depth.  A subscriber that falls this far
#: behind starts losing events (delivery is best-effort by design — a
#: wedged observer must never apply backpressure to the fleet).
DEFAULT_WATCH_QUEUE = 4096


class _Lease:
    """One worker's claim on one point."""

    __slots__ = ("connection_id", "worker", "deadline", "started")

    def __init__(self, connection_id: int, worker: str, deadline: float, started: float) -> None:
        self.connection_id = connection_id
        self.worker = worker
        self.deadline = deadline
        self.started = started


class _Point:
    """Queue state of one simulation point."""

    __slots__ = (
        "unit", "figure", "attempts", "done", "failed", "committing", "leases", "_wire",
        "checkpoint",
    )

    def __init__(self, unit: SimulationUnit) -> None:
        self.unit = unit
        # Figure attribution outlives the unit payload (released on
        # completion), so status reporting keeps working to the end.
        self.figure = getattr(unit, "figure", None)
        self.attempts = 0
        self.done = False
        self.failed: Optional[str] = None
        #: A result for this point is being written to the store right now.
        self.committing = False
        self.leases: Dict[int, _Lease] = {}
        self._wire: Optional[Dict] = None
        #: Latest mid-simulation snapshot a worker streamed for this
        #: point, kept in wire form (``{"cycle": int, "data": base64}``)
        #: and attached to any re-lease so the next worker resumes
        #: instead of restarting.  Dropped on completion.
        self.checkpoint: Optional[Dict] = None

    def wire(self) -> Optional[Dict]:
        """Serialised unit, computed once and reused for duplicate leases.

        ``None`` once the payload has been released (point completed).
        Called *outside* the coordinator lock: serialising a large unit
        must not stall the other connection threads.  The unit is read
        into a local exactly once so a concurrent :meth:`release_payload`
        can never null it between the check and the use.
        """
        unit = self.unit
        if unit is None:
            return None
        wire = self._wire
        if wire is None:
            wire = unit_to_wire(unit)
            self._wire = wire
        return wire

    def release_payload(self) -> None:
        """Drop the unit, its wire form and any checkpoint once the point
        can never be leased again, so a long sweep does not hold every
        trace twice (checkpoints are full kernel snapshots — larger)."""
        self.unit = None
        self._wire = None
        self.checkpoint = None


class Coordinator:
    """Serves a fixed set of simulation points to workers over TCP."""

    def __init__(
        self,
        units: Iterable[SimulationUnit],
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        straggler_timeout: float = DEFAULT_STRAGGLER_TIMEOUT,
        retry_seconds: float = DEFAULT_RETRY_SECONDS,
        events: Optional[telemetry.EventBus] = None,
    ) -> None:
        self._points: Dict[str, _Point] = {}
        self._pending: deque[str] = deque()
        for unit in units:
            if unit.key not in self._points:
                self._points[unit.key] = _Point(unit)
                self._pending.append(unit.key)
        self._store = store
        self._requested_host = host
        self._requested_port = port
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.straggler_timeout = straggler_timeout
        self.retry_seconds = retry_seconds

        #: The causal event stream: lease churn, commits, requeues,
        #: worker connects — everything the streaming ``watch`` protocol
        #: pushes and trace journals record.  Callers (the distributed
        #: executor) pass the process bus so a run's journal sees fleet
        #: events; a private bus keeps co-located instances isolated.
        self.events = events if events is not None else telemetry.EventBus()
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: Dict[int, socket.socket] = {}
        self._connection_seq = 0
        self._workers: Dict[int, Dict] = {}
        self.results_committed = 0
        #: Resume accounting, keyed by point: which cycle each committed
        #: result resumed from and how many cycles the committing worker
        #: actually simulated.  Populated from the result message's
        #: optional ``resumed_from``/``simulated_cycles`` fields; the
        #: distributed tests use it to prove a re-leased point continued
        #: from its checkpoint rather than restarting.
        self.resume_log: Dict[str, Dict] = {}

        # --- telemetry (observe-only; nothing here feeds back into
        # leasing decisions or the committed results) -----------------
        self._started_monotonic = time.monotonic()
        #: Coordinator-side counters (lease churn, commits, retries),
        #: kept in a private registry so fleet aggregation is explicit.
        self._metrics = telemetry.MetricsRegistry()
        #: Per-worker liveness/progress, keyed by worker *name* so it
        #: survives reconnects of flaky workers.
        self._worker_stats: Dict[str, Dict] = {}
        #: Latest telemetry snapshot each worker reported (snapshots are
        #: cumulative, so only the newest per worker is retained).
        self._worker_snapshots: Dict[str, Dict] = {}
        #: Per-figure totals for progress/ETA reporting.
        self._figures: Dict[str, Dict[str, int]] = {}
        for point in self._points.values():
            label = point.figure or "(unlabeled)"
            bucket = self._figures.setdefault(label, {"points": 0, "completed": 0})
            bucket["points"] += 1
        self._log = logs.get_logger("coordinator")

        if not self._points:
            self._finished.set()

    # ------------------------------------------------------------- lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the actual ``(host, port)``."""
        listener = socket.create_server(
            (self._requested_host, self._requested_port), backlog=64, reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        accept_thread = threading.Thread(target=self._accept_loop, daemon=True, name="coord-accept")
        reaper_thread = threading.Thread(target=self._reaper_loop, daemon=True, name="coord-reaper")
        self._threads += [accept_thread, reaper_thread]
        accept_thread.start()
        reaper_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("coordinator is not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every point is done or failed (or ``timeout`` passes)."""
        return self._finished.wait(timeout)

    def stop(self) -> None:
        """Stop accepting and serving; idempotent."""
        self._shutdown.set()
        self._finished.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            open_connections = list(self._connections.values())
        for connection in open_connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in list(self._threads):
            thread.join(timeout=2.0)

    # ------------------------------------------------------------- inspection

    @property
    def failed_keys(self) -> Dict[str, str]:
        """Keys that exhausted their retries, mapped to the last reason."""
        with self._lock:
            return {
                key: point.failed for key, point in self._points.items() if point.failed is not None
            }

    def snapshot(self) -> Dict:
        """Thread-safe view of queue state (for tests, logging, CLIs)."""
        with self._lock:
            leases = [
                {"key": key, "worker": lease.worker, "started": lease.started}
                for key, point in self._points.items()
                for lease in point.leases.values()
                if not point.done
            ]
            return {
                "points": len(self._points),
                "pending": len(self._pending),
                "completed": sum(1 for point in self._points.values() if point.done),
                "failed": sum(1 for point in self._points.values() if point.failed is not None),
                "leases": leases,
                "workers": [dict(info) for info in self._workers.values()],
            }

    def status_payload(self) -> Dict:
        """The live ``status`` reply: fleet progress, per-worker liveness,
        per-figure ETA, cache accounting, merged telemetry.

        ETAs are naive linear extrapolations from the whole-run commit
        rate — honest enough for a progress surface, deliberately not a
        scheduling input.
        """
        now = time.monotonic()
        elapsed = max(1e-9, now - self._started_monotonic)
        with self._lock:
            completed = sum(1 for point in self._points.values() if point.done)
            failed = sum(1 for point in self._points.values() if point.failed is not None)
            active_leases = sum(
                len(point.leases) for point in self._points.values() if not point.done
            )
            pending = len(self._pending)
            points = len(self._points)
            rate = completed / elapsed
            figures = {}
            for label, bucket in sorted(self._figures.items()):
                remaining = bucket["points"] - bucket["completed"]
                figures[label] = {
                    "points": bucket["points"],
                    "completed": bucket["completed"],
                    "eta_seconds": (remaining / rate) if rate > 0 and remaining else (
                        None if remaining else 0.0
                    ),
                }
            workers = {}
            for name, stats in self._worker_stats.items():
                last_seen = stats.get("last_seen")
                workers[name] = {
                    "pid": stats.get("pid"),
                    "leases": stats.get("leases", 0),
                    "completed": stats.get("completed", 0),
                    "last_seen_seconds": None if last_seen is None else now - last_seen,
                }
            worker_snapshots = list(self._worker_snapshots.values())
        merged = telemetry.merge_snapshots(self._metrics.snapshot(), *worker_snapshots)
        return {
            "type": "status",
            "protocol": PROTOCOL_VERSION,
            "points": points,
            "pending": pending,
            "completed": completed,
            "failed": failed,
            "leases": active_leases,
            "workers": workers,
            "elapsed_seconds": elapsed,
            "points_per_second": rate,
            "cache": {
                "hits": getattr(self._store, "hits", 0),
                "misses": getattr(self._store, "misses", 0),
            },
            "figures": figures,
            "metrics": merged,
        }

    def fleet_metrics(self) -> Dict:
        """Coordinator counters merged with every worker's last snapshot
        (for run manifests and post-run aggregation)."""
        with self._lock:
            worker_snapshots = list(self._worker_snapshots.values())
        return telemetry.merge_snapshots(self._metrics.snapshot(), *worker_snapshots)

    def worker_snapshots(self) -> Dict[str, Dict]:
        """The latest telemetry snapshot each worker reported, by name."""
        with self._lock:
            return {name: dict(snap) for name, snap in self._worker_snapshots.items()}

    # ------------------------------------------------------------- serving

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                connection = prepare_connection(self._listener.accept()[0])
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._connection_seq += 1
                connection_id = self._connection_seq
                self._connections[connection_id] = connection
            # Long-lived coordinators see many short-lived connections
            # (flaky workers reconnecting); drop finished threads so the
            # list cannot grow without bound.
            self._threads = [thread for thread in self._threads if thread.is_alive()]
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection, connection_id),
                daemon=True,
                name=f"coord-conn-{connection_id}",
            )
            self._threads.append(thread)
            thread.start()

    def _serve_connection(self, connection: socket.socket, connection_id: int) -> None:
        stream = connection.makefile("rb")
        # One send lock per connection: the request/reply path and a
        # watch sender thread share the socket, and interleaved partial
        # writes would corrupt the JSON-lines framing.
        send_lock = threading.Lock()
        watch_state: Dict = {}
        try:
            while True:
                try:
                    message = read_message(stream)
                except ValueError:
                    break
                if message is None:
                    break
                kind = message.get("type")
                if kind == "watch":
                    self._start_watch(connection, send_lock, watch_state, message)
                    continue
                if kind == "unwatch":
                    self._stop_watch(watch_state)
                    with send_lock:
                        connection.sendall(encode_message({"type": "unwatched"}))
                    continue
                reply = self._handle(message, connection_id)
                if reply is _GOODBYE:
                    break
                if reply is not None:
                    with send_lock:
                        connection.sendall(encode_message(reply))
        except OSError:
            pass
        finally:
            self._stop_watch(watch_state)
            self._release_connection(connection_id)
            with self._lock:
                self._connections.pop(connection_id, None)
            try:
                stream.close()
                connection.close()
            except OSError:
                pass

    # ------------------------------------------------------------- watch

    def _start_watch(
        self,
        connection: socket.socket,
        send_lock: threading.Lock,
        watch_state: Dict,
        message: Dict,
    ) -> None:
        """Subscribe this connection to the event stream.

        The ``watching`` reply (current ``seq`` plus a status snapshot to
        seed the view) is sent *before* the sender thread starts, so the
        client always sees the acknowledgement first and events — replayed
        ones included — strictly after it, in ``seq`` order.
        """
        if watch_state.get("queue") is not None:
            # Already watching: re-acknowledge, keep the existing stream.
            with send_lock:
                connection.sendall(
                    encode_message({"type": "watching", "seq": self.events.seq})
                )
            return
        # No ``from_seq`` field means live-only; an explicit value (0
        # included) replays buffered events with seq > from_seq first.
        raw_from_seq = message.get("from_seq")
        try:
            from_seq = None if raw_from_seq is None else int(raw_from_seq)
        except (TypeError, ValueError):
            from_seq = None
        status = self.status_payload()
        subscriber = self.events.subscribe(maxsize=DEFAULT_WATCH_QUEUE, from_seq=from_seq)
        try:
            with send_lock:
                connection.sendall(
                    encode_message(
                        {"type": "watching", "seq": self.events.seq, "status": status}
                    )
                )
        except OSError:
            self.events.unsubscribe(subscriber)
            raise
        thread = threading.Thread(
            target=self._watch_sender,
            args=(connection, send_lock, subscriber),
            daemon=True,
            name="coord-watch-sender",
        )
        watch_state["queue"] = subscriber
        watch_state["thread"] = thread
        thread.start()

    def _watch_sender(
        self, connection: socket.socket, send_lock: threading.Lock, subscriber
    ) -> None:
        while True:
            event = subscriber.get()
            if event is None:  # _stop_watch's sentinel
                return
            try:
                with send_lock:
                    connection.sendall(encode_message({"type": "event", "event": event}))
            except OSError:
                return

    def _stop_watch(self, watch_state: Dict) -> None:
        subscriber = watch_state.pop("queue", None)
        thread = watch_state.pop("thread", None)
        if subscriber is not None:
            self.events.unsubscribe(subscriber)
            subscriber.put(None)
        if thread is not None:
            thread.join(timeout=2.0)

    def _handle(self, message: Dict, connection_id: int):
        kind = message.get("type")
        if kind != "hello" and kind != "status":
            self._touch_worker(connection_id)
        if kind == "hello":
            if message.get("protocol") != PROTOCOL_VERSION:
                return {
                    "type": "done",
                    "error": f"protocol mismatch (coordinator speaks {PROTOCOL_VERSION})",
                }
            name = str(message.get("worker") or f"conn-{connection_id}")
            with self._lock:
                self._workers[connection_id] = {"worker": name, "pid": message.get("pid")}
                stats = self._worker_stats.setdefault(
                    name, {"pid": message.get("pid"), "completed": 0, "leases": 0}
                )
                stats["pid"] = message.get("pid")
                stats["last_seen"] = time.monotonic()
            self._log.info("worker %s connected (pid %s)", name, message.get("pid"))
            self.events.emit(
                "worker.connect",
                worker=name,
                pid=message.get("pid"),
                role=message.get("role") or "worker",
            )
            return {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "points": len(self._points),
                "features": list(FEATURES),
            }
        if kind == "lease":
            return self._lease(connection_id)
        if kind == "result":
            return self._commit(message, connection_id)
        if kind == "error":
            self._requeue(
                message.get("key", ""),
                connection_id,
                reason=str(message.get("error", "worker error")),
            )
            return {"type": "ack"}
        if kind == "heartbeat":
            self._renew(message.get("key", ""), connection_id)
            return None
        if kind == "checkpoint":
            self._store_checkpoint(message, connection_id)
            return None
        if kind == "metrics":
            snapshot = message.get("snapshot")
            if isinstance(snapshot, dict):
                with self._lock:
                    name = self._workers.get(connection_id, {}).get("worker") or str(
                        message.get("worker") or f"conn-{connection_id}"
                    )
                    self._worker_snapshots[name] = snapshot
            return None
        if kind == "status":
            return self.status_payload()
        if kind == "goodbye":
            return _GOODBYE
        return {"type": "done", "error": f"unknown message type {kind!r}"}

    def _store_checkpoint(self, message: Dict, connection_id: int) -> None:
        """Keep the newest snapshot a worker streamed for a live point."""
        key = str(message.get("key", ""))
        data = message.get("data")
        try:
            cycle = int(message.get("cycle"))
        except (TypeError, ValueError):
            return
        if not isinstance(data, str) or not data:
            return
        with self._lock:
            point = self._points.get(key)
            if point is None or point.done or point.failed is not None:
                return
            previous = point.checkpoint
            if previous is not None and previous["cycle"] >= cycle:
                return  # a straggler duplicate lagging behind the leader
            point.checkpoint = {"cycle": cycle, "data": data}
            worker = self._workers.get(connection_id, {}).get("worker")
            figure = point.figure
        self._metrics.counter("coordinator.checkpoints")
        self.events.emit(
            "point.checkpoint", point=key, worker=worker, figure=figure, cycle=cycle
        )

    def _touch_worker(self, connection_id: int) -> None:
        """Record liveness for the worker behind ``connection_id``."""
        with self._lock:
            name = self._workers.get(connection_id, {}).get("worker")
            if name is not None and name in self._worker_stats:
                self._worker_stats[name]["last_seen"] = time.monotonic()

    # ------------------------------------------------------------- queue ops

    def _lease(self, connection_id: int) -> Dict:
        while True:
            now = time.monotonic()
            with self._lock:
                if self._shutdown.is_set() or self._all_settled():
                    return {"type": "done"}
                point = None
                while self._pending:
                    key = self._pending.popleft()
                    candidate = self._points[key]
                    if not (candidate.done or candidate.failed is not None):
                        point = candidate
                        break
                if point is None:
                    key, point = self._straggler_candidate(connection_id, now)
                if point is None:
                    return {"type": "wait", "seconds": self.retry_seconds}
                worker = self._workers.get(connection_id, {}).get(
                    "worker", f"conn-{connection_id}"
                )
                point.leases[connection_id] = _Lease(
                    connection_id, worker, deadline=now + self.lease_timeout, started=now
                )
                if worker in self._worker_stats:
                    self._worker_stats[worker]["leases"] += 1
                checkpoint = point.checkpoint
            self._metrics.counter("coordinator.lease_grants")
            # Serialise outside the lock: a multi-MB unit must not stall
            # the other connection threads (or heartbeat renewal).
            wire = point.wire()
            if wire is not None and not point.done:
                self.events.emit(
                    "lease.grant", point=key, worker=worker, figure=point.figure
                )
                reply = {"type": "work", "unit": wire}
                if checkpoint is not None:
                    # Re-lease of a point a (possibly dead) worker already
                    # advanced: hand over the snapshot so the new worker
                    # resumes instead of restarting.
                    reply["checkpoint"] = checkpoint
                return reply
            # The point completed while we were granting it; drop the
            # speculative lease and pick something else.
            with self._lock:
                point.leases.pop(connection_id, None)

    def _straggler_candidate(
        self, connection_id: int, now: float
    ) -> Tuple[Optional[str], Optional[_Point]]:
        oldest: Optional[Tuple[float, str, _Point]] = None
        for key, point in self._points.items():
            if point.done or point.failed is not None or point.committing or not point.leases:
                continue
            if connection_id in point.leases:
                continue
            started = min(lease.started for lease in point.leases.values())
            if now - started < self.straggler_timeout:
                continue
            if oldest is None or started < oldest[0]:
                oldest = (started, key, point)
        return (None, None) if oldest is None else (oldest[1], oldest[2])

    def _commit(self, message: Dict, connection_id: int) -> Dict:
        key = message.get("key", "")
        try:
            result = result_from_wire(message["result"])
        except (KeyError, TypeError, ValueError) as exc:
            self._requeue(key, connection_id, reason=f"undecodable result: {exc}")
            return {"type": "ack"}
        with self._lock:
            point = self._points.get(key)
            if point is None:
                return {"type": "ack"}
            point.leases.pop(connection_id, None)
            if point.done or point.committing:
                # A straggler duplicate finished second; its (identical)
                # result is already committed or being committed.
                self._check_finished()
                return {"type": "ack"}
            point.committing = True
        try:
            # Commit outside the lock: a disk write must not serialise the
            # other connection threads.  The point is only flagged done
            # *after* the write lands, so the finished event can never
            # fire while a result is still in flight.
            store_put(self._store, key, result, point.figure)
        except BaseException:
            with self._lock:
                point.committing = False
                # Count the failed commit as an attempt AND re-check
                # settlement: a lease that died *while* the commit was in
                # flight deferred its own settlement to the commit (see
                # _settle_or_requeue), so the failure path must resolve
                # the point — requeue it or declare it failed — or
                # nothing ever would and _check_finished would hang the
                # run with the point permanently unsettled.
                point.attempts += 1
                self._settle_or_requeue(point, key, "result store commit failed")
                self._check_finished()
            raise
        with self._lock:
            point.committing = False
            point.done = True
            point.failed = None
            point.release_payload()
            self.results_committed += 1
            resumed_from = message.get("resumed_from")
            if isinstance(resumed_from, int):
                self.resume_log[key] = {
                    "resumed_from": resumed_from,
                    "simulated_cycles": message.get("simulated_cycles"),
                    "worker": self._workers.get(connection_id, {}).get("worker"),
                }
                if resumed_from > 0:
                    self._metrics.counter("coordinator.points_resumed")
            bucket = self._figures.get(point.figure or "(unlabeled)")
            if bucket is not None:
                bucket["completed"] += 1
            worker = self._workers.get(connection_id, {}).get("worker")
            if worker in self._worker_stats:
                self._worker_stats[worker]["completed"] += 1
            self._check_finished()
        self._metrics.counter("coordinator.results_committed")
        self.events.emit("point.commit", point=key, worker=worker, figure=point.figure)
        return {"type": "ack"}

    def _requeue(self, key: str, connection_id: int, reason: str) -> None:
        with self._lock:
            point = self._points.get(key)
            if point is None or point.done:
                return
            point.leases.pop(connection_id, None)
            self._record_attempt(point, key, reason)
            self._check_finished()

    def _record_attempt(self, point: _Point, key: str, reason: str) -> None:
        """Count one failed attempt, then settle or requeue.  Lock held."""
        point.attempts += 1
        self._metrics.counter("coordinator.retries")
        self._log.warning("point %s attempt failed: %s", key[:12], reason)
        self._settle_or_requeue(point, key, reason)
        if point.failed is not None:
            self.events.emit(
                "point.fail", point=key, figure=point.figure, reason=reason,
                attempts=point.attempts,
            )
        else:
            self.events.emit(
                "point.requeue", point=key, figure=point.figure, reason=reason,
                attempts=point.attempts,
            )

    def _settle_or_requeue(self, point: _Point, key: str, reason: str) -> None:
        """Resolve a point after an attempt was recorded.  Lock held.

        A point is never declared failed — nor requeued — while another
        worker still holds a live lease on it (straggler duplicate) or a
        result for it is being committed: that copy may land moments
        later, and requeueing under an in-flight commit would burn a
        duplicate simulation of a point that is about to complete.
        Whatever blocked the settlement re-enters here when it resolves:
        a dying lease through its revocation, a failing commit through
        :meth:`_commit`'s failure path — so a point can never be left
        permanently unsettled.
        """
        if point.done or point.failed is not None:
            return
        if point.leases or point.committing:
            return
        if point.attempts >= self.max_attempts:
            point.failed = reason
        elif key not in self._pending:
            self._pending.append(key)

    def _renew(self, key: str, connection_id: int) -> None:
        now = time.monotonic()
        with self._lock:
            point = self._points.get(key)
            if point is None:
                return
            lease = point.leases.get(connection_id)
            if lease is not None:
                lease.deadline = now + self.lease_timeout

    def _release_connection(self, connection_id: int) -> None:
        """A connection died: requeue everything it still holds."""
        with self._lock:
            info = self._workers.pop(connection_id, None)
        if info is not None:
            self._log.info("worker %s disconnected", info.get("worker"))
            self.events.emit("worker.disconnect", worker=info.get("worker"))
        with self._lock:
            for key, point in self._points.items():
                if connection_id in point.leases and not point.done:
                    point.leases.pop(connection_id)
                    if not point.leases:
                        self._record_attempt(point, key, "worker connection lost")
            self._check_finished()

    def _reaper_loop(self) -> None:
        interval = min(1.0, max(0.05, self.lease_timeout / 4))
        while not self._shutdown.is_set():
            # Block *on the finished event*, not in a plain sleep: the
            # thread then exits the moment the last commit lands (or
            # ``stop`` is called), instead of holding the process — and
            # the listener port — for up to a full interval after the
            # run is over.
            if self._finished.wait(interval):
                return
            now = time.monotonic()
            with self._lock:
                for key, point in self._points.items():
                    if point.done or point.failed is not None:
                        continue
                    expired = [
                        lease_id
                        for lease_id, lease in point.leases.items()
                        if lease.deadline < now
                    ]
                    for lease_id in expired:
                        lease = point.leases.pop(lease_id)
                        self._metrics.counter("coordinator.lease_expired")
                        self.events.emit(
                            "lease.expire", point=key, worker=lease.worker,
                            figure=point.figure,
                        )
                        self._record_attempt(point, key, "lease expired (missed heartbeats)")
                self._check_finished()

    def _all_settled(self) -> bool:
        return all(point.done or point.failed is not None for point in self._points.values())

    def _check_finished(self) -> None:
        """Lock held: flip the completion event once every point settles."""
        if self._all_settled():
            self._finished.set()


#: Sentinel handler return: close the connection without replying.
_GOODBYE = object()
