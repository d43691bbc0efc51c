"""Sweep-as-a-service: the point server behind ``repro serve``.

:class:`SweepService` is a long-lived daemon.  Clients submit
:class:`~repro.orchestration.request.SweepRequest`s over the JSON-lines
TCP protocol (:mod:`repro.distributed.protocol`; ``submit``/``poll``/
``cancel``/``jobs``), the service probes each against its store with the
local sweep's first pass, and one shared worker fleet drains the points
*every* live job misses.  Each accepted connection gets its own
thread; shared queue state sits behind one lock.  Completed results are
committed straight into the result store (the content-addressed
:class:`~repro.orchestration.cache.ResultCache` or an in-memory
equivalent), which is what keeps a distributed run bit-identical to a
serial one: the replay phase reads the same store either way.

Fault tolerance:

* **Leases expire.**  A leased point must be renewed by heartbeats;
  when ``lease_timeout`` passes without one (worker wedged, network
  partition) the lease is revoked and the point goes back to the queue.
* **Dead connections requeue immediately.**  A worker that is killed
  (or whose machine reboots) drops its TCP connection; every point it
  held is requeued without waiting for the lease to time out.
* **Retries are bounded.**  Each revocation or reported error counts an
  attempt; a point that fails ``max_attempts`` times is marked failed
  instead of looping forever.
* **Checkpoints survive their workers.**  Workers running with a
  checkpoint interval stream periodic snapshots of the leased point
  (``checkpoint`` messages); the server keeps the newest one per point
  and attaches it to any re-lease, so a SIGKILLed worker costs at most
  one checkpoint interval of simulation — the replacement resumes
  bit-identically instead of restarting.
* **Stragglers are re-issued.**  Once the queue is empty, an idle
  worker asking for work is handed a *duplicate* lease on the
  longest-running point older than ``straggler_timeout``.  Simulations
  are deterministic and the store is content-addressed, so whichever
  copy finishes first wins and the loser's commit is a harmless
  overwrite with identical bytes.

Jobs on top of the points:

* **Bit-identity per job.**  Each job runs the local sweep's own passes,
  :func:`~repro.orchestration.sweep.probe` and
  :func:`~repro.orchestration.sweep.replay`.  A job whose points are all
  in the store is answered by its probe, in one pass; any other is
  replayed once its last point is committed.  Either pass *is* the
  serial code path, so a job's data dicts are byte-identical to a serial
  run of the same request.
* **Cross-tenant memoisation.**  Points are registered by content key:
  a point two jobs both need is simulated once and credited to both, and
  a point already in the store (from any past tenant) is never
  re-simulated at all.
* **Fairness.**  Leases go round-robin across the running jobs: the
  next point comes from the job served longest ago, and a job not yet
  served goes first.  With N running jobs none waits more than N-1
  leases between grants, so a 43-app ``--full`` sweep cannot starve a
  two-figure request submitted after it.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..orchestration.cache import ResultCache
from ..orchestration.report import canonical_data
from ..orchestration.request import SweepRequest
from ..orchestration.sweep import SimulationUnit, probe, replay, resolve_experiment
from ..sim.runner import engine_override
from ..telemetry import logs
from ..telemetry.manifest import write_manifest
from ..telemetry.trace import TraceJournal, read_journal, traces_dir
from .protocol import (
    PROTOCOL_VERSION,
    encode_message,
    prepare_connection,
    read_message,
    result_from_wire,
    unit_to_wire,
)

#: Seconds a lease survives without a heartbeat before it is revoked.
DEFAULT_LEASE_TIMEOUT = 15.0
#: How many times one point may fail (revocation or error) before it is
#: declared failed.
DEFAULT_MAX_ATTEMPTS = 3
#: Lease age after which an idle worker may duplicate a tail point.
DEFAULT_STRAGGLER_TIMEOUT = 60.0
#: Sleep the server suggests to workers when nothing is leasable.
DEFAULT_RETRY_SECONDS = 0.5
#: Per-watcher event queue depth.  A subscriber that falls this far
#: behind starts losing events (delivery is best-effort by design — a
#: wedged observer must never apply backpressure to the fleet).
DEFAULT_WATCH_QUEUE = 4096

#: Job lifecycle.  ``planning`` → ``running`` → ``finalizing`` → ``done``
#: on the happy path, or ``planning`` → ``done`` when the store already
#: holds every point; ``failed``/``cancelled`` are terminal from any
#: earlier state.
PLANNING = "planning"
RUNNING = "running"
FINALIZING = "finalizing"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The daemon's own event journal under ``<cache-dir>/traces/``.  It is
#: both the durable trace (``repro trace export --run service``) and the
#: restart log: on construction the service replays its ``job.state``
#: events so the jobs table survives a daemon restart.
SERVICE_JOURNAL = "service.jsonl"


class _Lease:
    """One worker's claim on one point, attributed to the job it served
    (``None`` for a straggler duplicate of a point no live job needs)."""

    __slots__ = ("connection_id", "worker", "deadline", "started", "job")

    def __init__(
        self, connection_id: int, worker: str, deadline: float, started: float,
        job: Optional[str],
    ) -> None:
        self.connection_id = connection_id
        self.worker = worker
        self.deadline = deadline
        self.started = started
        self.job = job


class _Point:
    """Queue state of one simulation point."""

    __slots__ = (
        "key", "unit", "figure", "attempts", "done", "failed", "committing",
        "leases", "jobs", "queued", "checkpoint", "_wire",
    )

    def __init__(self, unit: SimulationUnit) -> None:
        self.key = unit.key
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
        #: Service job ids that need this point.  Commit credits every
        #: live subscriber, which is what makes cross-tenant sharing
        #: exact: the point runs once, every job's ``remaining`` shrinks.
        self.jobs: Set[str] = set()
        #: Leasable right now.  The key may sit in several queues (each
        #: service subscriber lists it); the first pop that finds
        #: ``queued`` set wins and clears it, later pops skip the stale
        #: entry.
        self.queued = True
        #: Latest mid-simulation snapshot a worker streamed for this
        #: point, kept in wire form (``{"cycle": int, "data": base64}``)
        #: and attached to any re-lease so the next worker resumes
        #: instead of restarting.  Dropped on completion.
        self.checkpoint: Optional[Dict] = None
        self._wire: Optional[Dict] = None

    def wire(self) -> Optional[Dict]:
        """Serialised unit, computed once and reused for duplicate leases.

        ``None`` once the payload has been released (point completed).
        Called *outside* the server lock: serialising a large unit must
        not stall the other connection threads.  The unit is read into a
        local exactly once so a concurrent :meth:`release_payload` can
        never null it between the check and the use.
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


class _Job:
    """One submitted sweep and everything needed to answer polls on it."""

    __slots__ = (
        "job_id", "tenant", "request", "state", "error", "queue", "remaining",
        "total", "executed", "reused", "results", "submitted_at", "finished_at",
        "last_served",
    )

    def __init__(self, job_id: str, tenant: str, request: SweepRequest) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.request = request
        self.state = PLANNING
        self.error: Optional[str] = None
        #: Keys awaiting a lease, in planning order (stale entries — for
        #: points another job's lease already took — are skipped on pop).
        self.queue: deque[str] = deque()
        #: Keys not yet committed for this job.
        self.remaining: Set[str] = set()
        self.total = 0
        #: Points simulated under this job's own lease grants.
        self.executed = 0
        #: Points satisfied without this job simulating them: already in
        #: the store at submit, or committed via another job's lease.
        self.reused = 0
        self.results: Optional[Dict[str, Dict]] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        #: Number of the service's last lease granted for this job (0:
        #: never served), the round-robin order of ``_next_point_locked``.
        self.last_served = 0

    def payload(self, include_results: bool = False) -> Dict:
        """The ``poll``/``jobs`` reply body for this job."""
        finished = self.finished_at
        body = {
            "type": "job",
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "experiments": list(self.request.experiments),
            "tags": list(self.request.tags),
            "points": self.total,
            "pending": len(self.remaining),
            "completed": self.total - len(self.remaining),
            "executed": self.executed,
            "reused": self.reused,
            "submitted_at": self.submitted_at,
            "elapsed_seconds": (finished or time.time()) - self.submitted_at,
        }
        if self.error is not None:
            body["error"] = self.error
        if include_results and self.state == DONE and self.results is not None:
            body["results"] = self.results
        return body


class SweepService:
    """A long-lived daemon multiplexing many sweeps over one worker fleet.

    Settled points are dropped — the store answers future submits, and a
    daemon must not hold every trace it ever planned.  Finished jobs are
    not: each keeps its results for ``poll --results`` and ``jobs`` for
    the daemon's lifetime (about 33 KiB for fig6+fig9+fig13+fig18 at 10k
    instructions), so memory grows with the number of jobs served.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        straggler_timeout: float = DEFAULT_STRAGGLER_TIMEOUT,
        retry_seconds: float = DEFAULT_RETRY_SECONDS,
    ) -> None:
        self._store = store
        self._requested_host = host
        self._requested_port = port
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.straggler_timeout = straggler_timeout
        self.retry_seconds = retry_seconds

        #: The causal event stream: lease churn, commits, requeues,
        #: worker connects, job transitions — everything the streaming
        #: ``watch`` protocol pushes and the service journal records.  A
        #: private bus keeps co-located daemons and in-process tests
        #: isolated.
        self.events = telemetry.EventBus()
        self._lock = threading.Lock()
        #: Set by :meth:`stop`: idle workers are then told ``done`` and
        #: the reaper exits.
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: Dict[int, socket.socket] = {}
        self._connection_seq = 0
        #: Everyone who said hello, by connection: worker name, pid, role.
        self._peers: Dict[int, Dict] = {}
        self._points: Dict[str, _Point] = {}
        # Lifetime totals: settled points are dropped from ``_points``,
        # so status counts come from counters.
        self._points_registered = 0
        self._points_completed = 0
        self._points_failed = 0

        # --- telemetry (observe-only; nothing here feeds back into
        # leasing decisions or the committed results) -----------------
        self._started_monotonic = time.monotonic()
        #: Server-side counters (lease churn, commits, retries), kept in
        #: a private registry so fleet aggregation is explicit.
        self._metrics = telemetry.MetricsRegistry()
        #: Per-worker liveness/progress, keyed by worker *name* so it
        #: survives reconnects of flaky workers.
        self._worker_stats: Dict[str, Dict] = {}
        #: Latest telemetry snapshot each worker reported (snapshots are
        #: cumulative, so only the newest per worker is retained).
        self._worker_snapshots: Dict[str, Dict] = {}
        #: Per-figure totals for progress/ETA reporting.
        self._figures: Dict[str, Dict[str, int]] = {}
        self._log = logs.get_logger("service")

        self._jobs: Dict[str, _Job] = {}
        self._job_seq = 0
        #: Leases granted for jobs so far; stamps ``_Job.last_served``.
        self._lease_seq = 0
        #: Where per-job run manifests land (persistent stores only).
        self._manifest_dir = store.cache_dir if isinstance(store, ResultCache) else None
        #: Durable event journal (persistent stores only).  Replaying it
        #: before attaching makes the jobs table survive a restart.
        self._journal: Optional[TraceJournal] = None
        if self._manifest_dir is not None:
            journal_path = traces_dir(self._manifest_dir) / SERVICE_JOURNAL
            self._restore_jobs(journal_path)
            self._journal = TraceJournal(journal_path)
            self.events.add_sink(self._journal.write)

    def _count(self, name: str, value: int = 1) -> None:
        self._metrics.counter(f"service.{name}", value)

    def _add_point_locked(self, unit: SimulationUnit) -> _Point:
        """Register a new, leasable point.  Lock held."""
        point = _Point(unit)
        self._points[point.key] = point
        self._points_registered += 1
        bucket = self._figures.setdefault(
            point.figure or "(unlabeled)", {"points": 0, "completed": 0}
        )
        bucket["points"] += 1
        return point

    # ------------------------------------------------------------- lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the actual ``(host, port)``."""
        listener = socket.create_server(
            (self._requested_host, self._requested_port), backlog=64, reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        self._spawn(self._accept_loop, name="accept")
        self._spawn(self._reaper_loop, name="reaper")
        address = self.address
        self._log.info("sweep service listening on %s:%s", *address)
        return address

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("service is not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def serve_forever(self, poll_seconds: float = 0.5) -> None:
        """Block until :meth:`stop` (or ``KeyboardInterrupt`` upstream)."""
        while not self._shutdown.wait(poll_seconds):
            pass

    def stop(self) -> None:
        """Stop accepting and serving, then close the journal; idempotent.

        Closing the connections is what shuts the fleet down: a worker
        whose socket drops exits its loop, so no ``done`` broadcast is
        needed.
        """
        self._shutdown.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            open_connections = list(self._connections.values())
            # Complete: _spawn starts nothing once shutdown is set.
            threads = list(self._threads)
        for connection in open_connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=2.0)
        if self._journal is not None:
            self.events.remove_sink(self._journal.write)
            self._journal.close()

    # ------------------------------------------------------------- inspection

    def status_payload(self) -> Dict:
        """The live ``status`` reply: fleet progress, per-worker liveness,
        per-figure ETA, cache accounting (the points the jobs reused and
        simulated), merged telemetry and the jobs table.

        ETAs are naive linear extrapolations from the whole-run commit
        rate — honest enough for a progress surface, deliberately not a
        scheduling input.
        """
        now = time.monotonic()
        elapsed = max(1e-9, now - self._started_monotonic)
        with self._lock:
            active_leases = sum(
                len(point.leases) for point in self._points.values() if not point.done
            )
            pending = sum(1 for point in self._points.values() if point.queued)
            completed = self._points_completed
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
            failed = self._points_failed
            points = self._points_registered
            jobs = {job_id: job.payload() for job_id, job in self._jobs.items()}
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
            # Points, not store lookups: a job's probe, its under-lock
            # re-check and its replay each ask the store for a point.
            "cache": {
                "hits": sum(job["reused"] for job in jobs.values()),
                "misses": sum(job["executed"] for job in jobs.values()),
            },
            "figures": figures,
            "metrics": merged,
            "jobs": jobs,
        }

    # ------------------------------------------------------------- serving

    def _spawn(self, target, *args, name: str) -> Optional[threading.Thread]:
        """Start a daemon thread that :meth:`stop` joins; ``None``
        (nothing started) once shutdown has begun.

        The accept loop, connection threads, watch senders, planners and
        finalizers all spawn concurrently, so finished threads are pruned
        and the new one is recorded under the lock, or an append racing
        the prune would be lost and never joined.  The thread starts
        under the lock too: the prune would drop it as not alive
        otherwise.
        """
        with self._lock:
            if self._shutdown.is_set():
                return None
            self._threads = [thread for thread in self._threads if thread.is_alive()]
            thread = threading.Thread(
                target=target, args=args, daemon=True, name=f"service-{name}"
            )
            self._threads.append(thread)
            thread.start()
        return thread

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
            if not self._spawn(
                self._serve_connection, connection, connection_id,
                name=f"conn-{connection_id}",
            ):
                with self._lock:
                    self._connections.pop(connection_id, None)
                connection.close()
                return

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
        watch_state["queue"] = subscriber
        watch_state["thread"] = self._spawn(
            self._watch_sender, connection, send_lock, subscriber, name="watch-sender"
        )

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

    # ------------------------------------------------------------- messages

    def _handle(self, message: Dict, connection_id: int):
        kind = message.get("type")
        if kind == "submit":
            return self._submit(message, connection_id)
        if kind == "poll":
            return self._poll(message)
        if kind == "cancel":
            return self._cancel(message)
        if kind == "jobs":
            return self._list_jobs()
        if kind not in ("hello", "status"):
            self._touch_worker(connection_id)
        if kind == "hello":
            return self._hello(message, connection_id)
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
                    name = self._peers.get(connection_id, {}).get("worker") or str(
                        message.get("worker") or f"conn-{connection_id}"
                    )
                    self._worker_snapshots[name] = snapshot
            return None
        if kind == "status":
            return self.status_payload()
        if kind == "goodbye":
            return _GOODBYE
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    def _hello(self, message: Dict, connection_id: int) -> Dict:
        if message.get("protocol") != PROTOCOL_VERSION:
            return {
                "type": "done",
                "error": f"protocol mismatch (service speaks {PROTOCOL_VERSION})",
            }
        name = str(message.get("worker") or f"conn-{connection_id}")
        role = str(message.get("role") or "worker")
        with self._lock:
            self._peers[connection_id] = {
                "worker": name, "pid": message.get("pid"), "role": role
            }
            if role == "worker":
                stats = self._worker_stats.setdefault(
                    name, {"pid": message.get("pid"), "completed": 0, "leases": 0}
                )
                stats["pid"] = message.get("pid")
                stats["last_seen"] = time.monotonic()
            points = len(self._points)
        self._log.info("%s %s connected (pid %s)", role, name, message.get("pid"))
        self.events.emit(
            "worker.connect", worker=name, pid=message.get("pid"), role=role
        )
        return {"type": "welcome", "protocol": PROTOCOL_VERSION, "points": points}

    def _touch_worker(self, connection_id: int) -> None:
        """Record liveness for the worker behind ``connection_id``."""
        with self._lock:
            name = self._peers.get(connection_id, {}).get("worker")
            if name is not None and name in self._worker_stats:
                self._worker_stats[name]["last_seen"] = time.monotonic()

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
            worker = self._peers.get(connection_id, {}).get("worker")
        self._count("checkpoints")
        self.events.emit(
            "point.checkpoint", point=key, worker=worker, figure=point.figure, cycle=cycle
        )

    # ------------------------------------------------------------- leasing

    def _lease(self, connection_id: int) -> Dict:
        while True:
            now = time.monotonic()
            with self._lock:
                if self._shutdown.is_set():
                    return {"type": "done"}
                job_id, point = self._next_point_locked()
                if point is None:
                    point = self._straggler_candidate(connection_id, now)
                    if point is None:
                        return {"type": "wait", "seconds": self.retry_seconds}
                    # Attribute the duplicate lease to any live subscriber
                    # (reporting only); it is *not* that job's turn —
                    # duplicating a straggler's tail must not move it in
                    # the round-robin.
                    job_id = min(point.jobs, default=None)
                worker = self._peers.get(connection_id, {}).get(
                    "worker", f"conn-{connection_id}"
                )
                point.leases[connection_id] = _Lease(
                    connection_id, worker, deadline=now + self.lease_timeout,
                    started=now, job=job_id,
                )
                if worker in self._worker_stats:
                    self._worker_stats[worker]["leases"] += 1
                checkpoint = point.checkpoint
            self._count("lease_grants")
            # Serialise outside the lock: a multi-MB unit must not stall
            # the other connection threads (or heartbeat renewal).
            wire = point.wire()
            if wire is not None and not point.done:
                self.events.emit(
                    "lease.grant", point=point.key, worker=worker, job=job_id,
                    figure=point.figure,
                )
                reply = {"type": "work", "unit": wire}
                if job_id is not None:
                    reply["job"] = job_id
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

    def _straggler_candidate(self, connection_id: int, now: float) -> Optional[_Point]:
        oldest: Optional[Tuple[float, _Point]] = None
        for point in self._points.values():
            if point.done or point.failed is not None or point.committing:
                continue
            if point.queued or not point.leases or connection_id in point.leases:
                continue
            started = min(lease.started for lease in point.leases.values())
            if now - started < self.straggler_timeout:
                continue
            if oldest is None or started < oldest[0]:
                oldest = (started, point)
        return None if oldest is None else oldest[1]

    def _renew(self, key: str, connection_id: int) -> None:
        now = time.monotonic()
        with self._lock:
            point = self._points.get(key)
            if point is None:
                return
            lease = point.leases.get(connection_id)
            if lease is not None:
                lease.deadline = now + self.lease_timeout

    # ------------------------------------------------------------- commits

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
            lease = point.leases.pop(connection_id, None)
            if point.done or point.committing or point.failed is not None:
                # A straggler duplicate finished second; its (identical)
                # result is already committed or being committed.
                return {"type": "ack"}
            point.committing = True
            lease_job = lease.job if lease is not None else None
        try:
            # Commit outside the lock: a disk write must not serialise the
            # other connection threads.  The point is only flagged done
            # *after* the write lands, so nothing can see it settled
            # while a result is still in flight.
            self._store.put(key, result, figure=point.figure)
        except BaseException:
            with self._lock:
                point.committing = False
                # Count the failed commit as an attempt AND re-check
                # settlement: a lease that died *while* the commit was in
                # flight deferred its own settlement to the commit (see
                # _settle_or_requeue), so the failure path must resolve
                # the point — requeue it or declare it failed — or
                # nothing ever would.
                point.attempts += 1
                self._settle_or_requeue(point, "result store commit failed")
            raise
        with self._lock:
            point.committing = False
            point.done = True
            point.queued = False
            point.release_payload()
            self._points_completed += 1
            bucket = self._figures.get(point.figure or "(unlabeled)")
            if bucket is not None:
                bucket["completed"] += 1
            worker = self._peers.get(connection_id, {}).get("worker")
            if worker in self._worker_stats:
                self._worker_stats[worker]["completed"] += 1
            finalize = self._credit_commit_locked(point, lease_job)
        # Resume accounting: a checkpointing worker reports the cycle it
        # resumed from (0 for a fresh start), so the event shows whether a
        # re-leased point continued or restarted.
        resumed_from = message.get("resumed_from")
        resumed = {}
        if isinstance(resumed_from, int):
            resumed["resumed_from"] = resumed_from
            if resumed_from > 0:
                self._count("points_resumed")
        self._count("results_committed")
        self.events.emit(
            "point.commit", point=key, worker=worker, job=lease_job, figure=point.figure,
            **resumed,
        )
        for job in finalize:
            self._emit_job(job)
            self._spawn(self._finalize_job, job, name=f"final-{job.job_id}")
        return {"type": "ack"}

    # ------------------------------------------------------------- failures

    def _requeue(self, key: str, connection_id: int, reason: str) -> None:
        with self._lock:
            point = self._points.get(key)
            if point is None or point.done:
                return
            point.leases.pop(connection_id, None)
            self._record_attempt(point, reason)

    def _record_attempt(self, point: _Point, reason: str) -> None:
        """Count one failed attempt, then settle or requeue.  Lock held."""
        point.attempts += 1
        self._count("retries")
        self._log.warning("point %s attempt failed: %s", point.key[:12], reason)
        self._settle_or_requeue(point, reason)
        if point.failed is not None:
            kind = "point.fail"
        elif point.queued:
            kind = "point.requeue"
        else:
            return
        self.events.emit(
            kind, point=point.key, figure=point.figure, reason=reason,
            attempts=point.attempts,
        )

    def _settle_or_requeue(self, point: _Point, reason: str) -> None:
        """Resolve a point after an attempt was recorded.  Lock held.

        A point is never declared failed — nor requeued — while another
        worker still holds a live lease on it (straggler duplicate) or a
        result for it is being committed: that copy may land moments
        later, and requeueing under an in-flight commit would burn a
        duplicate simulation of a point that is about to complete.
        Whatever blocked the settlement re-enters here when it resolves:
        a dying lease through its revocation, a failing commit through
        :meth:`_commit`'s failure path — so a point can never be left
        permanently unsettled.  A point no live job needs any more (its
        jobs were cancelled or failed while it was leased) is dropped.
        """
        if point.done or point.failed is not None:
            return
        if point.leases or point.committing:
            return
        if not point.jobs:
            self._drop_point_locked(point)
        elif point.attempts >= self.max_attempts:
            point.failed = reason
            point.queued = False
            self._points_failed += 1
            self._count("points_failed")
            self._fail_point_locked(point, reason)
        elif not point.queued:
            point.queued = True
            self._requeue_locked(point)

    def _release_connection(self, connection_id: int) -> None:
        """A connection died: requeue everything it still holds."""
        with self._lock:
            info = self._peers.pop(connection_id, None)
        if info is not None:
            self._log.info("%s %s disconnected", info.get("role", "peer"), info.get("worker"))
            self.events.emit("worker.disconnect", worker=info.get("worker"))
        with self._lock:
            for point in list(self._points.values()):
                if connection_id in point.leases and not point.done:
                    point.leases.pop(connection_id)
                    if not point.leases:
                        self._record_attempt(point, "worker connection lost")

    def _reaper_loop(self) -> None:
        interval = min(1.0, max(0.05, self.lease_timeout / 4))
        # Block *on the shutdown event*, not in a plain sleep: the thread
        # then exits the moment ``stop`` is called, instead of holding
        # ``stop`` — and the listener port — for up to a full interval.
        while not self._shutdown.wait(interval):
            now = time.monotonic()
            with self._lock:
                for point in list(self._points.values()):
                    if point.done or point.failed is not None:
                        continue
                    expired = [
                        lease_id
                        for lease_id, lease in point.leases.items()
                        if lease.deadline < now
                    ]
                    for lease_id in expired:
                        lease = point.leases.pop(lease_id)
                        self._count("lease_expired")
                        self.events.emit(
                            "lease.expire", point=point.key, worker=lease.worker,
                            job=lease.job, figure=point.figure,
                        )
                        self._record_attempt(point, "lease expired (missed heartbeats)")

    # ------------------------------------------------------------- events

    def _emit_job(self, job: _Job) -> None:
        """One ``job.state`` event per transition, carrying the full poll
        payload — which is what makes the journal a restart log: the last
        ``job.state`` per job id *is* that job's record."""
        self.events.emit(
            "job.state",
            job=job.job_id,
            tenant=job.tenant,
            state=job.state,
            payload=job.payload(),
        )

    def _restore_jobs(self, journal_path) -> None:
        """Rebuild the jobs table from a previous daemon's journal.

        Terminal jobs come back exactly as they ended (minus the result
        payloads, which live in the store, not the journal).  A job that
        was live when the daemon died lost its points and leases with the
        process, so it is restored as ``failed`` — an honest record, and
        a resubmit replans it from the warm store anyway.
        """
        last_state: Dict[str, Dict] = {}
        for event in read_journal(journal_path):
            if event.get("kind") != "job.state":
                continue
            job_id = event.get("job")
            payload = event.get("payload")
            if isinstance(job_id, str) and isinstance(payload, dict):
                last_state[job_id] = payload
        restored = 0
        for job_id, payload in sorted(last_state.items()):
            try:
                request = SweepRequest(
                    experiments=tuple(payload.get("experiments") or ()),
                    tags=tuple(payload.get("tags") or ()),
                )
                job = _Job(job_id, str(payload.get("tenant") or "?"), request)
                job.state = str(payload.get("state") or RUNNING)
                job.error = payload.get("error")
                job.total = int(payload.get("points") or 0)
                job.executed = int(payload.get("executed") or 0)
                job.reused = int(payload.get("reused") or 0)
                job.submitted_at = float(payload.get("submitted_at") or time.time())
                elapsed = float(payload.get("elapsed_seconds") or 0.0)
            except (TypeError, ValueError):
                continue  # a torn or foreign record must not block startup
            if job.state not in TERMINAL_STATES:
                job.state = FAILED
                job.error = "daemon restarted mid-job"
            job.finished_at = job.submitted_at + elapsed
            self._jobs[job_id] = job
            restored += 1
            _, _, digits = job_id.rpartition("-")
            if digits.isdigit():
                # New submissions continue the id sequence instead of
                # colliding with restored history.
                self._job_seq = max(self._job_seq, int(digits))
        if restored:
            self._log.info(
                "restored %d job record(s) from %s", restored, journal_path
            )

    # ------------------------------------------------------------- job intake

    def _submit(self, message: Dict, connection_id: int) -> Dict:
        if self._shutdown.is_set():
            return {"type": "error", "error": "service is shutting down"}
        try:
            request = SweepRequest.from_wire(message.get("request") or {})
            for experiment in request.experiments:
                resolve_experiment(experiment)
        except (KeyError, TypeError, ValueError) as exc:
            self._count("rejected_submissions")
            return {"type": "error", "error": f"invalid request: {exc}"}
        with self._lock:
            tenant = str(
                message.get("tenant")
                or self._peers.get(connection_id, {}).get("worker")
                or f"conn-{connection_id}"
            )
            self._job_seq += 1
            job = _Job(f"job-{self._job_seq:04d}", tenant, request)
            self._jobs[job.job_id] = job
        self._count("submissions")
        self._emit_job(job)
        self._log.info(
            "job %s submitted by %s: %s", job.job_id, tenant, ",".join(request.experiments)
        )
        self._spawn(self._plan_job, job, name=f"plan-{job.job_id}")
        return job.payload()

    def _plan_job(self, job: _Job) -> None:
        """Probe one job against the store and register the points it
        misses (own thread).

        The probe is a local sweep's first pass
        (:func:`~repro.orchestration.sweep.probe`): trace generation plus
        one store lookup per distinct point, but for a ``--full`` roster
        still seconds — hence off the connection thread, so submits
        return immediately and pollers see ``planning``.  With nothing
        missing its data is the job's result.
        """
        request = job.request
        try:
            with engine_override(request.engine):
                data, probed = probe(request.experiments, self._store, **request.run_kwargs())
            # Canonicalise now so a poll's wire round-trip cannot change
            # the bytes a client exports (see report.canonical_data).
            results = None if probed.missing else canonical_data(data)
        except Exception as exc:  # a broken experiment module fails its job only
            with self._lock:
                self._fail_job_locked(job, f"planning failed: {type(exc).__name__}: {exc}")
            return
        finalize = False
        with self._lock:
            if job.state != PLANNING:  # cancelled while planning
                return
            job.total = len(probed.points)
            job.reused = job.total - len(probed.missing)
            for key, unit in probed.missing.items():
                point = self._points.get(key)
                if point is None:
                    # Re-check under the lock: another job's commit may
                    # have landed (and dropped its point) since the probe
                    # — without this a shared point would be simulated
                    # twice in that window.
                    if self._store.get(key) is not None:
                        job.reused += 1
                        continue
                    point = self._add_point_locked(unit)
                point.jobs.add(job.job_id)
                job.remaining.add(key)
                job.queue.append(key)
            self._count("points_planned", len(job.remaining))
            if job.remaining:
                job.state = RUNNING
            elif results is None:
                # The points the probe missed were all committed since.
                job.state = FINALIZING
                finalize = True
        self._log.info(
            "job %s planned: %d points (%d to simulate, %d reused)",
            job.job_id, job.total, len(job.remaining), job.reused,
        )
        if results is not None:
            self._complete_job(job, results)
            return
        self._emit_job(job)
        if finalize:
            self._spawn(self._finalize_job, job, name=f"final-{job.job_id}")

    # ------------------------------------------------------------- policy

    def _next_point_locked(self) -> Tuple[Optional[str], Optional[_Point]]:
        """Round-robin pick: pop the next live key of the running job
        served longest ago.

        Jobs never served come first, in submission order (``min`` keeps
        the first of equal keys, and ``_jobs`` is in submission order).
        A job whose queue holds only stale entries (shared points another
        job's lease already took) is drained here and drops out of the
        next pick, so staleness never costs a job its turn.
        """
        while True:
            job = min(
                (job for job in self._jobs.values() if job.state == RUNNING and job.queue),
                key=lambda job: job.last_served,
                default=None,
            )
            if job is None:
                return None, None
            queue = job.queue
            while queue:
                point = self._points.get(queue.popleft())
                if point is not None and point.queued:
                    point.queued = False
                    self._lease_seq += 1
                    job.last_served = self._lease_seq
                    return job.job_id, point

    def _requeue_locked(self, point: _Point) -> None:
        """List a point whose attempt failed for leasing again.  Lock held."""
        # Re-list the key with *every* live subscriber so whichever of
        # them has the next turn can carry it.
        for job_id in point.jobs:
            job = self._jobs.get(job_id)
            if job is not None and job.state == RUNNING:
                job.queue.append(point.key)

    def _credit_commit_locked(self, point: _Point, lease_job: Optional[str]) -> List[_Job]:
        """Credit a point committed under a lease granted for
        ``lease_job`` to every live subscriber; returns the jobs it
        finished, to finalize once the lock is released.  Lock held."""
        finalize: List[_Job] = []
        for job_id in point.jobs:
            job = self._jobs.get(job_id)
            if job is None or job.state != RUNNING or point.key not in job.remaining:
                continue
            job.remaining.discard(point.key)
            if job_id == lease_job:
                job.executed += 1
            else:
                job.reused += 1
            if not job.remaining:
                job.state = FINALIZING
                finalize.append(job)
        # The store answers everything from here on; drop the point (and
        # its traces).
        del self._points[point.key]
        return finalize

    def _fail_point_locked(self, point: _Point, reason: str) -> None:
        """Fail every job subscribed to an exhausted point, then drop the
        point.  Lock held.

        Dropped rather than kept failed forever: a later resubmit
        replans it from scratch with a fresh attempt budget (transient
        infrastructure failures should not poison a daemon).
        """
        for job_id in list(point.jobs):
            job = self._jobs.get(job_id)
            if job is not None:
                self._fail_job_locked(job, f"point {point.key[:12]} failed: {reason}")
        self._drop_point_locked(point)

    def _drop_point_locked(self, point: _Point) -> None:
        bucket = self._figures.get(point.figure or "(unlabeled)")
        if bucket is not None:
            bucket["points"] -= 1
        self._points.pop(point.key, None)

    def _fail_job_locked(self, job: _Job, reason: str) -> None:
        if job.state in TERMINAL_STATES:
            return
        job.state = FAILED
        job.error = reason
        job.finished_at = time.time()
        job.queue.clear()
        self._drop_subscriptions_locked(job)
        self._count("jobs_failed")
        self._log.warning("job %s failed: %s", job.job_id, reason)
        self._emit_job(job)

    def _drop_subscriptions_locked(self, job: _Job) -> None:
        """Unsubscribe a dead job; drop points nobody else needs.

        A point still leased (or mid-commit) is left to finish — its
        result is a store entry future submits will reuse — and the
        commit path drops it.
        """
        for key in list(job.remaining):
            point = self._points.get(key)
            if point is None:
                continue
            point.jobs.discard(job.job_id)
            if not point.jobs and not point.leases and not point.committing:
                self._drop_point_locked(point)
        job.remaining.clear()

    # ------------------------------------------------------------- job queries

    def _poll(self, message: Dict) -> Dict:
        job_id = str(message.get("job", ""))
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"type": "error", "error": f"unknown job {job_id!r}"}
            return job.payload(include_results=bool(message.get("results")))

    def _cancel(self, message: Dict) -> Dict:
        job_id = str(message.get("job", ""))
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"type": "error", "error": f"unknown job {job_id!r}"}
            if job.state not in TERMINAL_STATES:
                job.state = CANCELLED
                job.error = "cancelled by client"
                job.finished_at = time.time()
                job.queue.clear()
                self._drop_subscriptions_locked(job)
                self._count("jobs_cancelled")
                self._log.info("job %s cancelled", job_id)
                self._emit_job(job)
            return job.payload()

    def _list_jobs(self) -> Dict:
        with self._lock:
            return {
                "type": "jobs",
                "jobs": {job_id: job.payload() for job_id, job in self._jobs.items()},
            }

    # ------------------------------------------------------------- finalize

    def _finalize_job(self, job: _Job) -> None:
        """Replay one finished job's figures from the store (own thread).

        The replay is the serial code path over a fully warmed store —
        the same :func:`~repro.orchestration.sweep.replay` a local sweep
        runs — so the data dicts are byte-identical to a serial run.  The
        backend and the engine override are thread-local, so several jobs
        (even on different engines) finalize concurrently without
        interference.
        """
        request = job.request
        try:
            with engine_override(request.engine):
                data, _ = replay(request.experiments, self._store, **request.run_kwargs())
            results = canonical_data(data)
        except Exception as exc:
            with self._lock:
                self._fail_job_locked(job, f"replay failed: {type(exc).__name__}: {exc}")
            return
        self._complete_job(job, results)

    def _complete_job(self, job: _Job, results: Dict[str, Dict]) -> None:
        """Publish a job's canonical ``results``: ``done``, then its event
        and its manifest."""
        with self._lock:
            if job.state in TERMINAL_STATES:  # cancelled since its last pass
                return
            job.results = results
            job.state = DONE
            job.finished_at = time.time()
        self._count("jobs_completed")
        self._emit_job(job)
        self._log.info(
            "job %s done: %d points (%d executed, %d reused) in %.1fs",
            job.job_id, job.total, job.executed, job.reused,
            job.finished_at - job.submitted_at,
        )
        self._write_job_manifest(job)

    def _write_job_manifest(self, job: _Job) -> None:
        """One run manifest per completed job, best-effort."""
        if self._manifest_dir is None:
            return
        request = job.request
        kwargs = dict(request.run_kwargs())
        kwargs.update(
            {
                "job_id": job.job_id,
                "tenant": job.tenant,
                "tags": list(request.tags),
            }
        )
        try:
            write_manifest(
                self._manifest_dir,
                experiments=request.experiments,
                started_at=job.submitted_at,
                finished_at=job.finished_at,
                kwargs=kwargs,
                executor="service",
                engine=request.engine,
                stats={
                    "planned": job.total,
                    "executed": job.executed,
                    "reused": job.reused,
                    "elapsed": (job.finished_at or time.time()) - job.submitted_at,
                },
                cache=self._store.stats() if hasattr(self._store, "stats") else None,
                metrics=self._metrics.snapshot(),
            )
        except OSError:
            self._log.warning("job %s: manifest write failed", job.job_id)


#: Sentinel handler return: close the connection without replying.
_GOODBYE = object()
