"""Sweep-as-a-service: a persistent, multi-tenant experiment daemon.

Where the :class:`~repro.distributed.coordinator.Coordinator` serves one
pre-planned batch of points and exits, :class:`SweepService` runs
forever: clients submit :class:`~repro.orchestration.request.SweepRequest`s
over the same JSON-lines protocol (``submit``/``poll``/``cancel``/
``jobs``, negotiated via the welcome's ``features`` like the telemetry
messages), the service decomposes each into simulation points with the
existing planner, and one shared worker fleet drains the points of
*every* live job.

Three properties carry over from the one-shot pipeline by construction:

* **Bit-identity.**  Results are committed to the same content-addressed
  store and each job's figures are reassembled by replaying the figure
  module through a :class:`~repro.orchestration.sweep.CacheServingBackend`
  — the replay *is* the serial code path, so a job's data dicts are
  byte-identical to a serial run of the same request.
* **Cross-tenant memoisation.**  Points are registered by content key:
  a point two jobs both need is simulated once and credited to both, and
  a point already in the store (from any past tenant) is never
  re-simulated at all.
* **Fault tolerance.**  Leases, heartbeats, bounded retries and
  straggler re-issue are the coordinator's, unchanged — a worker that
  dies mid-point affects which *attempt* commits, never the bytes.

Fairness is the new piece: lease grants are arbitrated by the
BLISS-inspired :class:`~repro.distributed.fairness.TenantScheduler`
(consecutive-service streaks, blacklisting at the service quantum,
periodic clearing), so a 43-app ``--full`` batch job cannot starve an
interactive two-figure request — the paper's own DRAM scheduling idea,
one level up.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..orchestration.cache import ResultCache
from ..orchestration.executors import store_put
from ..orchestration.report import canonical_data
from ..orchestration.request import SweepRequest
from ..orchestration.sweep import (
    CacheServingBackend,
    SimulationUnit,
    filter_run_kwargs,
    installed_backend,
    plan_experiment,
    resolve_experiment,
    supported_run_kwargs,
)
from ..sim.runner import AloneRunCache, engine_override
from ..telemetry import logs
from ..telemetry.manifest import write_manifest
from ..telemetry.trace import TraceJournal, read_journal, traces_dir
from .coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RETRY_SECONDS,
    DEFAULT_STRAGGLER_TIMEOUT,
    DEFAULT_WATCH_QUEUE,
)
from .fairness import DEFAULT_CLEARING_INTERVAL, DEFAULT_SERVICE_QUANTUM, TenantScheduler
from .protocol import (
    PROTOCOL_VERSION,
    SERVICE_FEATURES,
    encode_message,
    prepare_connection,
    read_message,
    result_from_wire,
    unit_to_wire,
)

#: Job lifecycle.  ``planning`` → ``running`` → ``finalizing`` → ``done``
#: on the happy path; ``failed``/``cancelled`` are terminal from any
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
    """One worker's claim on one point, attributed to the job it served."""

    __slots__ = ("connection_id", "worker", "deadline", "started", "job")

    def __init__(
        self,
        connection_id: int,
        worker: str,
        deadline: float,
        started: float,
        job: Optional[str],
    ) -> None:
        self.connection_id = connection_id
        self.worker = worker
        self.deadline = deadline
        self.started = started
        self.job = job


class _ServicePoint:
    """Queue state of one simulation point, shared by its subscriber jobs."""

    __slots__ = (
        "unit", "figure", "attempts", "done", "failed", "committing",
        "leases", "jobs", "queued", "_wire",
    )

    def __init__(self, unit: SimulationUnit) -> None:
        self.unit = unit
        self.figure = getattr(unit, "figure", None)
        self.attempts = 0
        self.done = False
        self.failed: Optional[str] = None
        self.committing = False
        self.leases: Dict[int, _Lease] = {}
        #: Job ids that need this point.  Commit credits every live
        #: subscriber, which is what makes cross-tenant sharing exact:
        #: the point runs once, every job's ``remaining`` shrinks.
        self.jobs: Set[str] = set()
        #: Leasable right now.  The key may sit in several jobs' queues
        #: (each subscriber lists it); the first pop that finds ``queued``
        #: set wins and clears it, later pops skip the stale entry.
        self.queued = False
        self._wire: Optional[Dict] = None

    def wire(self) -> Optional[Dict]:
        """Serialised unit, computed once, outside the service lock (see
        :meth:`Coordinator._lease` for why)."""
        unit = self.unit
        if unit is None:
            return None
        wire = self._wire
        if wire is None:
            wire = unit_to_wire(unit)
            self._wire = wire
        return wire


class _Job:
    """One submitted sweep and everything needed to answer polls on it."""

    __slots__ = (
        "job_id", "tenant", "request", "state", "error", "queue", "remaining",
        "total", "executed", "reused", "results", "submitted_at", "finished_at",
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

    def payload(self, include_results: bool = False) -> Dict:
        """The ``poll``/``jobs`` reply body for this job."""
        finished = self.finished_at
        body = {
            "type": "job",
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "priority": self.request.priority,
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
    """A long-lived daemon multiplexing many sweeps over one worker fleet."""

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
        service_quantum: int = DEFAULT_SERVICE_QUANTUM,
        clearing_interval: float = DEFAULT_CLEARING_INTERVAL,
    ) -> None:
        self._store = store
        self._requested_host = host
        self._requested_port = port
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.straggler_timeout = straggler_timeout
        self.retry_seconds = retry_seconds

        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: Dict[int, socket.socket] = {}
        self._connection_seq = 0
        self._peers: Dict[int, Dict] = {}

        self._jobs: Dict[str, _Job] = {}
        self._job_seq = 0
        self._points: Dict[str, _ServicePoint] = {}
        self._scheduler = TenantScheduler(
            service_quantum=service_quantum, clearing_interval=clearing_interval
        )
        #: The daemon's private event bus: ``watch`` subscribers and the
        #: service journal hang off it.  Private (not the process bus) so
        #: co-located services and in-process tests never cross-talk.
        self.events = telemetry.EventBus()
        self._scheduler.on_blacklist = self._on_blacklist
        self._scheduler.on_clear = self._on_cleared

        # Lifetime totals: completed/failed points are *deleted* from
        # ``_points`` (the store answers future submits, and a daemon
        # must not hold every trace it ever planned), so status counts
        # come from counters, not the live dict.
        self._points_registered = 0
        self._points_completed = 0
        self._points_failed = 0

        self._started_monotonic = time.monotonic()
        self._metrics = telemetry.MetricsRegistry()
        self._worker_stats: Dict[str, Dict] = {}
        self._worker_snapshots: Dict[str, Dict] = {}
        self._figures: Dict[str, Dict[str, int]] = {}
        #: Where per-job run manifests land (persistent stores only).
        self._manifest_dir = store.cache_dir if isinstance(store, ResultCache) else None
        self._log = logs.get_logger("service")
        #: Durable event journal (persistent stores only).  Replaying it
        #: before attaching makes the jobs table survive a restart.
        self._journal: Optional[TraceJournal] = None
        if self._manifest_dir is not None:
            journal_path = traces_dir(self._manifest_dir) / SERVICE_JOURNAL
            self._restore_jobs(journal_path)
            self._journal = TraceJournal(journal_path)
            self.events.add_sink(self._journal.write)

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

    def _on_blacklist(self, job_id: str) -> None:
        job = self._jobs.get(job_id)
        self.events.emit(
            "tenant.blacklist", job=job_id, tenant=job.tenant if job else None
        )

    def _on_cleared(self, job_ids: List[str]) -> None:
        self.events.emit("tenant.cleared", jobs=list(job_ids))

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
                    priority=str(payload.get("priority") or "interactive"),
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

    # ------------------------------------------------------------- lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the actual ``(host, port)``."""
        listener = socket.create_server(
            (self._requested_host, self._requested_port), backlog=64, reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        self._spawn(self._accept_loop, name="service-accept")
        self._spawn(self._reaper_loop, name="service-reaper")
        self._log.info("sweep service listening on %s:%s", *self.address)
        return self.address

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
        """Stop accepting and serving; idempotent.

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

    # ------------------------------------------------------------- serving

    def _spawn(self, target, *args, name: str) -> bool:
        """Start a daemon thread that :meth:`stop` joins; ``False``
        (nothing started) once shutdown has begun.

        The accept loop, connection threads (planners) and commits
        (finalizers) all spawn concurrently, so finished threads are
        pruned and the new one is recorded under the lock, or an append
        racing the prune would be lost and never joined.  The thread
        starts under the lock too: the prune would drop it as not alive
        otherwise.
        """
        with self._lock:
            if self._shutdown.is_set():
                return False
            self._threads = [thread for thread in self._threads if thread.is_alive()]
            thread = threading.Thread(target=target, args=args, daemon=True, name=name)
            self._threads.append(thread)
            thread.start()
        return True

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
                name=f"service-conn-{connection_id}",
            ):
                with self._lock:
                    self._connections.pop(connection_id, None)
                connection.close()
                return

    def _serve_connection(self, connection: socket.socket, connection_id: int) -> None:
        stream = connection.makefile("rb")
        # One send lock per connection: request/reply and a watch sender
        # thread share the socket (see Coordinator._serve_connection).
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
        """Subscribe this connection to the event stream (same contract
        as :meth:`Coordinator._start_watch`: the ``watching`` ack goes out
        before the sender thread starts, so events arrive strictly after
        it, in ``seq`` order)."""
        if watch_state.get("queue") is not None:
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
            name="service-watch-sender",
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
        if kind not in ("hello", "status"):
            self._touch_worker(connection_id)
        if kind == "hello":
            return self._hello(message, connection_id)
        if kind == "submit":
            return self._submit(message, connection_id)
        if kind == "poll":
            return self._poll(message)
        if kind == "cancel":
            return self._cancel(message)
        if kind == "jobs":
            return self._list_jobs()
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
        return {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "points": points,
            "features": list(SERVICE_FEATURES),
        }

    def _touch_worker(self, connection_id: int) -> None:
        with self._lock:
            name = self._peers.get(connection_id, {}).get("worker")
            if name is not None and name in self._worker_stats:
                self._worker_stats[name]["last_seen"] = time.monotonic()

    # ------------------------------------------------------------- job intake

    def _submit(self, message: Dict, connection_id: int) -> Dict:
        if self._shutdown.is_set():
            return {"type": "error", "error": "service is shutting down"}
        try:
            request = SweepRequest.from_wire(message.get("request") or {})
            for experiment in request.experiments:
                resolve_experiment(experiment)
        except (KeyError, TypeError, ValueError) as exc:
            self._metrics.counter("service.rejected_submissions")
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
        self._metrics.counter("service.submissions")
        self._emit_job(job)
        self._log.info(
            "job %s submitted by %s: %s (priority %s)",
            job.job_id, tenant, ",".join(request.experiments), request.priority,
        )
        self._spawn(self._plan_job, job, name=f"service-plan-{job.job_id}")
        return job.payload()

    def _plan_job(self, job: _Job) -> None:
        """Decompose one job into points and register them (own thread).

        Planning is trace-generation cost only, but for a ``--full``
        roster that is still seconds — hence off the connection thread,
        so submits return immediately and pollers see ``planning``.
        """
        request = job.request
        try:
            with engine_override(request.engine):
                units: Dict[str, SimulationUnit] = {}
                for label in request.experiments:
                    for unit in plan_experiment(label, label=label, **request.run_kwargs()):
                        units.setdefault(unit.key, unit)
        except Exception as exc:  # a broken experiment module fails its job only
            with self._lock:
                self._fail_job_locked(job, f"planning failed: {type(exc).__name__}: {exc}")
            return
        # Probe the store *outside* the lock (disk reads); re-checked
        # under the lock below, where it matters.
        missing: Dict[str, SimulationUnit] = {}
        reused = 0
        for key, unit in units.items():
            if self._store.get(key) is not None:
                reused += 1
            else:
                missing[key] = unit
        finalize = False
        with self._lock:
            if job.state != PLANNING:  # cancelled while planning
                return
            job.total = len(units)
            job.reused = reused
            for key, unit in missing.items():
                point = self._points.get(key)
                if point is None:
                    # Re-check under the lock: another job's commit may
                    # have landed (and dropped its point) since the probe
                    # above — without this a shared point would be
                    # simulated twice in that window.
                    if self._store.contains(key):
                        job.reused += 1
                        continue
                    point = _ServicePoint(unit)
                    self._points[key] = point
                    self._points_registered += 1
                    point.queued = True
                    label = point.figure or "(unlabeled)"
                    bucket = self._figures.setdefault(label, {"points": 0, "completed": 0})
                    bucket["points"] += 1
                point.jobs.add(job.job_id)
                job.remaining.add(key)
                job.queue.append(key)
            self._metrics.counter("service.points_planned", len(job.remaining))
            if job.remaining:
                job.state = RUNNING
                self._scheduler.add_job(job.job_id, priority=request.priority)
            else:
                # Everything was already in the store (a fully warm
                # resubmit): straight to replay.
                job.state = FINALIZING
                finalize = True
        self._log.info(
            "job %s planned: %d points (%d to simulate, %d reused)",
            job.job_id, job.total, len(job.remaining), job.reused,
        )
        self._emit_job(job)
        if finalize:
            self._spawn(self._finalize_job, job, name=f"service-final-{job.job_id}")

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
                    if point is not None:
                        # Attribute the duplicate lease to any live
                        # subscriber (reporting only); it is *not* a
                        # scheduler service — duplicating a straggler's
                        # tail must not advance anyone's streak.
                        job_id = next(iter(sorted(point.jobs)), None)
                if point is None:
                    return {"type": "wait", "seconds": self.retry_seconds}
                worker = self._peers.get(connection_id, {}).get(
                    "worker", f"conn-{connection_id}"
                )
                point.leases[connection_id] = _Lease(
                    connection_id, worker, deadline=now + self.lease_timeout,
                    started=now, job=job_id,
                )
                if worker in self._worker_stats:
                    self._worker_stats[worker]["leases"] += 1
            self._metrics.counter("service.lease_grants")
            wire = point.wire()  # outside the lock (large payloads)
            if wire is not None and not point.done:
                self.events.emit(
                    "lease.grant",
                    point=wire.get("key"),
                    worker=worker,
                    job=job_id,
                    figure=point.figure,
                )
                reply = {"type": "work", "unit": wire}
                if job_id is not None:
                    reply["job"] = job_id
                return reply
            with self._lock:
                point.leases.pop(connection_id, None)

    def _next_point_locked(self) -> Tuple[Optional[str], Optional[_ServicePoint]]:
        """Fair pick: ask the scheduler for a job, pop its next live key.

        A job whose queue holds only stale entries (shared points another
        job's lease already took) is drained and excluded, then the
        scheduler is asked again — so staleness can never eat a quantum.
        """
        exhausted: Set[str] = set()
        while True:
            backlog = {
                job_id: len(job.queue)
                for job_id, job in self._jobs.items()
                if job.state == RUNNING and job.queue and job_id not in exhausted
            }
            job_id = self._scheduler.select(backlog)
            if job_id is None:
                return None, None
            job = self._jobs[job_id]
            while job.queue:
                key = job.queue.popleft()
                point = self._points.get(key)
                if (
                    point is None or point.done or point.failed is not None
                    or not point.queued
                ):
                    continue
                point.queued = False
                self._scheduler.record_service(job_id)
                return job_id, point
            exhausted.add(job_id)

    def _straggler_candidate(
        self, connection_id: int, now: float
    ) -> Optional[_ServicePoint]:
        oldest: Optional[Tuple[float, _ServicePoint]] = None
        for point in self._points.values():
            if point.done or point.failed is not None or point.committing:
                continue
            if point.queued or not point.leases:
                continue
            if connection_id in point.leases:
                continue
            started = min(lease.started for lease in point.leases.values())
            if now - started < self.straggler_timeout:
                continue
            if oldest is None or started < oldest[0]:
                oldest = (started, point)
        return None if oldest is None else oldest[1]

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
            if point.done or point.committing:
                return {"type": "ack"}
            point.committing = True
            lease_job = lease.job if lease is not None else None
        try:
            # Commit outside the lock — a disk write must not serialise
            # every other connection (see Coordinator._commit).
            store_put(self._store, key, result, point.figure)
        except BaseException:
            with self._lock:
                point.committing = False
                point.attempts += 1
                self._settle_or_requeue(point, key, "result store commit failed")
            raise
        finalize: List[_Job] = []
        with self._lock:
            point.committing = False
            point.done = True
            self._points_completed += 1
            bucket = self._figures.get(point.figure or "(unlabeled)")
            if bucket is not None:
                bucket["completed"] += 1
            worker = self._peers.get(connection_id, {}).get("worker")
            if worker in self._worker_stats:
                self._worker_stats[worker]["completed"] += 1
            for job_id in point.jobs:
                job = self._jobs.get(job_id)
                if job is None or job.state != RUNNING or key not in job.remaining:
                    continue
                job.remaining.discard(key)
                if job_id == lease_job:
                    job.executed += 1
                else:
                    job.reused += 1
                if not job.remaining:
                    job.state = FINALIZING
                    self._scheduler.remove_job(job_id)
                    finalize.append(job)
            # The store answers everything from here on; drop the point
            # (and its traces) so a long-lived daemon's memory tracks the
            # *live* backlog, not its history.
            del self._points[key]
        self._metrics.counter("service.results_committed")
        self.events.emit(
            "point.commit",
            point=key,
            worker=worker,
            job=lease_job,
            figure=point.figure,
        )
        for job in finalize:
            self._emit_job(job)
            self._spawn(self._finalize_job, job, name=f"service-final-{job.job_id}")
        return {"type": "ack"}

    def _requeue(self, key: str, connection_id: int, reason: str) -> None:
        with self._lock:
            point = self._points.get(key)
            if point is None or point.done:
                return
            point.leases.pop(connection_id, None)
            self._record_attempt(point, key, reason)

    def _record_attempt(self, point: _ServicePoint, key: str, reason: str) -> None:
        """Count one failed attempt, then settle or requeue.  Lock held."""
        point.attempts += 1
        self._metrics.counter("service.retries")
        self._log.warning("point %s attempt failed: %s", key[:12], reason)
        self._settle_or_requeue(point, key, reason)
        if point.failed is not None:
            self.events.emit(
                "point.fail",
                point=key,
                figure=point.figure,
                reason=reason,
                attempts=point.attempts,
            )
        elif point.queued:
            self.events.emit(
                "point.requeue",
                point=key,
                figure=point.figure,
                reason=reason,
                attempts=point.attempts,
            )

    def _settle_or_requeue(self, point: _ServicePoint, key: str, reason: str) -> None:
        """Resolve a point after a failed attempt.  Lock held.

        Same invariant as the coordinator's: never settle while another
        live lease or an in-flight commit might still complete the
        point.  Requeueing re-lists the key with *every* live subscriber
        so whichever job the scheduler favours next can carry it.
        """
        if point.done or point.failed is not None:
            return
        if point.leases or point.committing:
            return
        if point.attempts >= self.max_attempts:
            self._fail_point_locked(point, key, reason)
        elif not point.queued:
            point.queued = True
            for job_id in point.jobs:
                job = self._jobs.get(job_id)
                if job is not None and job.state == RUNNING:
                    job.queue.append(key)

    def _fail_point_locked(self, point: _ServicePoint, key: str, reason: str) -> None:
        """A point exhausted its attempts: fail every subscribed job.

        The point is removed rather than kept failed forever — a later
        resubmit replans it from scratch with a fresh attempt budget
        (transient infrastructure failures should not poison a daemon).
        """
        point.failed = reason
        self._points_failed += 1
        bucket = self._figures.get(point.figure or "(unlabeled)")
        if bucket is not None:
            bucket["points"] -= 1
        self._metrics.counter("service.points_failed")
        for job_id in list(point.jobs):
            job = self._jobs.get(job_id)
            if job is not None:
                self._fail_job_locked(job, f"point {key[:12]} failed: {reason}")
        self._points.pop(key, None)

    def _fail_job_locked(self, job: _Job, reason: str) -> None:
        if job.state in TERMINAL_STATES:
            return
        job.state = FAILED
        job.error = reason
        job.finished_at = time.time()
        self._scheduler.remove_job(job.job_id)
        job.queue.clear()
        self._drop_subscriptions_locked(job)
        self._metrics.counter("service.jobs_failed")
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
                bucket = self._figures.get(point.figure or "(unlabeled)")
                if bucket is not None:
                    bucket["points"] -= 1
                self._points.pop(key, None)
        job.remaining.clear()

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
        with self._lock:
            info = self._peers.pop(connection_id, None)
        if info is not None:
            self._log.info("%s %s disconnected", info.get("role", "peer"), info.get("worker"))
            self.events.emit("worker.disconnect", worker=info.get("worker"))
        with self._lock:
            for key, point in list(self._points.items()):
                if connection_id in point.leases and not point.done:
                    point.leases.pop(connection_id)
                    if not point.leases:
                        self._record_attempt(point, key, "worker connection lost")

    def _reaper_loop(self) -> None:
        interval = min(1.0, max(0.05, self.lease_timeout / 4))
        while not self._shutdown.wait(interval):
            now = time.monotonic()
            with self._lock:
                for key, point in list(self._points.items()):
                    if point.done or point.failed is not None:
                        continue
                    expired = [
                        lease_id
                        for lease_id, lease in point.leases.items()
                        if lease.deadline < now
                    ]
                    for lease_id in expired:
                        lease = point.leases.pop(lease_id)
                        self._metrics.counter("service.lease_expired")
                        self.events.emit(
                            "lease.expire",
                            point=key,
                            worker=lease.worker,
                            job=lease.job,
                            figure=point.figure,
                        )
                        self._record_attempt(point, key, "lease expired (missed heartbeats)")

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
                self._scheduler.remove_job(job_id)
                job.queue.clear()
                self._drop_subscriptions_locked(job)
                self._metrics.counter("service.jobs_cancelled")
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
        the same construction the one-shot pipeline uses — so the data
        dicts are byte-identical to a serial run.  The backend and the
        engine override are thread-local, so several jobs (even on
        different engines) finalize concurrently without interference.
        """
        request = job.request
        try:
            data: Dict[str, Dict] = {}
            with engine_override(request.engine):
                backend = CacheServingBackend(self._store)
                with installed_backend(backend):
                    for label in request.experiments:
                        backend.figure = label
                        module = resolve_experiment(label)
                        call_kwargs = filter_run_kwargs(module, request.run_kwargs())
                        if "cache" in supported_run_kwargs(module):
                            call_kwargs["cache"] = AloneRunCache()
                        data[label] = module.run(**call_kwargs)
            # Canonicalise now so a poll's wire round-trip cannot change
            # the bytes a client exports (see report.canonical_data).
            results = canonical_data(data)
        except Exception as exc:
            with self._lock:
                self._fail_job_locked(job, f"replay failed: {type(exc).__name__}: {exc}")
            return
        with self._lock:
            if job.state in TERMINAL_STATES:  # cancelled during replay
                return
            job.results = results
            job.state = DONE
            job.finished_at = time.time()
        self._metrics.counter("service.jobs_completed")
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
                "priority": request.priority,
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

    # ------------------------------------------------------------- status

    def status_payload(self) -> Dict:
        """The live ``status`` reply, coordinator-shaped plus a jobs table
        and the fairness scheduler's state."""
        now = time.monotonic()
        elapsed = max(1e-9, now - self._started_monotonic)
        with self._lock:
            active_leases = sum(
                len(point.leases) for point in self._points.values() if not point.done
            )
            pending = sum(1 for point in self._points.values() if point.queued)
            rate = self._points_completed / elapsed
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
            jobs = {job_id: job.payload() for job_id, job in self._jobs.items()}
            scheduler = self._scheduler.snapshot()
            worker_snapshots = list(self._worker_snapshots.values())
            completed = self._points_completed
            failed = self._points_failed
            points = self._points_registered
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
            "jobs": jobs,
            "scheduler": scheduler,
        }


#: Sentinel handler return: close the connection without replying.
_GOODBYE = object()
