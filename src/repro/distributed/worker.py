"""Worker loop: lease points from a ``repro serve`` daemon, simulate,
stream results.

A worker is stateless — it holds nothing but the point it is currently
simulating.  While a simulation runs, a background thread sends
heartbeats so the service keeps the lease alive; the simulation itself
goes through :func:`repro.sim.runner.simulate_traces` (the
repository-wide choke point), so a worker honours the same engine
selection and produces the same bits as an in-process run.

Run one from the CLI on any machine that can reach the service::

    PYTHONPATH=src python -m repro worker --target HOST:PORT

A service never runs out of work, so a worker runs until the connection
drops (the daemon stops, or the worker is killed) or a lease is answered
``done`` (the service is stopping).  :func:`spawn_local_worker` starts
one as a localhost process; ``repro serve --workers N`` uses it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import telemetry
from ..sim import checkpoint as ckpt
from ..sim.runner import checkpointing, simulate_traces
from ..telemetry import logs
from .protocol import (
    checkpoint_from_wire,
    checkpoint_message,
    encode_message,
    hello_message,
    metrics_message,
    open_connection,
    parse_address,
    read_message,
    result_to_wire,
    unit_from_wire,
)

#: Seconds between lease-renewal heartbeats while a point simulates.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


@dataclass
class WorkerStats:
    """What one worker did over its lifetime."""

    simulated: int = 0
    errors: int = 0
    waits: int = 0


class _Heartbeat:
    """Background lease renewal for the point currently simulating."""

    def __init__(self, connection: socket.socket, send_lock: threading.Lock, key: str,
                 interval: float) -> None:
        self._connection = connection
        self._send_lock = send_lock
        self._key = key
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name="worker-heartbeat")

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)

    def _run(self) -> None:
        message = encode_message({"type": "heartbeat", "key": self._key})
        while not self._stop.wait(self._interval):
            try:
                with self._send_lock:
                    self._connection.sendall(message)
            except OSError:
                return


class _Interrupted(Exception):
    """The worker was told to stop (SIGTERM) mid-simulation; the final
    checkpoint has already been streamed to the server."""


class _WireCheckpointStore:
    """Checkpoint ``resume``/``put`` interface that streams to the
    service instead of a directory.

    One instance serves one leased point: ``resume`` rehydrates the
    snapshot the server attached to the ``work`` reply (falling back to
    a fresh start if it does not match this unit), and ``put`` sends
    each periodic snapshot as a fire-and-forget ``checkpoint`` message.
    After streaming a snapshot it raises :class:`_Interrupted` if a stop
    was requested — the server then holds everything the worker knew,
    so exiting loses nothing.
    """

    def __init__(self, send, worker_id: str, key: str, resume_payload, stop: threading.Event) -> None:
        self._send = send
        self._worker = worker_id
        self._key = key
        self._resume_payload = resume_payload
        self._stop = stop
        self.resumed_from = 0

    def resume(self, traces, config):
        decoded = checkpoint_from_wire(self._resume_payload)
        if decoded is None:
            return None
        _cycle, data = decoded
        try:
            system = ckpt.restore(data, traces=traces, config=config)
        except ckpt.CheckpointError:
            # A stale or mismatched snapshot (service restarted with
            # different points, version skew): restart from scratch.
            telemetry.counter("worker.checkpoint_rejects")
            return None
        self.resumed_from = system.cycle
        return system

    def put(self, traces, config, system) -> None:
        try:
            self._send(checkpoint_message(self._worker, self._key, system.cycle, ckpt.snapshot(system)))
        except OSError:
            pass  # connection gone; the lease reaper will requeue the point
        if self._stop.is_set():
            raise _Interrupted()


def run_worker(
    connect: str,
    worker_id: Optional[str] = None,
    *,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    checkpoint_interval: Optional[int] = None,
    log=None,
) -> WorkerStats:
    """Serve one service until told ``done`` or the connection drops.

    ``connect`` is ``HOST:PORT``.  Returns the worker's tally; raises
    ``OSError`` if the server cannot be reached at all.

    With ``checkpoint_interval`` set (simulated cycles), the worker
    streams a snapshot of the running point to the server every
    interval and resumes from any snapshot attached to its lease, so a
    killed worker loses at most one interval of simulation.  SIGTERM is
    honoured cooperatively: the worker finishes the current interval,
    streams one final checkpoint, and disconnects.
    """
    host, port = parse_address(connect)
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    log = log or logs.get_logger("worker", worker_id).info
    stats = WorkerStats()
    # Worker-side telemetry.  ``registry`` holds the worker's own tallies;
    # snapshots sent to the service additionally fold in the process
    # registry, which carries the engine/cache metrics recorded by the
    # simulations themselves (a dedicated worker process records nothing
    # else into it; in-process test workers share it, which merely makes
    # their snapshots a superset).
    registry = telemetry.MetricsRegistry()

    connection = open_connection((host, port))
    send_lock = threading.Lock()
    stream = connection.makefile("rb")

    def send(payload: dict) -> None:
        with send_lock:
            connection.sendall(encode_message(payload))

    def receive() -> Optional[dict]:
        # Bounded read; raises ValueError on an oversized/garbled frame.
        return read_message(stream)

    # Cooperative SIGTERM: set a flag, let the simulation reach its next
    # checkpoint boundary, stream the final snapshot, exit.  Installing a
    # handler only works from the main thread; in-process test workers
    # run on daemon threads and are stopped by their caller instead.
    stop_requested = threading.Event()
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, lambda _signum, _frame: stop_requested.set())
    except ValueError:
        pass

    try:
        send(hello_message(worker_id, pid=os.getpid()))
        welcome = receive()
        if welcome is None or welcome.get("type") != "welcome":
            error = (welcome or {}).get("error", "service refused the hello")
            raise ConnectionError(f"handshake failed: {error}")
        log(f"connected to {host}:{port} ({welcome.get('points', '?')} points in the run)")

        def report_metrics() -> None:
            snapshot = telemetry.merge_snapshots(registry.snapshot(), telemetry.snapshot())
            try:
                send(metrics_message(worker_id, snapshot))
            except OSError:
                pass

        while True:
            send({"type": "lease"})
            reply = receive()
            if reply is None:
                log("server hung up")
                break
            kind = reply.get("type")
            if kind == "done":
                report_metrics()
                send({"type": "goodbye"})
                break
            if kind == "wait":
                stats.waits += 1
                registry.counter("worker.waits")
                time.sleep(float(reply.get("seconds", 0.5)))
                continue
            if kind != "work":
                log(f"unexpected reply {kind!r}; exiting")
                break

            key = str((reply.get("unit") or {}).get("key", ""))
            started = time.perf_counter()
            store: Optional[_WireCheckpointStore] = None
            try:
                unit = unit_from_wire(reply["unit"])
                with _Heartbeat(connection, send_lock, key, heartbeat_interval):
                    with telemetry.figure_scope(getattr(unit, "figure", None)):
                        if checkpoint_interval is not None:
                            store = _WireCheckpointStore(
                                send, worker_id, key, reply.get("checkpoint"), stop_requested
                            )
                            with checkpointing(store, checkpoint_interval):
                                result = simulate_traces(unit.traces, unit.config)
                        else:
                            result = simulate_traces(unit.traces, unit.config)
            except _Interrupted:
                # The final checkpoint is already with the service;
                # disconnect cleanly so the point is requeued promptly.
                log("stop requested; final checkpoint streamed, exiting")
                registry.counter("worker.interrupted")
                send({"type": "goodbye"})
                break
            except Exception as exc:  # bad payload or simulation bug: report, keep serving
                stats.errors += 1
                registry.counter("worker.errors")
                send({"type": "error", "key": key, "error": f"{type(exc).__name__}: {exc}"})
            else:
                stats.simulated += 1
                registry.counter("worker.points")
                registry.observe("worker.point_seconds", time.perf_counter() - started)
                message = {"type": "result", "key": key, "result": result_to_wire(result)}
                if store is not None:
                    # Resume accounting: the service's ``point.commit``
                    # event shows whether a re-leased point continued
                    # rather than restarted.
                    message["resumed_from"] = store.resumed_from
                    message["simulated_cycles"] = result.total_cycles - store.resumed_from
                send(message)
            ack = receive()
            if ack is None:
                log("server hung up before acknowledging")
                break
            report_metrics()
            if stop_requested.is_set():
                log("stop requested; exiting between leases")
                send({"type": "goodbye"})
                break
    except ValueError as exc:
        # A garbled or oversized frame: the stream is unrecoverable, but
        # the worker should exit cleanly (the service requeues the
        # leased point when the connection drops) rather than traceback.
        log(f"protocol error, disconnecting: {exc}")
    finally:
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:
                pass
        try:
            stream.close()
            connection.close()
        except OSError:
            pass
    log(f"done: {stats.simulated} simulated, {stats.errors} errors")
    return stats


def spawn_local_worker(
    host: str, port: int, index: int = 0, checkpoint_interval: Optional[int] = None
) -> subprocess.Popen:
    """Start ``python -m repro worker`` as a detached localhost process.

    The child inherits the environment with this package's ``src`` root
    prepended to ``PYTHONPATH``, so self-spawned workers run the exact
    code of the serving process without an install step.  (No engine
    forwarding is needed: the engine selection travels inside each
    leased unit's config.)
    """
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(src_root) + (os.pathsep + existing if existing else "")
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--target",
        f"{host}:{port}",
        "--id",
        f"local-{index}",
    ]
    if checkpoint_interval is not None:
        command += ["--checkpoint-interval", str(checkpoint_interval)]
    return subprocess.Popen(command, env=env)
