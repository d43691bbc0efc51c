"""Distributed executor: the orchestrator's bridge to the coordinator.

Library API only — the CLI's remote route is ``--target HOST:PORT``
against a ``repro serve`` daemon.  :class:`DistributedExecutor` plugs into
:func:`repro.orchestration.sweep.execute_units` like any other
:class:`~repro.orchestration.executors.Executor`: it starts a
:class:`~repro.distributed.coordinator.Coordinator` over the pending
points, optionally self-spawns localhost worker processes, and blocks
until every point is committed to the result store.  Remote workers on
other machines join the same run with::

    PYTHONPATH=src python -m repro worker --target HOST:PORT

Because results land in the same content-addressed store the replay
phase reads, a distributed sweep's output is bit-identical to a serial
run — including when workers die mid-run (the coordinator requeues
their points).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .. import telemetry
from ..orchestration.executors import Executor
from ..telemetry import logs
from .coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_STRAGGLER_TIMEOUT,
    Coordinator,
)


def spawn_local_worker(
    host: str, port: int, index: int = 0, checkpoint_interval: Optional[int] = None
) -> subprocess.Popen:
    """Start ``python -m repro worker`` as a detached localhost process.

    The child inherits the environment with this package's ``src`` root
    prepended to ``PYTHONPATH``, so self-spawned workers run the exact
    code of the coordinating process without an install step.  (No
    engine forwarding is needed: the engine selection travels inside
    each leased unit's config.)
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


#: Wildcard listen addresses cannot be *connected to*; self-spawned
#: workers use loopback and the announced join command uses the
#: machine's hostname instead.
_WILDCARD_HOSTS = ("0.0.0.0", "::", "")


class DistributedExecutor(Executor):
    """Shards pending simulation points across coordinator-fed workers."""

    name = "distributed"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spawn_workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        straggler_timeout: float = DEFAULT_STRAGGLER_TIMEOUT,
        timeout: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        announce=None,
    ) -> None:
        self.host = host
        self.port = port
        self.spawn_workers = max(0, int(spawn_workers))
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.straggler_timeout = straggler_timeout
        self.timeout = timeout
        #: Simulated-cycle interval at which self-spawned workers stream
        #: checkpoints to the coordinator (``None`` = no checkpointing).
        #: External workers choose their own via ``--checkpoint-interval``.
        self.checkpoint_interval = checkpoint_interval
        self._announce = announce or logs.get_logger("distributed").info
        #: Last run's coordinator (exposed for tests and diagnostics).
        self.last_coordinator: Optional[Coordinator] = None
        #: Merged fleet metrics of the last run (coordinator counters +
        #: every worker's final snapshot), for manifests and reporting.
        self.last_fleet_metrics: Optional[dict] = None
        #: Per-worker final snapshots of the last run, by worker name.
        self.last_worker_snapshots: dict = {}

    def execute(self, units: Sequence, store) -> int:
        units = list(units)
        coordinator = Coordinator(
            units,
            store,
            host=self.host,
            port=self.port,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
            straggler_timeout=self.straggler_timeout,
            # The process bus: lease/commit/requeue events from this run
            # land in the same journal as the sweep's own point events.
            events=telemetry.bus(),
        )
        self.last_coordinator = coordinator
        host, port = coordinator.start()
        # A wildcard bind address is a listen-only concept: workers on
        # this machine connect via loopback, and the join command shown
        # to the operator names the host so it works from other machines.
        connect_host = "127.0.0.1" if host in _WILDCARD_HOSTS else host
        join_host = socket.gethostname() if host in _WILDCARD_HOSTS else host
        workers: List[subprocess.Popen] = []
        try:
            for index in range(self.spawn_workers):
                workers.append(
                    spawn_local_worker(
                        connect_host, port, index, checkpoint_interval=self.checkpoint_interval
                    )
                )
            if not self.spawn_workers:
                self._announce(
                    f"[distributed] coordinator listening on {host}:{port}; waiting for workers "
                    f"(start one with: python -m repro worker --target {join_host}:{port})"
                )
            else:
                self._announce(
                    f"[distributed] coordinator on {host}:{port}, "
                    f"{self.spawn_workers} localhost worker(s), {len(units)} point(s)"
                )
            self._wait(coordinator, workers, len(units))
            # Fold the fleet's telemetry into this process before the
            # coordinator goes away: the sweep's manifest and any final
            # report read the process registry.
            self.last_fleet_metrics = coordinator.fleet_metrics()
            self.last_worker_snapshots = coordinator.worker_snapshots()
            telemetry.merge_into_process(self.last_fleet_metrics)
            failed = coordinator.failed_keys
            if failed:
                key, reason = next(iter(failed.items()))
                raise RuntimeError(
                    f"{len(failed)} simulation point(s) exhausted their retries "
                    f"(first: {key[:12]}…: {reason})"
                )
        finally:
            # Stop the coordinator first: it drops every worker connection,
            # so self-spawned workers exit immediately instead of each
            # eating the full reap timeout on the error/timeout path.
            coordinator.stop()
            self._reap(workers)
        return len(units)

    def _wait(
        self, coordinator: Coordinator, workers: List[subprocess.Popen], total: int
    ) -> None:
        """Block until the run settles, the deadline passes, or — when every
        worker was self-spawned — the whole fleet has died.

        Without the fleet check, losing all self-spawned workers would
        requeue their points into a queue nobody serves and the run would
        hang forever instead of erroring.  External workers may still join
        at any time, so the check only fires while none are connected.
        """
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        while not coordinator.wait(0.5):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"distributed run did not finish within {self.timeout} s "
                    f"({coordinator.snapshot()['completed']}/{total} points committed)"
                )
            if workers and all(worker.poll() is not None for worker in workers):
                if coordinator.wait(0):
                    return  # the fleet exited because the run just finished
                snapshot = coordinator.snapshot()
                if not snapshot["workers"]:
                    codes = [worker.returncode for worker in workers]
                    raise RuntimeError(
                        f"all {len(workers)} self-spawned worker(s) exited "
                        f"(return codes {codes}) with "
                        f"{snapshot['completed']}/{total} points committed and "
                        "no external workers connected"
                    )

    def _reap(self, workers: List[subprocess.Popen]) -> None:
        """Give self-spawned workers a moment to exit cleanly, then kill."""
        for worker in workers:
            try:
                worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                try:
                    worker.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
