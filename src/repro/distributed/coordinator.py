"""Work-queue coordinator: serves one fixed batch of points to workers.

The coordinator is the one-shot policy on the shared
:class:`~repro.distributed.service.PointServer` core (leases,
heartbeats, bounded retries, straggler re-issue, checkpoint
re-attachment, store commits — see that module).  It leases the
pending :class:`~repro.orchestration.sweep.SimulationUnit`s of one batch
in FIFO order, keeps settled points so :attr:`Coordinator.failed_keys`
and the resume log stay readable after the run, and answers ``done`` to
every worker once the whole batch has settled.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Optional, Tuple

from .. import telemetry
from ..orchestration.sweep import SimulationUnit
from .protocol import FEATURES
from .service import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RETRY_SECONDS,
    DEFAULT_STRAGGLER_TIMEOUT,
    PointServer,
    _Point,
)

class Coordinator(PointServer):
    """Serves a fixed set of simulation points to workers over TCP."""

    server_kind = "coordinator"
    thread_stem = "coord"
    features = FEATURES

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
        # Callers (the distributed executor) pass the process bus so a
        # run's journal sees fleet events.
        super().__init__(
            store, host, port,
            lease_timeout=lease_timeout,
            max_attempts=max_attempts,
            straggler_timeout=straggler_timeout,
            retry_seconds=retry_seconds,
            events=events,
        )
        self._pending: deque[str] = deque()
        for unit in units:
            if unit.key not in self._points:
                self._add_point_locked(unit)
                self._pending.append(unit.key)
        #: Resume accounting, keyed by point: which cycle each committed
        #: result resumed from and how many cycles the committing worker
        #: actually simulated.  Populated from the result message's
        #: optional ``resumed_from``/``simulated_cycles`` fields; the
        #: distributed tests use it to prove a re-leased point continued
        #: from its checkpoint rather than restarting.
        self.resume_log: Dict[str, Dict] = {}
        self._check_finished()

    @property
    def results_committed(self) -> int:
        return self._points_completed

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every point is done or failed (or ``timeout`` passes)."""
        return self._finished.wait(timeout)

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
                "pending": sum(1 for point in self._points.values() if point.queued),
                "completed": self._points_completed,
                "failed": self._points_failed,
                "leases": leases,
                "workers": [
                    dict(info) for info in self._peers.values() if info["role"] == "worker"
                ],
            }

    # ------------------------------------------------------------- policy

    def _next_point_locked(self) -> Tuple[Optional[str], Optional[_Point]]:
        while self._pending:
            point = self._points[self._pending.popleft()]
            if point.queued:
                point.queued = False
                return None, point
        return None, None

    def _requeue_locked(self, point: _Point) -> None:
        self._pending.append(point.key)

    def _credit_commit_locked(
        self, point: _Point, lease_job: Optional[str], worker: Optional[str], message: Dict
    ) -> Optional[Callable[[], None]]:
        resumed_from = message.get("resumed_from")
        if isinstance(resumed_from, int):
            self.resume_log[point.key] = {
                "resumed_from": resumed_from,
                "simulated_cycles": message.get("simulated_cycles"),
                "worker": worker,
            }
        self._check_finished()
        return None

    def _fail_point_locked(self, point: _Point, reason: str) -> None:
        self._check_finished()

    def _check_finished(self) -> None:
        """Lock held: flip the finished event once every point settles."""
        if self._points_completed + self._points_failed == len(self._points):
            self._finished.set()
