"""Distributed execution: sharding simulation points across workers.

This subsystem turns the orchestrator's execute phase into a cluster
run.  One point server (:class:`~repro.distributed.service.PointServer`)
serves simulation points over a JSON-lines TCP protocol;
:func:`~repro.distributed.worker.run_worker` processes — on the same
machine or any machine that can reach the server — lease points,
simulate them through the existing engine, and stream results back.
The server commits results to the content-addressed result store, so a
distributed sweep replays bit-identically to a serial one.  Two
policies sit on the one server: the persistent multi-tenant
``repro serve`` daemon and the one-shot library coordinator.

Everything is standard library only (``socket`` + ``threading`` +
``json``): no broker, no serialization framework, no install step on
worker machines beyond the repository itself.

Public surface:

* :class:`~repro.distributed.service.SweepService` — the persistent
  multi-tenant daemon behind ``repro serve``: submit/poll/cancel over
  the same protocol, BLISS-fair scheduling across jobs, one shared
  worker fleet, per-job run manifests.
* :class:`~repro.distributed.client.SweepClient` — submit → job id →
  poll → results, the programmatic face of ``repro submit``.
* :class:`~repro.distributed.fairness.TenantScheduler` — the
  consecutive-service/blacklist/clearing policy object.
* :class:`~repro.distributed.executor.DistributedExecutor` — plug into
  :func:`repro.orchestration.sweep.sweep_experiments`'s ``executor=``
  (library only; the CLI routes through ``--target``).
* :class:`~repro.distributed.coordinator.Coordinator` — the one-shot
  FIFO policy the executor runs: one batch, ``done`` once it settles.
* :func:`~repro.distributed.worker.run_worker` — the worker loop behind
  ``python -m repro worker --target HOST:PORT`` (identical against a
  coordinator or a service, checkpoint streaming included).
* :mod:`~repro.distributed.protocol` — message framing and the unit /
  config / trace / result wire codecs.
"""

from .client import JobStatus, ServiceError, SweepClient, WatchClient
from .coordinator import Coordinator
from .executor import DistributedExecutor, spawn_local_worker
from .fairness import TenantScheduler
from .protocol import (
    PROTOCOL_VERSION,
    SERVICE_FEATURES,
    parse_address,
    unit_from_wire,
    unit_to_wire,
)
from .service import SweepService
from .worker import WorkerStats, run_worker

__all__ = [
    "Coordinator",
    "DistributedExecutor",
    "JobStatus",
    "PROTOCOL_VERSION",
    "SERVICE_FEATURES",
    "ServiceError",
    "SweepClient",
    "SweepService",
    "TenantScheduler",
    "WatchClient",
    "WorkerStats",
    "parse_address",
    "run_worker",
    "spawn_local_worker",
    "unit_from_wire",
    "unit_to_wire",
]
