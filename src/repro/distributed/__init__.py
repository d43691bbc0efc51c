"""Distributed execution: sharding simulation points across workers.

This subsystem runs sweeps on a worker fleet.  One point server, the
``repro serve`` daemon (:class:`~repro.distributed.service.SweepService`),
plans submitted sweeps and serves their simulation points over a
JSON-lines TCP protocol; :func:`~repro.distributed.worker.run_worker`
processes — on the same machine or any machine that can reach the
service — lease points, simulate them through the existing engine, and
stream results back.  The service probes each job against the
content-addressed result store as a local sweep does, commits what the
workers simulate for it, and builds the job's data from the store on
the serial code path, so a distributed sweep is bit-identical to a
serial one.  Every peer's hello must carry this build's protocol
version.

Everything is standard library only (``socket`` + ``threading`` +
``json``): no broker, no serialization framework, no install step on
worker machines beyond the repository itself.

Public surface:

* :class:`~repro.distributed.service.SweepService` — the persistent
  multi-tenant daemon behind ``repro serve``: submit/poll/cancel over
  the same protocol, leases round-robin across jobs, one shared worker
  fleet, per-job run manifests.
* :class:`~repro.distributed.client.SweepClient` — submit → job id →
  poll → results, the programmatic face of ``repro submit``;
  :class:`~repro.distributed.client.WatchClient` streams the service's
  events for ``repro watch``.
* :func:`~repro.distributed.worker.run_worker` — the worker loop behind
  ``python -m repro worker --target HOST:PORT``, checkpoint streaming
  included; :func:`~repro.distributed.worker.spawn_local_worker` starts
  one as a localhost process (``repro serve --workers N``).
* :mod:`~repro.distributed.protocol` — message framing and the unit /
  config / trace / result wire codecs.
"""

from .client import JobStatus, ServiceError, SweepClient, WatchClient
from .protocol import (
    PROTOCOL_VERSION,
    parse_address,
    unit_from_wire,
    unit_to_wire,
)
from .service import SweepService
from .worker import WorkerStats, run_worker, spawn_local_worker

__all__ = [
    "JobStatus",
    "PROTOCOL_VERSION",
    "ServiceError",
    "SweepClient",
    "SweepService",
    "WatchClient",
    "WorkerStats",
    "parse_address",
    "run_worker",
    "spawn_local_worker",
    "unit_from_wire",
    "unit_to_wire",
]
