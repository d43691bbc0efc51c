"""Client side of the sweep service: submit → job id → poll → results.

:class:`SweepClient` is the programmatic face of ``repro submit``/
``repro jobs``: it connects to a running
:class:`~repro.distributed.service.SweepService`, introduces itself with
``role: "client"`` (so the service never mistakes it for a worker), and
drives the ``submit``/``poll``/``cancel``/``jobs`` message family.
:class:`WatchClient` is the face of ``repro watch``.  A service that
speaks another protocol version refuses either hello, and the client
raises :class:`ServiceError` at once instead of failing obscurely on its
first request.

One connection serves any number of requests; messages are strictly
request/reply, so the client is trivially usable from a ``with`` block::

    with SweepClient("127.0.0.1:7777") as client:
        job = client.submit(SweepRequest(experiments=("fig5", "fig6")))
        status = client.wait(job)
        data = client.results(job)
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..orchestration.request import SweepRequest
from .protocol import (
    encode_message,
    hello_message,
    open_connection,
    parse_address,
    read_message,
)

#: Socket timeout for one request/reply round trip.  Replies are small
#: except a ``results: true`` poll, which still encodes in well under
#: a second; planning/simulating time is absorbed by polling, never by
#: one blocking read.
DEFAULT_TIMEOUT = 30.0

#: Seconds between polls in :meth:`SweepClient.wait`.
DEFAULT_POLL_INTERVAL = 0.2

#: Connect/handshake timeout for :class:`WatchClient` (the event stream
#: itself is unbounded — a quiet fleet pushes nothing for minutes).
DEFAULT_CONNECT_TIMEOUT = 10.0


class ServiceError(RuntimeError):
    """The service rejected a request or the conversation broke down."""


def _handshake(connection: socket.socket, stream, name: str, role: str) -> None:
    """Say hello as ``role``; raise :class:`ServiceError` unless welcomed."""
    connection.sendall(encode_message(hello_message(name, pid=os.getpid(), role=role)))
    welcome = read_message(stream)
    if welcome is None or welcome.get("type") != "welcome":
        error = (welcome or {}).get("error", "service refused the hello")
        raise ServiceError(f"handshake failed: {error}")


@dataclass
class JobStatus:
    """One poll's view of a job, decoded tolerantly from the wire."""

    job_id: str
    state: str
    points: int = 0
    completed: int = 0
    executed: int = 0
    reused: int = 0
    pending: int = 0
    priority: str = "interactive"
    tenant: Optional[str] = None
    error: Optional[str] = None
    results: Optional[Dict[str, Dict]] = None
    experiments: Tuple[str, ...] = ()
    elapsed_seconds: float = 0.0
    raw: Dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @classmethod
    def from_payload(cls, payload: Dict) -> "JobStatus":
        """Decode a ``type: "job"`` reply; unknown fields are kept in
        ``raw`` so newer services never break older clients."""

        def _int(name: str) -> int:
            value = payload.get(name, 0)
            return value if isinstance(value, int) else 0

        return cls(
            job_id=str(payload.get("job", "")),
            state=str(payload.get("state", "unknown")),
            points=_int("points"),
            completed=_int("completed"),
            executed=_int("executed"),
            reused=_int("reused"),
            pending=_int("pending"),
            priority=str(payload.get("priority", "interactive")),
            tenant=payload.get("tenant"),
            error=payload.get("error"),
            results=payload.get("results"),
            experiments=tuple(payload.get("experiments", ())),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0) or 0.0),
            raw=payload,
        )


class WatchClient:
    """Streaming observer of a service's event feed.

    Connects with ``role: "observer"`` and subscribes to the event
    stream: ``status`` then holds the seeding snapshot the ``watching``
    ack carried, and :meth:`events` yields one event dict per push until
    the connection closes.
    """

    def __init__(
        self,
        target: Union[str, Tuple[str, int]],
        *,
        from_seq: Optional[int] = None,
        timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        address = parse_address(target) if isinstance(target, str) else tuple(target)
        self.name = f"watch-{socket.gethostname()}-{os.getpid()}"
        self.status: Optional[Dict] = None
        self.seq = 0
        self._connection = open_connection(address, timeout=timeout)
        self._stream = self._connection.makefile("rb")
        try:
            _handshake(self._connection, self._stream, self.name, "observer")
            subscribe: Dict = {"type": "watch"}
            # None = live-only; an explicit value (0 included) replays
            # buffered history — mirror the wire semantics.
            if from_seq is not None:
                subscribe["from_seq"] = int(from_seq)
            self._connection.sendall(encode_message(subscribe))
            ack = read_message(self._stream)
            if ack is None or ack.get("type") != "watching":
                raise ServiceError(f"watch subscription refused: {ack!r}")
            self.seq = int(ack.get("seq") or 0)
            status = ack.get("status")
            self.status = status if isinstance(status, dict) else None
            # The stream blocks until the fleet does something; only the
            # connect/handshake above is deadline-bound.
            self._connection.settimeout(None)
        except BaseException:
            self.close()
            raise

    def events(self):
        """Yield pushed event dicts; returns when the peer hangs up."""
        while True:
            try:
                message = read_message(self._stream)
            except (OSError, ValueError):
                return
            if message is None:
                return
            if message.get("type") != "event":
                continue
            event = message.get("event")
            if isinstance(event, dict):
                self.seq = int(event.get("seq") or self.seq)
                yield event

    def close(self) -> None:
        try:
            self._stream.close()
            self._connection.close()
        except OSError:
            pass

    def __enter__(self) -> "WatchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SweepClient:
    """Submit/poll/cancel sweeps against a running :class:`SweepService`."""

    def __init__(
        self,
        target: Union[str, Tuple[str, int]],
        *,
        tenant: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        address = parse_address(target) if isinstance(target, str) else tuple(target)
        self.tenant = tenant or f"client-{socket.gethostname()}-{os.getpid()}"
        self._connection = open_connection(address, timeout=timeout)
        self._stream = self._connection.makefile("rb")
        try:
            _handshake(self._connection, self._stream, self.tenant, "client")
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- transport

    def _rpc(self, payload: Dict) -> Dict:
        try:
            self._connection.sendall(encode_message(payload))
            reply = read_message(self._stream)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"service connection failed: {exc}") from exc
        if reply is None:
            raise ServiceError("service closed the connection")
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("error", "service error")))
        return reply

    def close(self) -> None:
        try:
            self._connection.sendall(encode_message({"type": "goodbye"}))
        except OSError:
            pass
        try:
            self._stream.close()
            self._connection.close()
        except OSError:
            pass

    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- job API

    def submit(self, request: SweepRequest) -> str:
        """Submit one sweep; returns the job id immediately (planning and
        simulation proceed on the service)."""
        if not isinstance(request, SweepRequest):
            raise TypeError(f"submit takes a SweepRequest, got {type(request).__name__}")
        reply = self._rpc(
            {"type": "submit", "request": request.to_wire(), "tenant": self.tenant}
        )
        status = JobStatus.from_payload(reply)
        if not status.job_id:
            raise ServiceError(f"service returned no job id: {reply!r}")
        return status.job_id

    def poll(self, job_id: str, include_results: bool = False) -> JobStatus:
        """One snapshot of a job's progress."""
        payload: Dict = {"type": "poll", "job": job_id}
        if include_results:
            payload["results"] = True
        return JobStatus.from_payload(self._rpc(payload))

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        interval: float = DEFAULT_POLL_INTERVAL,
    ) -> JobStatus:
        """Poll until the job reaches a terminal state.

        Raises ``TimeoutError`` after ``timeout`` seconds (``None`` waits
        forever).  The terminal status is returned as-is — callers decide
        what a ``failed``/``cancelled`` end state means to them.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.poll(job_id)
            if status.finished:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state} after {timeout:.1f}s "
                    f"({status.completed}/{status.points} points)"
                )
            time.sleep(interval)

    def results(self, job_id: str) -> Dict[str, Dict]:
        """The finished job's figure data dicts (label → data).

        The payload was canonicalised by the service, so exporting it
        with :func:`repro.orchestration.report.dump_json` is
        byte-identical to a local serial run of the same request.
        """
        status = self.poll(job_id, include_results=True)
        if status.state != "done":
            raise ServiceError(
                f"job {job_id} has no results (state {status.state}"
                + (f": {status.error}" if status.error else "")
                + ")"
            )
        if status.results is None:
            raise ServiceError(f"job {job_id} is done but returned no results")
        return status.results

    def run(self, request: SweepRequest, timeout: Optional[float] = None) -> Dict[str, Dict]:
        """Submit and block until the results are in (convenience)."""
        job_id = self.submit(request)
        status = self.wait(job_id, timeout=timeout)
        if status.state != "done":
            raise ServiceError(
                f"job {job_id} {status.state}"
                + (f": {status.error}" if status.error else "")
            )
        return self.results(job_id)

    def cancel(self, job_id: str) -> JobStatus:
        return JobStatus.from_payload(self._rpc({"type": "cancel", "job": job_id}))

    def jobs(self) -> List[JobStatus]:
        """Every job the service knows, newest last."""
        reply = self._rpc({"type": "jobs"})
        table = reply.get("jobs")
        if not isinstance(table, dict):
            raise ServiceError(f"malformed jobs reply: {reply!r}")
        statuses = [JobStatus.from_payload(dict(body, job=job_id))
                    for job_id, body in sorted(table.items())]
        return statuses
