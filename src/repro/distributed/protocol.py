"""Wire protocol of the sweep service, its workers and its clients.

Messages are newline-delimited JSON objects (UTF-8) over a plain TCP
stream — trivially debuggable with ``nc`` and dependency-free.  Both
ends open or accept it through :func:`open_connection` /
:func:`prepare_connection`, which turn Nagle's algorithm off.  Every
message carries a ``type``:

worker → service
    ``hello``      introduce the worker (name, pid, protocol version)
    ``lease``      ask for one simulation point
    ``result``     deliver a finished point (the service replies ``ack``)
    ``error``      report a point that raised (the service replies ``ack``)
    ``heartbeat``  renew the lease on the point being simulated (no reply)
    ``metrics``    periodic telemetry snapshot (no reply)
    ``checkpoint`` mid-simulation snapshot of the leased point (no
                   reply).  The service keeps the latest one per point
                   and attaches it to any re-lease, so a killed worker
                   loses at most one checkpoint interval of progress.
    ``goodbye``    clean disconnect (no reply)

service → worker
    ``welcome``    accepts the hello (``protocol`` and the number of live
                   ``points``)
    ``work``       one leased point: ``key`` plus the serialised unit,
                   plus an optional ``checkpoint`` (cycle + base64
                   snapshot) to resume from instead of restarting
    ``wait``       nothing leasable right now; retry after ``seconds``
    ``done``       the service is stopping, or it refused the hello
                   (protocol mismatch); the worker should exit.  A
                   service never runs out of work, so otherwise its
                   workers run until their connection drops.
    ``ack``        result/error committed
    ``error``      the message kind is unknown to this service

observer → service
    ``status``     request one live status payload (the service
                   replies with ``type: "status"``; used by
                   ``repro status`` and the telemetry smoke tests)
    ``watch``      subscribe to the event stream.  The service replies
                   ``type: "watching"`` (carrying its current event
                   ``seq`` and a status snapshot to seed the view) and
                   then pushes one ``type: "event"`` frame per state
                   transition — point started/committed/requeued, lease
                   churn, blacklist transitions, job state changes —
                   until the connection closes or ``unwatch`` is sent.
                   An optional ``from_seq`` replays buffered events
                   after that sequence number first.
    ``unwatch``    end the subscription (reply ``type: "unwatched"``);
                   the connection stays usable for other requests.

client → service
    ``submit``     submit one :class:`~repro.orchestration.request.SweepRequest`
                   (the service replies ``type: "job"`` with the job id)
    ``poll``       ask for one job's state/progress (reply ``type: "job"``;
                   ``results: true`` attaches the data dicts when done)
    ``cancel``     cancel a job (reply ``type: "job"``)
    ``jobs``       list every job the service knows (reply ``type: "jobs"``)

Workers, clients and observers open with a ``hello`` carrying
:data:`PROTOCOL_VERSION`, and the service refuses any other version, so
a peer past the hello speaks the whole message set above.  A one-shot
``status`` request needs no hello.

Payload serialisation round-trips the exact objects the orchestrator
works with: a :class:`~repro.orchestration.sweep.SimulationUnit` is its
key plus full trace content and every configuration field (nested
dataclasses included), and results reuse the cache's canonical
JSON codec — the same one the content-addressed store writes — so a
result streamed over the wire is bit-identical to one computed locally.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional, Tuple

from ..controller.config import ControllerConfig
from ..core.config import DRStrangeConfig
from ..cpu.core import CoreConfig
from ..cpu.trace import Trace, TraceEntry
from ..dram.timing import DRAMOrganization, DRAMTiming
from ..orchestration.cache import result_from_dict, result_to_dict
from ..orchestration.sweep import SimulationUnit
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResult

#: Bumped on any incompatible message or payload change; the service
#: refuses a hello of any other version, from workers, clients and
#: observers alike.
PROTOCOL_VERSION = 3

#: Hard cap on one serialised message.  Sized for the largest realistic
#: ``work`` payload (every entry of every trace of a full-roster
#: multi-core point is a few tens of MB); a line longer than this
#: indicates a corrupt or hostile peer, not a real simulation point.
#: :func:`read_message` enforces the cap *while reading*, so an
#: oversized line never gets buffered whole.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


def prepare_connection(connection: socket.socket) -> socket.socket:
    """Ready a connected protocol socket, on either end, for use.

    Disables Nagle's algorithm.  A worker follows each ``ack`` with an
    unanswered ``metrics`` frame and then its next ``lease``; under
    Nagle the ``lease`` waits until ``metrics`` is ACKed, and the peer,
    with nothing to send back, delays that ACK (~40 ms on Linux).
    """
    try:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # the peer already hung up (some BSDs refuse then); the first read says so
    return connection


def open_connection(address: Tuple[str, int], timeout: Optional[float] = None) -> socket.socket:
    """Connect to a service at ``(host, port)``.

    ``timeout`` bounds the connect and every later blocking call, as for
    :func:`socket.create_connection`; ``None`` blocks.
    """
    return prepare_connection(socket.create_connection(address, timeout=timeout))


def encode_message(payload: Dict) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict:
    """Parse one wire frame (raises ``ValueError`` on garbage)."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ValueError(f"message of {len(line)} bytes exceeds protocol maximum")
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValueError("protocol messages must be JSON objects with a 'type'")
    return payload


def read_message(stream) -> Optional[Dict]:
    """Read one frame from a buffered binary stream.

    Returns ``None`` on a clean EOF.  Raises ``ValueError`` on an
    oversized or truncated line — the size limit is applied to the
    ``readline`` call itself, so at most ``MAX_MESSAGE_BYTES`` of a
    runaway line are ever held in memory.
    """
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        if len(line) > MAX_MESSAGE_BYTES:
            raise ValueError(f"message exceeds protocol maximum of {MAX_MESSAGE_BYTES} bytes")
        raise ValueError("connection closed mid-message")
    return decode_message(line)


# ----------------------------------------------------------------- traces


def trace_to_wire(trace: Trace) -> Dict:
    """Full trace content: name, metadata and every entry."""
    return {
        "name": trace.name,
        "metadata": trace.metadata,
        "entries": [
            [entry.bubbles, entry.address, entry.write_address, entry.rng_bits]
            for entry in trace.entries
        ],
    }


def trace_from_wire(payload: Dict) -> Trace:
    entries = [
        TraceEntry(bubbles=bubbles, address=address, write_address=write_address, rng_bits=rng_bits)
        for bubbles, address, write_address, rng_bits in payload["entries"]
    ]
    return Trace(entries, name=payload["name"], metadata=payload["metadata"])


# ----------------------------------------------------------------- configs


def config_to_wire(config: SimulationConfig) -> Dict:
    """Every configuration field, nested dataclasses flattened to dicts."""
    import dataclasses

    return dataclasses.asdict(config)


def config_from_wire(payload: Dict) -> SimulationConfig:
    fields = dict(payload)
    return SimulationConfig(
        drstrange=DRStrangeConfig(**fields.pop("drstrange")),
        controller=ControllerConfig(**fields.pop("controller")),
        core=CoreConfig(**fields.pop("core")),
        timing=DRAMTiming(**fields.pop("timing")),
        organization=DRAMOrganization(**fields.pop("organization")),
        **fields,
    )


# ----------------------------------------------------------------- units & results


def unit_to_wire(unit: SimulationUnit) -> Dict:
    payload = {
        "key": unit.key,
        "traces": [trace_to_wire(trace) for trace in unit.traces],
        "config": config_to_wire(unit.config),
    }
    if unit.figure is not None:
        payload["figure"] = unit.figure
    return payload


def unit_from_wire(payload: Dict) -> SimulationUnit:
    return SimulationUnit(
        key=payload["key"],
        traces=[trace_from_wire(trace) for trace in payload["traces"]],
        config=config_from_wire(payload["config"]),
        figure=payload.get("figure"),
    )


def result_to_wire(result: SimulationResult) -> Dict:
    return result_to_dict(result)


def result_from_wire(payload: Dict) -> SimulationResult:
    return result_from_dict(payload)


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string (IPv4/hostname) into its parts."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def hello_message(worker: str, pid: Optional[int] = None, role: Optional[str] = None) -> Dict:
    """The introduction frame.  ``role`` distinguishes submit/poll
    clients and observers from workers (workers omit it)."""
    message = {"type": "hello", "worker": worker, "pid": pid, "protocol": PROTOCOL_VERSION}
    if role is not None:
        message["role"] = role
    return message


def metrics_message(worker: str, snapshot: Dict) -> Dict:
    """A worker's periodic telemetry snapshot (fire-and-forget)."""
    return {"type": "metrics", "worker": worker, "snapshot": snapshot}


def checkpoint_message(worker: str, key: str, cycle: int, data: bytes) -> Dict:
    """A mid-simulation snapshot of the leased point (fire-and-forget).

    The snapshot bytes (:func:`repro.sim.checkpoint.snapshot`) ride the
    JSON-lines framing base64-encoded.
    """
    import base64

    return {
        "type": "checkpoint",
        "worker": worker,
        "key": key,
        "cycle": cycle,
        "data": base64.b64encode(data).decode("ascii"),
    }


def checkpoint_from_wire(payload: Optional[Dict]) -> Optional[tuple[int, bytes]]:
    """Decode the ``checkpoint`` field of a ``work`` (or the body of a
    ``checkpoint`` message) into ``(cycle, snapshot_bytes)``; ``None``
    or a malformed payload decodes to ``None`` (fresh start)."""
    import base64
    import binascii

    if not isinstance(payload, dict):
        return None
    try:
        cycle = int(payload["cycle"])
        data = base64.b64decode(payload["data"], validate=True)
    except (KeyError, TypeError, ValueError, binascii.Error):
        return None
    return cycle, data
