"""Client side of the live status surface (``repro status``).

A running sweep service answers ``{"type": "status"}`` with a
structured payload: fleet progress, per-worker liveness and lease
state, cache hit rate, per-figure completion/ETA and the jobs table.
This module fetches that payload over the ordinary JSON-lines protocol,
validates its shape (CI smoke tests fail a run on malformed metrics),
and renders it for a terminal.

The fetch is a plain one-shot request/response on a fresh connection:
the service treats a status client like any other peer, so polling
never interferes with lease accounting or worker heartbeats.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from ..distributed.protocol import (
    PROTOCOL_VERSION,
    encode_message,
    open_connection,
    read_message,
)

#: Top-level fields a well-formed status payload must carry.  CI's smoke
#: job treats any absence as a hard failure.
REQUIRED_FIELDS = (
    "type",
    "protocol",
    "points",
    "pending",
    "completed",
    "failed",
    "leases",
    "workers",
    "elapsed_seconds",
    "points_per_second",
    "cache",
    "figures",
    "metrics",
    "jobs",
    "scheduler",
)


def fetch_status(address: Tuple[str, int], timeout: float = 5.0) -> Dict:
    """One status payload from the service at ``address``.

    Raises ``OSError`` if the service is unreachable and ``ValueError``
    if it answers with something other than a status payload.
    """
    with open_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_message({"type": "status", "protocol": PROTOCOL_VERSION}))
        reader = sock.makefile("rb")
        try:
            reply = read_message(reader)
        finally:
            reader.close()
    if reply is None:
        raise ValueError("service closed the connection without a status reply")
    if reply.get("type") != "status":
        detail = reply.get("error") or reply.get("type")
        raise ValueError(f"peer does not support status queries ({detail!r})")
    return reply


def validate_status(payload: Dict) -> List[str]:
    """Names of malformed/missing fields; empty when the payload is sound."""
    problems = [field for field in REQUIRED_FIELDS if field not in payload]
    for field in ("points", "pending", "completed", "failed"):
        value = payload.get(field)
        if field not in problems and not isinstance(value, int):
            problems.append(field)
    for field in ("workers", "figures", "jobs", "scheduler"):
        if field not in problems and not isinstance(payload.get(field), dict):
            problems.append(field)
    metrics = payload.get("metrics")
    if "metrics" not in problems:
        if not isinstance(metrics, dict) or not isinstance(metrics.get("counters"), dict):
            problems.append("metrics")
    return problems


def _format_eta(seconds: Optional[float]) -> str:
    # A figure whose first point lands from cache reports a 0s elapsed
    # window, which turns the remaining/rate division into inf (or a
    # negative value once clocks skew): render `--`, never nonsense.
    if seconds is None or not isinstance(seconds, (int, float)):
        return "--"
    if not math.isfinite(seconds) or seconds < 0:
        return "--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


#: Event fields rendered (in this order) by :func:`format_event`.
_EVENT_FIELDS = ("job", "state", "worker", "tenant", "figure", "phase", "run", "reason")


def format_event(event: Dict) -> str:
    """One `repro watch` line for a pushed event dict."""
    ts = event.get("ts")
    if isinstance(ts, (int, float)) and math.isfinite(ts):
        stamp = time.strftime("%H:%M:%S", time.localtime(ts))
    else:
        stamp = "--:--:--"
    kind = str(event.get("kind", "?"))
    parts = []
    point = event.get("point")
    if isinstance(point, str) and point:
        # Cache keys are long hex digests; a short prefix identifies the
        # point just as well on one screen.
        parts.append(f"point={point[:12]}")
    for name in _EVENT_FIELDS:
        value = event.get(name)
        if value not in (None, "", [], {}):
            parts.append(f"{name}={value}")
    seq = event.get("seq")
    prefix = f"{stamp} #{seq:<6}" if isinstance(seq, int) else f"{stamp}        "
    return f"{prefix} {kind:<18} {' '.join(parts)}".rstrip()


def format_status(payload: Dict, *, now: Optional[float] = None) -> str:
    """Render a status payload as the multi-line `repro status` view."""
    now = time.time() if now is None else now
    lines = []
    points = payload.get("points", 0)
    completed = payload.get("completed", 0)
    rate = payload.get("points_per_second") or 0.0
    lines.append(
        f"points   {completed}/{points} done, {payload.get('pending', 0)} pending, "
        f"{payload.get('failed', 0)} failed, {payload.get('leases', 0)} leased "
        f"({rate:.2f} points/s, up {_format_eta(payload.get('elapsed_seconds'))})"
    )

    cache = payload.get("cache") or {}
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    total = hits + misses
    ratio = f"{hits / total:.0%}" if total else "n/a"
    lines.append(f"cache    {hits} points reused / {misses} simulated (hit rate {ratio})")

    figures = payload.get("figures") or {}
    for name in sorted(figures):
        figure = figures[name]
        done = figure.get("completed", 0)
        figure_points = figure.get("points", 0)
        eta = _format_eta(figure.get("eta_seconds"))
        lines.append(f"figure   {name:<10} {done}/{figure_points} done, eta {eta}")

    workers = payload.get("workers") or {}
    if not workers:
        lines.append("workers  (none connected yet)")
    for name in sorted(workers):
        worker = workers[name]
        age = worker.get("last_seen_seconds")
        seen = "never" if age is None else f"{age:.1f}s ago"
        lines.append(
            f"worker   {name:<20} leases {worker.get('leases', 0)}, "
            f"completed {worker.get('completed', 0)}, last seen {seen}"
        )

    jobs = payload.get("jobs") or {}
    if not jobs:
        lines.append("jobs     (none submitted yet)")
    for job_id in sorted(jobs):
        job = jobs[job_id]
        state = job.get("state", "?")
        label = ",".join(job.get("experiments") or []) or "?"
        lines.append(
            f"job      {job_id:<10} {state:<10} {job.get('priority', '?'):<11} "
            f"{job.get('completed', 0)}/{job.get('points', 0)} points, "
            f"reused {job.get('reused', 0)}  [{label}]  "
            f"tenant {job.get('tenant', '?')}"
        )
    scheduler = payload.get("scheduler")
    if isinstance(scheduler, dict):
        blacklisted = sum(
            1 for tenant in (scheduler.get("jobs") or {}).values()
            if isinstance(tenant, dict) and tenant.get("blacklisted")
        )
        lines.append(
            f"fairness quantum {scheduler.get('service_quantum', '?')}, "
            f"clearing every {scheduler.get('clearing_interval', '?')}s "
            f"({scheduler.get('clear_events', 0)} clearings, "
            f"{blacklisted} currently blacklisted)"
        )

    counters = (payload.get("metrics") or {}).get("counters") or {}

    def _counter(name: str) -> int:
        return counters.get(f"service.{name}", 0)

    lines.append(
        f"leases   {_counter('lease_grants')} granted, "
        f"{_counter('lease_expired')} expired, {_counter('retries')} retried"
    )
    return "\n".join(lines)
