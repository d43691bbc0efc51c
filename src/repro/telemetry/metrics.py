"""Process-local metrics: counters, gauges and timers with snapshot/merge.

The whole repository observes itself through one tiny model:

* a **counter** is a monotonically growing integer (``cache.hits``,
  ``sim.cycles``),
* a **gauge** is a last-written scalar whose merge takes the maximum
  (``worker.queue_depth`` style values, where "the worst seen anywhere"
  is the useful aggregate),
* a **timer** is a duration distribution folded to ``count / total /
  min / max`` (``sim.run_seconds``, ``executor.point_seconds``).

Every process owns one default :class:`MetricsRegistry`; components
record into it through the module-level helpers (:func:`counter`,
:func:`gauge`, :func:`observe`).  A registry is *observational only*: it
never feeds back into simulation state, scheduling decisions or cache
keys, so enabling or disabling telemetry cannot change a single result
bit (the equivalence and fuzz suites run with it enabled).

Aggregation across processes and machines goes through **snapshots** —
plain JSON-compatible dicts produced by :meth:`MetricsRegistry.snapshot`
and combined with :func:`merge_snapshots`.  The merge is commutative and
associative (counters add, timers fold, gauges take the max), so a fleet
of per-worker registries folds to the same totals regardless of arrival
order: deterministic aggregation without any cross-process locking.

Everything is standard library only.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Version of the snapshot layout, carried inside every snapshot so wire
#: peers and manifest readers can detect a layout they do not speak.
SNAPSHOT_SCHEMA = 1


class MetricsRegistry:
    """A named bag of counters, gauges and timers.

    Thread-safe: service connection threads, worker heartbeats and
    pool callbacks all record into the same process registry.  The lock
    is only ever held for a few dict operations, and recording happens
    at per-simulation / per-point granularity — never per cycle — so the
    registry stays invisible on the simulation hot path.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, Dict[str, float]] = {}
        #: Total mutating operations ever applied.  The observe-only
        #: benchmark uses this to *prove* telemetry does O(1) work per
        #: simulation instead of trusting a noisy wall-clock comparison.
        self.op_count = 0

    # --------------------------------------------------------------- recording

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            self.op_count += 1

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins locally)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value
            self.op_count += 1

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into the timer ``name``."""
        if not self.enabled:
            return
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                self._timers[name] = {
                    "count": 1,
                    "total": seconds,
                    "min": seconds,
                    "max": seconds,
                }
            else:
                timer["count"] += 1
                timer["total"] += seconds
                if seconds < timer["min"]:
                    timer["min"] = seconds
                if seconds > timer["max"]:
                    timer["max"] = seconds
            self.op_count += 1

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the timer ``name``."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # --------------------------------------------------------------- snapshots

    def snapshot(self) -> Dict:
        """A point-in-time, JSON-compatible copy of every metric."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {name: dict(timer) for name, timer in self._timers.items()},
            }

    def merge_snapshot(self, snapshot: Optional[Dict]) -> None:
        """Fold another registry's snapshot into this one (see
        :func:`merge_snapshots` for the per-kind rules)."""
        if snapshot is None or not self.enabled:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            for name, timer in snapshot.get("timers", {}).items():
                mine = self._timers.get(name)
                if mine is None:
                    self._timers[name] = dict(timer)
                else:
                    mine["count"] += timer["count"]
                    mine["total"] += timer["total"]
                    mine["min"] = min(mine["min"], timer["min"])
                    mine["max"] = max(mine["max"], timer["max"])
            self.op_count += 1

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self.op_count = 0


def merge_snapshots(*snapshots: Optional[Dict]) -> Dict:
    """Fold any number of snapshots into one.

    Counters add, timers fold (count/total add, min/max extremise),
    gauges take the maximum — every rule is commutative and associative,
    so per-process registries aggregate deterministically no matter the
    order workers report in.  ``None`` entries are skipped.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


# ------------------------------------------------------------------- process registry

#: The process-wide default registry every component records into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry currently installed."""
    return _REGISTRY


def counter(name: str, value: int = 1) -> None:
    _REGISTRY.counter(name, value)


def gauge(name: str, value: float) -> None:
    _REGISTRY.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    _REGISTRY.observe(name, seconds)


def snapshot() -> Dict:
    return _REGISTRY.snapshot()


def merge_into_process(other: Optional[Dict]) -> None:
    """Fold a remote snapshot (e.g. a worker's) into the process registry."""
    _REGISTRY.merge_snapshot(other)


def set_enabled(enabled: bool) -> bool:
    """Turn process-wide telemetry on/off; returns the previous state."""
    previous = _REGISTRY.enabled
    _REGISTRY.enabled = enabled
    return previous


def enabled() -> bool:
    return _REGISTRY.enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Scope with process-wide telemetry off (restored on exit)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def isolated(enabled: bool = True) -> Iterator[MetricsRegistry]:
    """Install a fresh process registry for the scope (tests, benchmarks).

    Everything recorded inside the scope lands in (and only in) the
    yielded registry; the previous registry — and whatever it already
    held — is restored untouched on exit.
    """
    global _REGISTRY
    previous = _REGISTRY
    fresh = MetricsRegistry(enabled=enabled)
    _REGISTRY = fresh
    try:
        yield fresh
    finally:
        _REGISTRY = previous


# ------------------------------------------------------------------- figure scope

#: Thread-local figure label for per-figure attribution of engine
#: profile counters (set by executors/workers around each point).
_FIGURE_SCOPE = threading.local()


@contextmanager
def figure_scope(name: Optional[str]) -> Iterator[None]:
    """Attribute simulations in this scope to the figure ``name``.

    Only the ``engine.profile.*`` counters are mirrored per figure
    (as ``figure.<name>.engine.profile.*``): everything else already
    has cheaper per-figure attribution paths (the cache stores figure
    labels in entry payloads), and mirroring all counters would double
    the registry for no reader.
    """
    previous = getattr(_FIGURE_SCOPE, "name", None)
    _FIGURE_SCOPE.name = name
    try:
        yield
    finally:
        _FIGURE_SCOPE.name = previous


def current_figure() -> Optional[str]:
    return getattr(_FIGURE_SCOPE, "name", None)


# ------------------------------------------------------------------- profiling

#: Process-wide opt-in for engine phase profiling (``--profile-engine``).
#: Separate from ``enabled`` because profiling adds per-window/per-skip
#: bookkeeping inside the engines — cheap, but not free like the
#: per-simulation counters — so it must never be on by default.
_PROFILING = False


def set_profiling(enabled: bool) -> bool:
    """Turn engine phase profiling on/off; returns the previous state."""
    global _PROFILING
    previous = _PROFILING
    _PROFILING = enabled
    return previous


def profiling() -> bool:
    return _PROFILING


@contextmanager
def profiled(enabled: bool = True) -> Iterator[None]:
    """Scope with engine profiling forced on/off (restored on exit)."""
    previous = set_profiling(enabled)
    try:
        yield
    finally:
        set_profiling(previous)


# ------------------------------------------------------------------- domain hooks


def record_simulation(engine_name: str, cycles: int, seconds: float, engine_metrics: Dict) -> None:
    """Fold one completed simulation into the process registry.

    Called once per :meth:`repro.sim.system.System.run` — O(1) work per
    *simulation*, nothing per cycle — with the engine's own
    instrumentation (serve windows, window cycles) exported as
    first-class counters.
    """
    reg = _REGISTRY
    if not reg.enabled:
        return
    reg.counter("sim.runs")
    reg.counter(f"sim.runs.{engine_name}")
    reg.counter("sim.cycles", cycles)
    reg.observe("sim.run_seconds", seconds)
    figure = current_figure()
    for name, value in engine_metrics.items():
        if value:
            reg.counter(name, value)
            if figure and name.startswith("engine.profile."):
                reg.counter(f"figure.{figure}.{name}", value)
