"""Observability for the reproduction: metrics, traces, status, logs.

Six small pieces, all standard library:

* :mod:`.metrics` — process-local counters/gauges/timers with a
  deterministic snapshot-and-merge model (observe-only; never feeds
  back into simulation state or cache keys),
* :mod:`.events` — the causal event bus: sequenced, structured
  transition events fanned out to watch subscribers and journals,
* :mod:`.trace` — persisted event journals under ``<cache-dir>/traces/``
  plus the Chrome trace-event exporter and engine-profile renderer,
* :mod:`.manifest` — one persisted run manifest per sweep, written next
  to the content-addressed cache,
* :mod:`.status` — client + validation for the sweep service's live
  ``status`` payload (the ``repro status`` view),
* :mod:`.logs` — the shared ``logging`` setup behind
  ``--verbose``/``--quiet``.
"""

from .events import EventBus, bus, emit, isolated_bus
from .metrics import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    counter,
    current_figure,
    disabled,
    enabled,
    figure_scope,
    gauge,
    isolated,
    merge_into_process,
    merge_snapshots,
    observe,
    profiled,
    profiling,
    record_simulation,
    registry,
    set_enabled,
    set_profiling,
    snapshot,
)
from .trace import (
    TraceJournal,
    export_chrome_trace,
    format_profile,
    read_journal,
    traces_dir,
    validate_chrome_trace,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "EventBus",
    "MetricsRegistry",
    "TraceJournal",
    "bus",
    "counter",
    "current_figure",
    "disabled",
    "emit",
    "enabled",
    "export_chrome_trace",
    "figure_scope",
    "format_profile",
    "gauge",
    "isolated",
    "isolated_bus",
    "merge_into_process",
    "merge_snapshots",
    "observe",
    "profiled",
    "profiling",
    "read_journal",
    "record_simulation",
    "registry",
    "set_enabled",
    "set_profiling",
    "snapshot",
    "traces_dir",
    "validate_chrome_trace",
]
