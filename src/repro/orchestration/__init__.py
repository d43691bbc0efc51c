"""Parallel experiment orchestration with a persistent result cache.

Public surface:

* :class:`~repro.orchestration.request.SweepRequest` /
  :class:`~repro.orchestration.request.SweepResult` — the public sweep
  API: one frozen, validated request object that travels unchanged
  through :func:`sweep_experiments`, the service protocol and run
  manifests, and the mapping-of-data-dicts result it produces.
* :func:`~repro.orchestration.sweep.sweep_experiments` — the one way
  to run a sweep: a probe pass serves the content-addressed store's
  hits and finds the missing points, an executor (the caller's, or a
  process pool or this process by the misses' size) runs them, and a
  replay builds the data.  Output is bit-identical to a serial run by
  construction.
* :func:`~repro.orchestration.request.parse_target` — parser for the
  ``--target {local,process[:N],HOST:PORT}`` execution spec shared by
  every CLI verb.
* :class:`~repro.orchestration.cache.ResultCache` — the persistent
  content-addressed store (one JSON file per simulation point).
* :class:`~repro.orchestration.cache.PersistentAloneRunCache` — a
  drop-in :class:`~repro.sim.runner.AloneRunCache` that survives across
  processes, CLI invocations and benchmark sessions.
* :func:`~repro.orchestration.keys.point_key` — the stable content hash
  of one ``(traces, config)`` simulation point.
"""

from .cache import PersistentAloneRunCache, ResultCache, result_from_dict, result_to_dict
from .executors import Executor, ProcessPoolExecutor, SerialExecutor
from .keys import SCHEMA_VERSION, point_key
from .report import canonical_data, dump_json, format_experiment, format_stats, format_sweep
from .request import (
    PRIORITIES,
    ExecutionTarget,
    SweepRequest,
    SweepResult,
    SweepStats,
    parse_target,
)
from .sweep import (
    CacheServingBackend,
    InMemoryResultStore,
    ProbingBackend,
    SimulationUnit,
    filter_run_kwargs,
    open_store,
    persistent_alone_cache,
    probe,
    replay,
    resolve_experiment,
    supported_run_kwargs,
    sweep_experiments,
)

__all__ = [
    "CacheServingBackend",
    "ExecutionTarget",
    "Executor",
    "InMemoryResultStore",
    "PRIORITIES",
    "PersistentAloneRunCache",
    "ProbingBackend",
    "ProcessPoolExecutor",
    "ResultCache",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "SimulationUnit",
    "SweepRequest",
    "SweepResult",
    "SweepStats",
    "canonical_data",
    "dump_json",
    "filter_run_kwargs",
    "format_experiment",
    "format_stats",
    "format_sweep",
    "open_store",
    "parse_target",
    "persistent_alone_cache",
    "point_key",
    "probe",
    "replay",
    "resolve_experiment",
    "result_from_dict",
    "result_to_dict",
    "supported_run_kwargs",
    "sweep_experiments",
]
