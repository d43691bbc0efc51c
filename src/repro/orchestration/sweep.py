"""Experiment orchestration: plan, execute, replay.

An experiment (one paper figure/section) is a pure function of a set of
*simulation points* — independent ``(traces, config)`` pairs — plus
deterministic arithmetic that merges their results into tables.  A sweep
has up to three phases:

1. **Plan** (:func:`plan_units`).  Run each experiment once with a
   :class:`PlanningBackend` installed: every simulation the experiment
   would execute is recorded (keyed by content hash) and answered with a
   cheap structurally-valid stub.  Experiments' control flow never
   depends on simulated values (sweeps are static), so planning
   enumerates exactly the points the real run needs, at
   trace-generation cost only.
2. **Execute** (:func:`execute_units`).  Hand the points that are not
   already in the result store to an :class:`~.executors.Executor`:
   serial or a local process pool.  Completion order does not matter
   because results land in a content-addressed store.
3. **Replay** (:func:`replay`).  Run the experiments again with a
   :class:`CacheServingBackend` installed, so every simulation is served
   from the store.  Because the replay *is* the serial code path,
   merging is deterministic and the output is bit-identical to a serial
   run.

:func:`sweep_experiments` runs all three when given an executor.
Without one it only replays, and the cache-serving backend simulates
its own misses, so a warm sweep is one pass.  The sweep service
(:class:`~repro.distributed.service.SweepService`) calls the same
:func:`plan_units` and :func:`replay` around its worker fleet.

Each plan and each replay is one *pass*
(:func:`~repro.workloads.memo.sweep_pass`): it generates each distinct
trace once, however many figures, configs and alone runs use it, and
computes each config's key fragment once.  Shared traces are read-only.
The memo is dropped when the pass returns, so a plan holds only the
traces its units reference and a replay holds nothing afterwards.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.trace import Trace
from ..energy.drampower import EnergyBreakdown
from ..sim import runner as sim_runner
from ..sim.config import SimulationConfig
from ..sim.results import ChannelResult, CoreResult, SimulationResult
from ..sim.runner import AloneRunCache
from ..telemetry.manifest import new_run_id
from ..telemetry.trace import TraceJournal, traces_dir
from ..workloads.memo import sweep_pass
from .cache import PersistentAloneRunCache, ResultCache
from .executors import Executor
from .keys import point_key
from .request import SweepRequest, SweepResult, SweepStats


@dataclass
class SimulationUnit:
    """One independent simulation point of an experiment.

    ``figure`` is the label of the experiment that planned the point —
    informational only (cache breakdowns, per-figure progress); it never
    enters the content key, so a point shared by several figures keeps
    the first planner's label.
    """

    key: str
    traces: List[Trace]
    config: SimulationConfig
    figure: Optional[str] = None


class InMemoryResultStore:
    """Ephemeral result store with the :class:`ResultCache` interface."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: Dict[str, SimulationResult] = {}

    def contains(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Optional[SimulationResult]:
        result = self._data.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult, figure: Optional[str] = None) -> None:
        self._data[key] = result

    def __len__(self) -> int:
        return len(self._data)


# ----------------------------------------------------------------- backends


def stub_result(traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
    """A structurally valid placeholder result used during planning.

    Stub values are chosen so downstream arithmetic (slowdown ratios,
    averages, percentiles) stays well-defined; the numbers themselves are
    discarded with the whole planning pass.
    """
    cores = [
        CoreResult(
            core_id=core_id,
            name=trace.name,
            is_rng=trace.rng_requests > 0,
            instructions=trace.total_instructions,
            cycles=max(1, trace.total_instructions),
            memory_stall_cycles=0,
            rng_stall_cycles=0,
            reads=trace.memory_reads,
            writes=trace.memory_writes,
            rng_requests=trace.rng_requests,
            average_read_latency=1.0,
            average_rng_latency=1.0,
        )
        for core_id, trace in enumerate(traces)
    ]
    channels = [
        ChannelResult(
            channel_id=channel_id,
            busy_cycles=1,
            idle_cycles=1,
            rng_mode_cycles=0,
            served_reads=0,
            served_writes=0,
            served_rng_demand=0,
            rng_fill_batches=0,
            rng_fill_bits=0,
            mode_switches=0,
            idle_periods=[1],
        )
        for channel_id in range(config.organization.channels)
    ]
    energy = EnergyBreakdown(
        activation_nj=0.0, read_nj=0.0, write_nj=0.0, rng_nj=0.0, background_nj=1.0
    )
    return SimulationResult(
        design=config.design,
        total_cycles=1,
        cores=cores,
        channels=channels,
        buffer_serve_rate=0.0,
        buffer_serves=0,
        rng_requests=0,
        predictor_accuracy=0.5,
        predictor_predictions=1,
        energy=energy,
        memory_busy_cycles=1,
        scheduler_stats={},
    )


class PlanningBackend:
    """Records every simulation point instead of executing it.

    ``label`` tags every recorded unit with the experiment being planned
    (see :attr:`SimulationUnit.figure`).
    """

    #: Stub results must never be cached by :class:`AloneRunCache` etc.
    provides_real_results = False

    def __init__(self, label: Optional[str] = None) -> None:
        self.units: Dict[str, SimulationUnit] = {}
        self.label = label

    def __call__(self, traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
        traces = list(traces)
        key = point_key(traces, config)
        if key not in self.units:
            self.units[key] = SimulationUnit(
                key=key, traces=traces, config=config, figure=self.label
            )
        return stub_result(traces, config)


class CacheServingBackend:
    """Serves simulations from a result store, computing (and storing) misses.

    ``figure`` (mutable between figures) labels the points the replay
    reads and the entries it computes itself.
    """

    provides_real_results = True

    def __init__(self, store) -> None:
        self.store = store
        self.figure: Optional[str] = None
        #: The distinct keys this replay read, in first-read order:
        #: ``"simulated"`` when the backend computed the point,
        #: ``"replayed"`` on a store hit.  A key served after being
        #: computed keeps ``simulated`` — what the point cost this run is
        #: what provenance records.
        self.points: Dict[str, str] = {}
        #: The figure that first read each key.
        self.figures: Dict[str, Optional[str]] = {}

    def __call__(self, traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
        traces = list(traces)
        key = point_key(traces, config)
        result = self.store.get(key)
        if result is None:
            telemetry.emit("point.start", point=key, figure=self.figure)
            result = sim_runner.simulate_direct(traces, config)
            self.store.put(key, result, figure=self.figure)
            self.points[key] = "simulated"
            self.figures[key] = self.figure
            telemetry.emit("point.done", point=key, figure=self.figure)
        elif key not in self.points:
            self.points[key] = "replayed"
            self.figures[key] = self.figure
        return result


# ----------------------------------------------------------------- experiments


def resolve_experiment(experiment):
    """Accept an experiment id (``"fig6"``) or an experiment module, and
    return the module."""
    if isinstance(experiment, str):
        from ..experiments import EXPERIMENTS

        key = experiment.lower()
        if key in EXPERIMENTS:
            return EXPERIMENTS[key]
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return experiment


def supported_run_kwargs(module) -> frozenset:
    """Names of the keyword arguments ``module.run`` accepts."""
    return frozenset(inspect.signature(module.run).parameters)


def filter_run_kwargs(module, kwargs: Dict) -> Dict:
    """Drop the entries of ``kwargs`` that ``module.run`` does not accept."""
    supported = supported_run_kwargs(module)
    return {name: value for name, value in kwargs.items() if name in supported}


def _run_figure(module, kwargs: Dict) -> Dict:
    """``module.run`` with the kwargs it accepts and a fresh alone-run cache.

    Fresh per figure, so every alone run a figure needs reaches the
    installed backend: the planner records it and the replay reads it,
    whatever other figures looked up before.
    """
    call_kwargs = filter_run_kwargs(module, kwargs)
    if "cache" in supported_run_kwargs(module):
        call_kwargs["cache"] = AloneRunCache()
    return module.run(**call_kwargs)


def plan_experiment(experiment, **kwargs) -> List[SimulationUnit]:
    """Enumerate the simulation points ``experiment`` needs, without simulating.

    One pass (see :func:`~repro.workloads.memo.sweep_pass`), or part of
    the caller's.  An experiment given by id labels its units with that
    id (see :attr:`SimulationUnit.figure`).
    """
    module = resolve_experiment(experiment)
    backend = PlanningBackend(label=experiment if isinstance(experiment, str) else None)
    with sweep_pass(), sim_runner.simulation_backend(backend):
        _run_figure(module, kwargs)
    return list(backend.units.values())


def plan_units(labels: Iterable[str], **kwargs) -> Dict[str, SimulationUnit]:
    """The distinct simulation points of the experiments ``labels``.

    Keyed by content key; a point shared by several figures keeps the
    first planner's label.  One pass: units of different points share
    the trace objects they have in common.
    """
    units: Dict[str, SimulationUnit] = {}
    with sweep_pass():
        for label in labels:
            for unit in plan_experiment(label, **kwargs):
                units.setdefault(unit.key, unit)
    return units


def replay(
    labels: Iterable[str], store, **kwargs
) -> Tuple[Dict[str, Dict], CacheServingBackend]:
    """Run the experiments ``labels`` with every simulation served from ``store``.

    One pass (see :func:`~repro.workloads.memo.sweep_pass`).  Points
    missing from the store are simulated on this thread and committed.
    Returns the figure label → data dict mapping and the backend, whose
    ``points``/``figures`` record the distinct keys read.
    """
    backend = CacheServingBackend(store)
    data: Dict[str, Dict] = {}
    with sweep_pass(), sim_runner.simulation_backend(backend):
        for label in labels:
            backend.figure = label
            with telemetry.registry().time(f"sweep.figure_seconds.{label}"):
                data[label] = _run_figure(resolve_experiment(label), kwargs)
    return data, backend


# ----------------------------------------------------------------- execution


def execute_units(units: Iterable[SimulationUnit], store, executor: Executor) -> int:
    """Simulate every unit missing from ``store`` on ``executor``; returns
    how many ran.

    Every executor commits into the same content-addressed store, so
    replay output never depends on which executor ran the points.
    Pending-ness is decided with ``get`` rather than ``contains`` so an
    unreadable/corrupt cache entry counts as missing and is recomputed
    here, not silently during the serial replay.  The deserialised
    results stay memoized, so the replay pays nothing extra.
    """
    pending = [unit for unit in units if store.get(unit.key) is None]
    if not pending:
        return 0
    return executor.execute(pending, store)


# ----------------------------------------------------------------- entry point


#: Request fields that must not also arrive as loose kwargs alongside a
#: :class:`SweepRequest` — the request is the single source of truth.
_REQUEST_OWNED_KWARGS = frozenset({"instructions", "full", "engine"})


def sweep_experiments(
    request: SweepRequest, store=None, executor: Optional[Executor] = None, **module_kwargs
) -> SweepResult:
    """Run the experiments of ``request`` as one batch over a result store.

    ``store`` is a result store (:class:`ResultCache` for persistence,
    :class:`InMemoryResultStore` or ``None`` for process-local reuse);
    ``module_kwargs`` (e.g. ``apps=``) pass through to every experiment
    module that accepts them.  Points shared between figures (alone runs,
    or fig9 reusing fig6's simulations) are simulated at most once across
    the batch.

    With an ``executor`` — serial or local process pool — the sweep
    plans, lets the executor run the missing points, then replays;
    without one the replay simulates its own misses.  Either way the
    data dicts are bit-identical to calling each ``module.run`` serially,
    and the stats count the distinct points the replay read.
    """
    if not isinstance(request, SweepRequest):
        raise TypeError(f"sweep_experiments takes a SweepRequest, got {type(request).__name__}")
    owned = _REQUEST_OWNED_KWARGS.intersection(module_kwargs)
    if owned:
        raise TypeError(
            f"{sorted(owned)} are owned by the SweepRequest; "
            "set them on the request, not as kwargs"
        )
    kwargs = dict(request.run_kwargs(), **module_kwargs)
    labels = list(request.experiments)
    for label in labels:
        resolve_experiment(label)
    store = store if store is not None else InMemoryResultStore()
    stats = SweepStats()
    sweep_start = perf_counter()

    # The run id is minted *before* anything executes so the event
    # journal, the cache entries written by this run and the manifest
    # all carry the same causal id.
    stats.run_id = run_id = new_run_id(labels, kwargs)
    bus = telemetry.bus()
    journal: Optional[TraceJournal] = None
    if isinstance(store, ResultCache):
        journal = TraceJournal(traces_dir(store.cache_dir) / f"{run_id}.jsonl")
        bus.add_sink(journal.write)
    had_run_context = hasattr(store, "run_context")
    previous_run_context = getattr(store, "run_context", None)
    if had_run_context:
        store.run_context = run_id
    telemetry.emit("run.start", run=run_id, figures=labels)
    try:
        with sim_runner.engine_override(request.engine):
            # Keys the executor simulates this run: the replay then finds
            # them in the store, but the stats must count them as executed.
            ran: Iterable[str] = ()
            if executor is not None:
                telemetry.emit("phase.start", phase="plan", run=run_id)
                units = plan_units(labels, **kwargs)
                telemetry.counter("sweep.points_planned", len(units))
                telemetry.emit("phase.end", phase="plan", run=run_id, points=len(units))
                ran = {key for key in units if not store.contains(key)}
                telemetry.emit("phase.start", phase="execute", run=run_id)
                executed = execute_units(units.values(), store, executor=executor)
                telemetry.emit(
                    "phase.end", phase="execute", run=run_id,
                    executed=executed, reused=len(units) - executed,
                )
            telemetry.emit("phase.start", phase="replay", run=run_id)
            data, backend = replay(labels, store, **kwargs)
            telemetry.emit("phase.end", phase="replay", run=run_id)
        runs = getattr(store, "runs", {})
        for key, state in backend.points.items():
            figure = backend.figures[key]
            if state == "replayed" and key not in ran:
                origin = runs.get(key)
                telemetry.emit("point.replay", point=key, figure=figure, run=origin)
            else:
                state, origin = "simulated", run_id
            stats.points[key] = {"state": state, "figure": figure, "run": origin}
        stats.planned = len(stats.points)
        stats.executed = sum(point["state"] == "simulated" for point in stats.points.values())
        stats.reused = stats.planned - stats.executed
        stats.elapsed = perf_counter() - sweep_start
        telemetry.counter("sweep.runs")
        telemetry.observe("sweep.seconds", stats.elapsed)
        telemetry.emit(
            "run.end", run=run_id, planned=stats.planned,
            executed=stats.executed, reused=stats.reused, seconds=stats.elapsed,
        )
        return SweepResult(request=request, data=data, stats=stats)
    finally:
        if had_run_context:
            store.run_context = previous_run_context
        if journal is not None:
            bus.remove_sink(journal.write)
            journal.close()


def open_store(cache_dir) -> ResultCache:
    """A persistent result store rooted at ``cache_dir``."""
    return ResultCache(cache_dir)


def persistent_alone_cache(cache_dir) -> PersistentAloneRunCache:
    """An alone-run cache that survives across processes and sessions."""
    return PersistentAloneRunCache(ResultCache(cache_dir))
