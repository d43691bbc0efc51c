"""Experiment orchestration: probe, execute, replay.

An experiment (one paper figure/section) is a pure function of a set of
*simulation points* — independent ``(traces, config)`` pairs — plus
deterministic arithmetic that merges their results into tables.
Experiments' control flow never depends on simulated values (sweeps are
static), so running the figures with every missing simulation answered
by a cheap structurally-valid stub (:func:`stub_result`) enumerates
exactly the points the real run needs, at trace-generation cost only.

:func:`sweep_experiments` is one pipeline:

1. **Probe** (:func:`probe`).  Run the figures with a
   :class:`ProbingBackend` installed: it serves store hits, answers each
   miss with a stub and records the missing point once, asking the store
   once per distinct key.  With no misses the probe's data is the
   result, so a warm sweep is one pass.
2. **Execute.**  Hand the missing points to an
   :class:`~.executors.Executor`: the caller's, or for a local sweep a
   process pool when the misses are worth its start-up and this process
   otherwise (:func:`local_executor`).  Completion order does not matter
   because results land in a content-addressed store.
3. **Replay** (:func:`replay`).  Run the figures again with a
   :class:`CacheServingBackend` installed, so every simulation is served
   from the store.  Because the replay *is* the serial code path,
   merging is deterministic and the output is bit-identical to a serial
   run.

The sweep service (:class:`~repro.distributed.service.SweepService`)
runs the same :func:`probe` on its own store when a job is submitted: a
warm job's result is the probe's data, and the points a job misses go to
its worker fleet before the same :func:`replay`.

Each probe and each replay is one *pass*
(:func:`~repro.workloads.memo.sweep_pass`): it generates each distinct
trace once, however many figures, configs and alone runs use it, and
computes each config's key fragment once.  A local sweep's probe and
replay share one pass, so the replay reuses the probe's traces.  Shared
traces are read-only.  The memo is dropped when the pass returns, so a
probe's missing points hold only the traces they reference and a sweep
holds nothing afterwards.
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
from .executors import Executor, ProcessPoolExecutor, SerialExecutor, usable_cpus
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

    @property
    def instructions(self) -> int:
        """Instructions the point simulates, over all its cores."""
        return sum(trace.total_instructions for trace in self.traces)


class InMemoryResultStore:
    """Ephemeral result store with the :class:`ResultCache` interface."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: Dict[str, SimulationResult] = {}

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


class ProbingBackend:
    """Serves store hits and answers each miss with a stub, recording it.

    The first pass of :func:`sweep_experiments` and of a service job
    (see :func:`probe`).  Each distinct key is looked up in the store
    once.  ``points``/``figures`` record every key the figures read, in
    first-read order: ``"replayed"`` for a hit, ``"simulated"`` for a
    miss, whose unit ``missing`` holds for the executor.  ``figure``
    (mutable between figures) labels them.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.figure: Optional[str] = None
        self.points: Dict[str, str] = {}
        self.figures: Dict[str, Optional[str]] = {}
        self.missing: Dict[str, SimulationUnit] = {}
        self._hits: Dict[str, SimulationResult] = {}

    @property
    def provides_real_results(self) -> bool:
        """Every result served before the first miss is a store hit, so
        alone-run caches may keep it (a warm probe caches exactly what a
        :class:`CacheServingBackend` would); stubs follow, and must not
        be kept."""
        return not self.missing

    def __call__(self, traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
        traces = list(traces)
        key = point_key(traces, config)
        if key not in self.points:
            self.figures[key] = self.figure
            result = self.store.get(key)
            if result is None:
                self.points[key] = "simulated"
                self.missing[key] = SimulationUnit(
                    key=key, traces=traces, config=config, figure=self.figure
                )
            else:
                self.points[key] = "replayed"
                self._hits[key] = result
        result = self._hits.get(key)
        return stub_result(traces, config) if result is None else result


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


def _run_figures(labels: Iterable[str], backend, kwargs: Dict) -> Dict[str, Dict]:
    """The figures ``labels`` with ``backend`` installed, as one pass."""
    data: Dict[str, Dict] = {}
    with sweep_pass(), sim_runner.simulation_backend(backend):
        for label in labels:
            backend.figure = label
            with telemetry.registry().time(f"sweep.figure_seconds.{label}"):
                data[label] = _run_figure(resolve_experiment(label), kwargs)
    return data


def probe(labels: Iterable[str], store, **kwargs) -> Tuple[Dict[str, Dict], ProbingBackend]:
    """Run the experiments ``labels`` serving only what ``store`` holds.

    One pass (see :func:`~repro.workloads.memo.sweep_pass`), or part of
    the caller's.  Returns the figure label → data dict mapping and the
    backend, whose ``points``/``figures`` record the distinct keys read
    and whose ``missing`` holds a unit per key the store lacked.  With
    nothing missing the data is real and bit-identical to a replay's;
    otherwise it is built from stubs and must be discarded.
    """
    backend = ProbingBackend(store)
    return _run_figures(labels, backend, kwargs), backend


def replay(
    labels: Iterable[str], store, **kwargs
) -> Tuple[Dict[str, Dict], CacheServingBackend]:
    """Run the experiments ``labels`` with every simulation served from ``store``.

    One pass (see :func:`~repro.workloads.memo.sweep_pass`), or part of
    the caller's.  Points missing from the store are simulated on this
    thread and committed.  Returns the figure label → data dict mapping
    and the backend, whose ``points``/``figures`` record the distinct
    keys read.
    """
    backend = CacheServingBackend(store)
    return _run_figures(labels, backend, kwargs), backend


# ----------------------------------------------------------------- execution


#: Instructions the missing points of a local sweep must hold before it
#: runs them on a process pool rather than in this process.  A spawned
#: worker takes ~0.3 s to start and import ``repro``, and the kernel
#: simulates ~3M instructions/s, so start-up costs ~0.9M instructions of
#: simulation.  A pool of N workers pays off once the time it saves,
#: I x (N - 1) / N, exceeds that: I > 0.9M x N / (N - 1), which is 1.8M
#: for two workers and falls towards 0.9M with more.
POOL_BREAK_EVEN_INSTRUCTIONS = 2_000_000


def local_executor(units: Sequence[SimulationUnit]) -> Executor:
    """The executor a sweep given none runs its missing ``units`` on.

    A pool of one worker per usable CPU, at most one per unit, when the
    units' traces hold at least :data:`POOL_BREAK_EVEN_INSTRUCTIONS`
    instructions; this process otherwise.
    """
    jobs = min(usable_cpus(), len(units))
    if jobs > 1 and sum(unit.instructions for unit in units) >= POOL_BREAK_EVEN_INSTRUCTIONS:
        return ProcessPoolExecutor(jobs)
    return SerialExecutor()


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

    A probe pass serves the store's hits and finds the missing points;
    with none missing its data is the result.  Otherwise ``executor``
    simulates them — without one, :func:`local_executor` picks a process
    pool or this process — and a replay builds the data from the store.
    Either way the data dicts are bit-identical to calling each
    ``module.run`` serially, and the stats count the distinct points the
    figures read and name the executor that ran the missing ones.
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
        with sim_runner.engine_override(request.engine), sweep_pass():
            telemetry.emit("phase.start", phase="probe", run=run_id)
            data, probed = probe(labels, store, **kwargs)
            reads, missing = probed, list(probed.missing.values())
            telemetry.emit(
                "phase.end", phase="probe", run=run_id,
                points=len(probed.points), missing=len(missing),
            )
            if missing:
                executor = executor or local_executor(missing)
                telemetry.emit("phase.start", phase="execute", run=run_id)
                executed = executor.execute(missing, store)
                telemetry.emit(
                    "phase.end", phase="execute", run=run_id,
                    executed=executed, reused=len(probed.points) - executed,
                )
                telemetry.emit("phase.start", phase="replay", run=run_id)
                data, reads = replay(labels, store, **kwargs)
                telemetry.emit("phase.end", phase="replay", run=run_id)
        if executor is not None:
            stats.executor, stats.jobs = executor.name, executor.jobs
        # The stats count the keys the real data was built from: the
        # replay's when one ran (the executor's points it finds in the
        # store were simulated this run), the warm probe's otherwise.
        runs = getattr(store, "runs", {})
        for key, state in reads.points.items():
            figure = reads.figures[key]
            if state == "replayed" and key not in probed.missing:
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
