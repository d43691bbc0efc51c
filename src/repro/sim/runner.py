"""Experiment runner: shared vs. alone runs, slowdowns, fairness.

The paper's methodology (Section 7) reports every per-application metric
relative to the application running *alone* on a single-core baseline
system.  The runner materialises a workload mix into traces, simulates it
under a given design, simulates every application alone (cached across
experiments, since alone runs are design-independent), and assembles the
derived metrics: execution slowdown, memory slowdown, unfairness index and
weighted speedup.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.trace import Trace
from ..dram.address import AddressMapping
from ..metrics.fairness import memory_slowdown, unfairness_index
from ..metrics.speedup import normalized_weighted_speedup, weighted_speedup
from ..workloads.memo import per_object
from ..workloads.mixes import build_traces
from ..workloads.spec import WorkloadMix
from .config import SimulationConfig
from .results import CoreResult, SimulationResult
from .system import System


class _ThreadScope(threading.local):
    """Per-thread backend installation and engine override.

    The pluggable execution backend (see :mod:`repro.orchestration.sweep`)
    and the ``--engine`` override are scoped *per thread*, not per process:
    the sweep service plans and replays several tenants' jobs on their own
    threads while in-process workers simulate leased points concurrently —
    a process-global backend would route a worker's real simulation
    through another tenant's planning backend and commit a stub result
    to the shared store.  Each thread starts with no backend
    installed (direct execution) and no engine override; the class
    attributes below are the per-thread defaults ``threading.local``
    hands to every new thread.
    """

    #: ``None`` means "build a :class:`System` and run it in-process"; the
    #: orchestrator temporarily installs planning/cache-serving backends
    #: here so every simulation in the repository routes through one
    #: choke point.
    backend: Optional[Callable[[Sequence[Trace], SimulationConfig], SimulationResult]] = None

    #: Engine override (``None`` = honour each config's engine).  Set from
    #: the CLI's ``--engine`` flag or a :class:`SweepRequest`; applied at
    #: the choke point so every simulation of a run — experiments, alone
    #: runs, orchestration workers — uses the requested engine.  Results
    #: are engine-independent, so the override never affects cache keys.
    engine: Optional[str] = None

    #: Periodic-checkpoint policy (``None`` = run straight through).
    #: Installed per thread like the backend, and only honoured on the
    #: direct-execution path: a planning/cache-serving backend never
    #: simulates, and process-pool workers run in their own interpreters,
    #: where the pool installs the policy it was handed.
    checkpoint: Optional["CheckpointPolicy"] = None


_SCOPE = _ThreadScope()


@dataclass(frozen=True)
class CheckpointPolicy:
    """Periodic checkpointing for direct simulations.

    Every ``interval`` simulated cycles the running :class:`System` is
    snapshotted into ``store`` (any object with the
    :class:`~repro.orchestration.cache.CheckpointStore` ``resume``/``put``
    interface), and a fresh simulation first asks the store for the
    latest matching checkpoint to resume from — so an interrupted
    process loses at most one interval, and sweep points sharing a
    warmup prefix skip it (the store is content-addressed by
    config-prefix + traces, see :func:`repro.sim.checkpoint.prefix_key`).
    """

    store: object
    interval: int

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("checkpoint interval must be >= 1 cycle")


def simulate_traces(traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
    """Run one simulation through the currently installed backend."""
    engine = _SCOPE.engine
    if engine is not None and config.engine != engine:
        config = replace(config, engine=engine)
    backend = _SCOPE.backend
    if backend is None:
        return simulate_direct(traces, config)
    return backend(traces, config)


def simulate_direct(traces: Sequence[Trace], config: SimulationConfig) -> SimulationResult:
    """One simulation on this thread, bypassing any installed backend.

    This is the execution choke point for the backends themselves (the
    cache-serving replay backend, the serial executor): routing their
    misses here instead of ``System(...).run()`` keeps this thread's
    periodic-checkpoint policy in force — so a CLI sweep under
    ``--checkpoint-interval`` checkpoints the points it computes, not
    just bare ``simulate_traces`` calls.
    """
    policy = _SCOPE.checkpoint
    if policy is not None:
        return _simulate_with_checkpoints(list(traces), config, policy)
    return System(list(traces), config).run()


def _simulate_with_checkpoints(
    traces: List[Trace], config: SimulationConfig, policy: CheckpointPolicy
) -> SimulationResult:
    """Direct execution under a checkpoint policy: resume, advance, snapshot."""
    system = policy.store.resume(traces, config)
    if system is None:
        system = System(traces, config)
    while not system.advance(stop_at=system.cycle + policy.interval):
        policy.store.put(traces, config, system)
    return system.finalize()


def set_engine_override(engine: Optional[str]) -> Optional[str]:
    """Force this thread's simulations onto ``engine`` (``None`` restores
    configs).

    Returns the previous override so callers can scope it.
    """
    previous = _SCOPE.engine
    _SCOPE.engine = engine
    return previous


def set_simulation_backend(
    backend: Optional[Callable[[Sequence[Trace], SimulationConfig], SimulationResult]],
) -> Optional[Callable[[Sequence[Trace], SimulationConfig], SimulationResult]]:
    """Install ``backend`` (or ``None`` for direct execution); returns the old one."""
    previous = _SCOPE.backend
    _SCOPE.backend = backend
    return previous


def backend_provides_real_results() -> bool:
    """Whether backend results may be cached (planning backends return stubs)."""
    backend = _SCOPE.backend
    return backend is None or getattr(backend, "provides_real_results", True)


@contextmanager
def engine_override(engine: Optional[str]) -> Iterator[Optional[str]]:
    """Scope an engine override: installed on entry, restored on exit.

    Both :func:`set_engine_override` and :func:`set_simulation_backend`
    mutate this thread's scope; a sweep that raises between install and
    restore would otherwise leak its override into every subsequent
    simulation on the thread (a long-lived test session, a library
    caller, a service job thread).  All scoped installs — the CLI, the
    orchestrator, the sweep service, benchmarks — go through these
    context managers so an exception cannot leak.
    """
    previous = set_engine_override(engine)
    try:
        yield engine
    finally:
        set_engine_override(previous)


@contextmanager
def simulation_backend(backend) -> Iterator:
    """Scope a simulation backend: installed on entry, restored on exit.

    See :func:`engine_override` for why installs must be scoped.
    """
    previous = set_simulation_backend(backend)
    try:
        yield backend
    finally:
        set_simulation_backend(previous)


def set_checkpoint_policy(policy: Optional[CheckpointPolicy]) -> Optional[CheckpointPolicy]:
    """Install ``policy`` for this thread's direct simulations; returns the old one."""
    previous = _SCOPE.checkpoint
    _SCOPE.checkpoint = policy
    return previous


def checkpoint_policy() -> Optional[CheckpointPolicy]:
    """This thread's periodic-checkpoint policy (``None`` = none installed)."""
    return _SCOPE.checkpoint


@contextmanager
def checkpointing(store, interval: int) -> Iterator[CheckpointPolicy]:
    """Scope a periodic-checkpoint policy (see :func:`engine_override`)."""
    policy = CheckpointPolicy(store=store, interval=interval)
    previous = set_checkpoint_policy(policy)
    try:
        yield policy
    finally:
        set_checkpoint_policy(previous)


@dataclass(frozen=True)
class SlotEvaluation:
    """Shared-vs-alone comparison for one core of a workload."""

    name: str
    is_rng: bool
    slowdown: float
    memory_slowdown: float
    ipc_shared: float
    ipc_alone: float
    shared: CoreResult
    alone: CoreResult


@dataclass
class WorkloadEvaluation:
    """Full evaluation of one workload mix under one design."""

    mix_name: str
    design: str
    slots: List[SlotEvaluation]
    unfairness: float
    result: SimulationResult

    @property
    def rng_slots(self) -> List[SlotEvaluation]:
        return [slot for slot in self.slots if slot.is_rng]

    @property
    def non_rng_slots(self) -> List[SlotEvaluation]:
        return [slot for slot in self.slots if not slot.is_rng]

    @property
    def rng_slowdown(self) -> float:
        """Average slowdown of the RNG applications in the workload."""
        slots = self.rng_slots
        if not slots:
            return 1.0
        return sum(slot.slowdown for slot in slots) / len(slots)

    @property
    def non_rng_slowdown(self) -> float:
        """Average slowdown of the non-RNG applications in the workload."""
        slots = self.non_rng_slots
        if not slots:
            return 1.0
        return sum(slot.slowdown for slot in slots) / len(slots)

    @property
    def non_rng_weighted_speedup(self) -> float:
        """Weighted speedup of the non-RNG applications (Figure 7)."""
        slots = self.non_rng_slots
        if not slots:
            return 0.0
        return weighted_speedup(
            [slot.ipc_shared for slot in slots], [slot.ipc_alone for slot in slots]
        )

    @property
    def non_rng_normalized_weighted_speedup(self) -> float:
        slots = self.non_rng_slots
        if not slots:
            return 0.0
        return normalized_weighted_speedup(
            [slot.ipc_shared for slot in slots], [slot.ipc_alone for slot in slots]
        )

    @property
    def buffer_serve_rate(self) -> float:
        return self.result.buffer_serve_rate

    @property
    def predictor_accuracy(self) -> Optional[float]:
        return self.result.predictor_accuracy

    @property
    def energy_nj(self) -> float:
        return self.result.energy.total_nj

    @property
    def memory_busy_cycles(self) -> int:
        return self.result.memory_busy_cycles


def _alone_run_config(config: SimulationConfig) -> SimulationConfig:
    return config.alone_run_config()


class AloneRunCache:
    """Cache of single-application "alone" runs keyed by trace + config.

    The key is the trace's name, its full metadata and its instruction
    count, plus the complete alone-run configuration, so a run is served
    only to configs that would simulate exactly that run.  Inside a sweep
    pass the alone-run configuration is derived once per config object
    (:func:`~repro.workloads.memo.per_object`), so every alone run of one
    config shares one config object and one key fragment.
    """

    def __init__(self) -> None:
        self._cache: Dict[tuple, Tuple[CoreResult, SimulationResult]] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self, trace: Trace, config: SimulationConfig
    ) -> Tuple[CoreResult, SimulationResult]:
        alone_config = per_object(config, _alone_run_config)
        key = (
            trace.name,
            tuple(sorted(trace.metadata.items())),
            trace.total_instructions,
            alone_config,
        )
        if key in self._cache:
            self.hits += 1
            telemetry.counter("alone_cache.hits")
            return self._cache[key]
        entry = self._load(trace, alone_config)
        if entry is not None:
            self.hits += 1
            telemetry.counter("alone_cache.hits")
            self._cache[key] = entry
            return entry
        self.misses += 1
        telemetry.counter("alone_cache.misses")
        result = simulate_traces([trace], alone_config)
        entry = (result.cores[0], result)
        if backend_provides_real_results():
            self._cache[key] = entry
            self._persist(trace, alone_config, result)
        return entry

    def _load(
        self, trace: Trace, alone_config: SimulationConfig
    ) -> Optional[Tuple[CoreResult, SimulationResult]]:
        """Hook for persistent subclasses: fetch an entry from backing storage."""
        return None

    def _persist(
        self, trace: Trace, alone_config: SimulationConfig, result: SimulationResult
    ) -> None:
        """Hook for persistent subclasses: store a freshly computed entry."""

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)


#: Module-level cache shared by all experiments of one process.
GLOBAL_ALONE_CACHE = AloneRunCache()


def run_workload(
    mix: WorkloadMix,
    config: SimulationConfig,
    instructions: int = 20_000,
    seed: int = 0,
    cache: Optional[AloneRunCache] = None,
    traces: Optional[Sequence[Trace]] = None,
) -> WorkloadEvaluation:
    """Simulate ``mix`` under ``config`` and compare against alone runs."""
    cache = cache if cache is not None else GLOBAL_ALONE_CACHE
    mapping = AddressMapping(config.organization)
    if traces is None:
        traces = build_traces(mix, instructions, seed=seed, mapping=mapping)
    shared_result = simulate_traces(traces, config)

    slots: List[SlotEvaluation] = []
    slowdown_values: List[float] = []
    for core_id, trace in enumerate(traces):
        alone_core, _ = cache.get(trace, config)
        shared_core = shared_result.cores[core_id]
        execution_slowdown = shared_core.cycles / max(1, alone_core.cycles)
        mem_slowdown = memory_slowdown(shared_core.mcpi, alone_core.mcpi)
        slots.append(
            SlotEvaluation(
                name=trace.name,
                is_rng=shared_core.is_rng,
                slowdown=execution_slowdown,
                memory_slowdown=mem_slowdown,
                ipc_shared=max(shared_core.ipc, 1e-12),
                ipc_alone=max(alone_core.ipc, 1e-12),
                shared=shared_core,
                alone=alone_core,
            )
        )
        # For the unfairness index an application that runs *faster* than
        # alone (e.g. an RNG application whose requests are absorbed by
        # the random number buffer) is not "unfairly favoured" beyond
        # parity, so its memory slowdown is floored at 1.0.
        slowdown_values.append(max(1.0, mem_slowdown))

    unfairness = unfairness_index(slowdown_values) if len(slowdown_values) > 1 else 1.0
    return WorkloadEvaluation(
        mix_name=mix.name,
        design=config.design,
        slots=slots,
        unfairness=unfairness,
        result=shared_result,
    )


def run_single_application(
    trace: Trace,
    config: SimulationConfig,
    cache: Optional[AloneRunCache] = None,
) -> Tuple[CoreResult, SimulationResult]:
    """Run one application alone on the baseline system (cached)."""
    cache = cache if cache is not None else GLOBAL_ALONE_CACHE
    return cache.get(trace, config)


def compare_designs(
    mix: WorkloadMix,
    configs: Dict[str, SimulationConfig],
    instructions: int = 20_000,
    seed: int = 0,
    cache: Optional[AloneRunCache] = None,
) -> Dict[str, WorkloadEvaluation]:
    """Evaluate the same workload (same traces) under several designs."""
    cache = cache if cache is not None else GLOBAL_ALONE_CACHE
    results: Dict[str, WorkloadEvaluation] = {}
    base_config = next(iter(configs.values()))
    mapping = AddressMapping(base_config.organization)
    traces = build_traces(mix, instructions, seed=seed, mapping=mapping)
    for label, config in configs.items():
        results[label] = run_workload(
            mix, config, instructions=instructions, seed=seed, cache=cache, traces=traces
        )
    return results
