"""Pluggable execution backends for a sweep's missing points.

:func:`~repro.orchestration.sweep.sweep_experiments` hands the points
its probe pass found missing from the result store to an
:class:`Executor`.  All executors share one contract: every unit handed
to ``execute`` ends up committed to the result store (content-addressed,
so completion order and even duplicate commits are irrelevant), and the
replay then produces output bit-identical to a serial run.

A result store is any object with ``get(key)`` and
``put(key, result, figure=None)``; ``figure`` is an informational label
that never enters the key.

Built-ins:

* :class:`SerialExecutor` — one point after another, in-process
  (``--target process:1``; ``--target local`` below the pool's
  break-even, see :func:`~repro.orchestration.sweep.local_executor`).
* :class:`ProcessPoolExecutor` — a pool of spawned local processes
  (``--target process[:N]``; ``--target local`` above the break-even).

Worker fleets on any machines are reached through the ``repro serve``
daemon instead (:mod:`repro.distributed`, ``--target HOST:PORT``): it
probes and replays each submitted sweep itself.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.trace import Trace
from ..sim import runner as sim_runner
from ..sim.config import SimulationConfig
from ..sim.runner import CheckpointPolicy, simulate_direct


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Executor:
    """Simulates a batch of pending units into a result store."""

    #: CLI / reporting name of the executor.
    name = "base"
    #: Points it simulates at once.
    jobs = 1

    def execute(self, units: Sequence, store) -> int:
        """Simulate every unit and commit each result to ``store``.

        Returns the number of points simulated.  Implementations may
        reorder and parallelise freely; the store is content-addressed.
        """
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, one point at a time (useful as a reference and for tests)."""

    name = "serial"

    def execute(self, units: Sequence, store) -> int:
        executed = 0
        for unit in units:
            figure = getattr(unit, "figure", None)
            telemetry.counter("executor.points_started")
            telemetry.emit("point.start", point=unit.key, figure=figure)
            start = perf_counter()
            with telemetry.figure_scope(figure):
                result = simulate_direct(unit.traces, unit.config)
            seconds = perf_counter() - start
            telemetry.observe("executor.point_seconds", seconds)
            store.put(unit.key, result, figure=figure)
            telemetry.counter("executor.points_finished")
            telemetry.emit("point.done", point=unit.key, figure=figure, seconds=seconds)
            executed += 1
        return executed


def _execute_unit(
    payload: Tuple[
        str, List[Trace], SimulationConfig, Optional[str], Optional[CheckpointPolicy], bool
    ],
):
    """Pool worker: simulate one point (must stay module-level for pickling).

    A spawned worker inherits no module state, so the payload carries the
    parent's checkpoint policy and engine-profiling flag, and the point
    runs through :func:`~repro.sim.runner.simulate_direct` under both,
    as it would in the parent.  Returns the point's wall time and the
    worker's own metrics snapshot alongside the result, so the parent can
    fold per-point timings *and* the engine counters the simulation
    recorded into its registry (without the snapshot, pool runs would
    lose engine/profile attribution entirely).
    """
    key, traces, config, figure, policy, profiling = payload
    start = perf_counter()
    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(telemetry.isolated(enabled=True))
        stack.enter_context(telemetry.profiled(profiling))
        stack.enter_context(telemetry.figure_scope(figure))
        if policy is not None:
            stack.enter_context(sim_runner.checkpointing(policy.store, policy.interval))
        result = simulate_direct(traces, config)
        child_snapshot = registry.snapshot()
    return key, result, perf_counter() - start, child_snapshot


class ProcessPoolExecutor(Executor):
    """A pool of ``jobs`` local worker processes.

    Workers are spawned, not forked: a sweep is library code, and forking
    a process that runs threads (a service, a test runner) is unsafe.
    Spawned workers re-import the caller's ``__main__``, so a script that
    sweeps needs the ``if __name__ == "__main__":`` guard; without it, or
    when a worker dies, ``execute`` raises ``BrokenProcessPool``.  The
    pool and its threads are gone when ``execute`` returns.
    """

    name = "process"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def execute(self, units: Sequence, store) -> int:
        units = list(units)
        if self.jobs == 1 or len(units) <= 1:
            return SerialExecutor().execute(units, store)
        # Imported here: it pulls in ``logging`` (~0.5 MiB), which a
        # process that never starts a pool need not pay for.
        from concurrent import futures

        policy = sim_runner.checkpoint_policy()
        profiling = telemetry.profiling()
        figures = {unit.key: getattr(unit, "figure", None) for unit in units}
        telemetry.counter("executor.points_started", len(units))
        for unit in units:
            telemetry.emit("point.start", point=unit.key, figure=figures[unit.key])
        payloads = [
            (unit.key, unit.traces, unit.config, figures[unit.key], policy, profiling)
            for unit in units
        ]
        pool = futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(units)),
            mp_context=multiprocessing.get_context("spawn"),
        )
        try:
            # ``map`` submits every point up front: workers take the next
            # one as they finish, and each result is dropped once read.
            for key, result, seconds, child_snapshot in pool.map(_execute_unit, payloads):
                telemetry.observe("executor.point_seconds", seconds)
                telemetry.merge_into_process(child_snapshot)
                store.put(key, result, figure=figures[key])
                telemetry.counter("executor.points_finished")
                telemetry.emit("point.done", point=key, figure=figures[key], seconds=seconds)
        finally:
            pool.shutdown(cancel_futures=True)
        return len(units)
