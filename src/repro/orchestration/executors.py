"""Pluggable execution backends for the orchestrator's execute phase.

:func:`~repro.orchestration.sweep.execute_units` delegates the actual
simulation of pending points to an :class:`Executor`.  All executors
share one contract: every unit handed to ``execute`` ends up committed
to the result store (content-addressed, so completion order and even
duplicate commits are irrelevant), and the replay phase then produces
output bit-identical to a serial run.

A result store is any object with ``get(key)``, ``contains(key)`` and
``put(key, result, figure=None)``; ``figure`` is an informational label
that never enters the key.

Built-ins:

* :class:`SerialExecutor` — one point after another, in-process
  (``--target local`` runs without an executor, see
  :func:`~repro.orchestration.sweep.sweep_experiments`).
* :class:`ProcessPoolExecutor` — a local ``multiprocessing`` pool
  (``--target process[:N]``).

Worker fleets on any machines are reached through the ``repro serve``
daemon instead (:mod:`repro.distributed`, ``--target HOST:PORT``): it
plans and replays each submitted sweep itself, with the same planner and
replay as :func:`~repro.orchestration.sweep.sweep_experiments`.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.trace import Trace
from ..sim.config import SimulationConfig
from ..sim.runner import simulate_direct
from ..sim.system import System


class Executor:
    """Simulates a batch of pending units into a result store."""

    #: CLI / reporting name of the executor.
    name = "base"

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


def _execute_unit(payload: Tuple[str, List[Trace], SimulationConfig, Optional[str]]):
    """Pool worker: simulate one point (must stay module-level for pickling).

    Returns the point's wall time and the child's own metrics snapshot
    alongside the result, so the parent can fold per-point timings *and*
    the engine counters the simulation recorded into its registry (pool
    workers' process registries die with the pool — without the
    snapshot, pool runs would lose engine/profile attribution entirely).
    """
    key, traces, config, figure = payload
    start = perf_counter()
    with telemetry.isolated(enabled=True) as registry:
        with telemetry.figure_scope(figure):
            result = System(traces, config).run()
        child_snapshot = registry.snapshot()
    return key, result, perf_counter() - start, child_snapshot


class ProcessPoolExecutor(Executor):
    """A local ``multiprocessing`` pool of ``jobs`` worker processes."""

    name = "process"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def execute(self, units: Sequence, store) -> int:
        units = list(units)
        if self.jobs > 1 and len(units) > 1:
            figures = {unit.key: getattr(unit, "figure", None) for unit in units}
            payloads = [
                (unit.key, unit.traces, unit.config, figures[unit.key]) for unit in units
            ]
            processes = min(self.jobs, len(units))
            telemetry.counter("executor.points_started", len(units))
            for unit in units:
                telemetry.emit("point.start", point=unit.key, figure=figures[unit.key])
            with multiprocessing.get_context().Pool(processes=processes) as pool:
                for key, result, seconds, child_snapshot in pool.imap_unordered(
                    _execute_unit, payloads
                ):
                    telemetry.observe("executor.point_seconds", seconds)
                    telemetry.merge_into_process(child_snapshot)
                    store.put(key, result, figure=figures.get(key))
                    telemetry.counter("executor.points_finished")
                    telemetry.emit(
                        "point.done", point=key, figure=figures.get(key), seconds=seconds
                    )
        else:
            return SerialExecutor().execute(units, store)
        return len(units)

