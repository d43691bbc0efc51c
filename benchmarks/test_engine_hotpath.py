"""Benchmarks of the simulation hot path itself (engine-level, no cache).

Unlike the per-figure benchmarks, these construct a :class:`System`
directly so the measurement is pure simulation — no result cache, no
alone-run reuse, no trace generation inside the timed region.  The event
engine benchmark is the **regression gate**: CI compares its mean
against ``benchmarks/baseline.json`` (``--benchmark-compare``) and fails
on a >25% regression, as it does for the dense, kernel and idle-regime
benchmarks below.

``test_engine_speedup_on_idle_heavy_figures`` demonstrates the
cycle-skipping engine's cold-run speedup on the idle-heavy figures the
paper's design exploits (Figures 5, 15, 18).  The assertions are
deliberately conservative floors (CI machines vary); the measured
ratios are printed for the record.  Representative numbers on a quiet
machine: fig05 ~4x, fig15 ~4.5x, fig18 ~2.4x (its 8-core
high-intensity groups have little idleness to skip), combined ~3x.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro import telemetry
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.experiments import fig05_idle_periods, fig15_low_utilization, fig18_multicore_idle
from repro.sim.config import ENGINE_EVENT, ENGINE_TICK, baseline_config, drstrange_config
from repro.sim.runner import GLOBAL_ALONE_CACHE, engine_override
from repro.sim.system import System
from repro.workloads.mixes import ROW_OFFSET_STRIDE, build_traces, four_core_group_mixes
from repro.workloads.suites import applications_by_category
from repro.workloads.synthetic import generate_application_trace

from conftest import BENCH_INSTRUCTIONS

#: Scaled-down workload for the gated engine benchmark: one 4-core
#: DR-STRaNGe simulation exercises the scheduler, buffer, predictor and
#: RNG-mode paths together.
HOTPATH_INSTRUCTIONS = 15_000

#: Scaled-down fig18 H-group shape for the dense-workload gate: eight
#: high-memory-intensity applications keep every read queue deep, which
#: is exactly the regime the batched-serve fast path exists for.
DENSE_INSTRUCTIONS = 10_000

#: Per-core instruction count of the trace-replay kernel benchmark: a
#: two-core high-intensity run whose wall-clock is dominated by the
#: precompiled-trace request lifecycle rather than by serve windows.
KERNEL_INSTRUCTIONS = 30_000

#: Per-core instruction count of the idle-regime gate: a 4-core LLLS mix
#: (three low-intensity apps and the RNG benchmark), the regime of the
#: paper's idle-period figures, where cores stream bubbles beside memory
#: single steps (RNG buffer fills, sparse reads).
IDLE_INSTRUCTIONS = 50_000


def _hotpath_traces():
    mix = four_core_group_mixes(workloads_per_group=1)["LLHS"][0]
    mapping = AddressMapping(DRAMOrganization())
    return build_traces(mix, HOTPATH_INSTRUCTIONS, seed=0, mapping=mapping)


def _dense_traces():
    mapping = AddressMapping(DRAMOrganization())
    pool = applications_by_category()["H"]
    return [
        generate_application_trace(
            pool[slot % len(pool)],
            DENSE_INSTRUCTIONS,
            seed=slot,
            mapping=mapping,
            row_offset=slot * ROW_OFFSET_STRIDE,
        )
        for slot in range(8)
    ]


def _run(traces, engine: str):
    config = dataclasses.replace(drstrange_config(), engine=engine)
    return System(list(traces), config).run()


def _run_dense(traces, engine: str):
    config = dataclasses.replace(baseline_config(), engine=engine)
    return System(list(traces), config).run()


def test_engine_hotpath_event(benchmark):
    """The regression-gated hot path: one simulation on the event engine."""
    traces = _hotpath_traces()
    result = benchmark.pedantic(_run, args=(traces, ENGINE_EVENT), rounds=3, iterations=1)
    assert result.total_cycles > 0


def _idle_traces():
    mix = four_core_group_mixes(workloads_per_group=1)["LLLS"][0]
    mapping = AddressMapping(DRAMOrganization())
    return build_traces(mix, IDLE_INSTRUCTIONS, seed=0, mapping=mapping)


def test_engine_idle_streaming(benchmark):
    """The idle regime on the event engine (gated): bubble-streaming
    cores stay deferred through memory single steps, and a regression of
    that deferral lands in the >25% mean gate."""
    traces = _idle_traces()
    result = benchmark.pedantic(_run, args=(traces, ENGINE_EVENT), rounds=3, iterations=1)
    assert result.total_cycles > 0


def test_engine_hotpath_tick(benchmark):
    """Reference engine on the same workload (for the speedup record)."""
    traces = _hotpath_traces()
    result = benchmark.pedantic(_run, args=(traces, ENGINE_TICK), rounds=3, iterations=1)
    assert result.total_cycles > 0


def _kernel_traces():
    """Two high-intensity applications: the per-request lifecycle —
    precompiled-column replay, arena reuse, queue slot-array scans,
    issue/retire arithmetic — dominates, with minimal idleness for the
    engine to skip."""
    mapping = AddressMapping(DRAMOrganization())
    pool = applications_by_category()["H"]
    return [
        generate_application_trace(
            pool[slot % len(pool)],
            KERNEL_INSTRUCTIONS,
            seed=slot,
            mapping=mapping,
            row_offset=slot * ROW_OFFSET_STRIDE,
        )
        for slot in range(2)
    ]


def test_trace_replay_kernel(benchmark):
    """The trace-replay/request-lifecycle kernel in isolation (gated).

    A two-core run keeps every queue shallow, so wall-clock concentrates
    in the shared kernel (core column replay, request arena, scheduler
    slot scans) rather than in dense-window formation; together with
    ``test_fig18_dense`` the >25% gate covers both halves of the dense
    cost."""
    traces = _kernel_traces()
    result = benchmark.pedantic(_run_dense, args=(traces, ENGINE_EVENT), rounds=3, iterations=1)
    assert result.total_cycles > 0


def test_trace_replay_kernel_with_telemetry(benchmark):
    """The gated kernel with telemetry enabled: metrics must cost <2%.

    Wall-clock A/B comparisons of a ~2% effect are hopeless on shared CI
    runners, so the bound is *proven* instead of sampled: telemetry's
    registry counts every mutating operation it ever performs
    (``op_count``), recording happens only at per-simulation granularity,
    and the per-operation cost is measured directly on this machine.
    ops-per-run x seconds-per-op against the kernel's own measured time
    is the telemetry overhead — orders of magnitude under the 2% budget
    unless someone wires a metric into the per-cycle hot loop, which is
    exactly the regression this guards against.
    """
    traces = _kernel_traces()
    with telemetry.isolated(enabled=True) as registry:
        result = benchmark.pedantic(_run_dense, args=(traces, ENGINE_EVENT), rounds=3, iterations=1)
        runs = registry.snapshot()["counters"]["sim.runs"]
        ops = registry.op_count
    assert result.total_cycles > 0
    assert runs >= 3
    ops_per_run = ops / runs
    # O(1) per simulation: a handful of counters/timers, nothing per cycle.
    assert ops_per_run <= 16, f"telemetry did {ops_per_run:.0f} ops per simulation"
    # Measured per-operation cost on this machine (same lock, same dict path).
    probe = telemetry.MetricsRegistry()
    op_rounds = 10_000
    start = time.perf_counter()
    for _ in range(op_rounds):
        probe.counter("probe")
    seconds_per_op = (time.perf_counter() - start) / op_rounds
    kernel_seconds = benchmark.stats.stats.min
    overhead = ops_per_run * seconds_per_op
    assert overhead < 0.02 * kernel_seconds, (
        f"telemetry overhead {overhead * 1e6:.1f}us is not <2% of the "
        f"{kernel_seconds * 1e3:.1f}ms kernel"
    )


def test_checkpoint_overhead(benchmark):
    """The gated kernel via :func:`simulate_traces` with checkpointing off.

    Checkpointing must be free when not requested.  Its entire footprint
    on the direct execution path is one thread-scope policy lookup per
    *simulation* (never per cycle): ``simulate_traces`` reads
    ``_SCOPE.checkpoint`` once and proceeds straight to ``System.run``
    when it is ``None``.  As with the telemetry bound, a wall-clock A/B
    of a sub-2% effect is hopeless on shared runners, so the bound is
    proven instead of sampled: the per-lookup cost is measured directly
    on this machine and multiplied by lookups-per-run against the
    kernel's own measured time.  Anything that moves checkpoint work
    into the per-cycle loop lands in the >25% mean gate instead (this
    benchmark runs under the same ``--benchmark-compare-fail``).
    """
    from repro.sim import runner as runner_module
    from repro.sim.runner import simulate_traces

    traces = _kernel_traces()
    config = dataclasses.replace(baseline_config(), engine=ENGINE_EVENT)

    def run_direct():
        return simulate_traces(list(traces), config)

    result = benchmark.pedantic(run_direct, rounds=3, iterations=1)
    assert result.total_cycles > 0

    # Measured cost of the policy-off lookup (the same attribute read
    # simulate_traces performs), on this machine.
    probe_rounds = 100_000
    scope = runner_module._SCOPE
    start = time.perf_counter()
    for _ in range(probe_rounds):
        if scope.checkpoint is not None:  # pragma: no cover - policy is off
            raise AssertionError("benchmark must run with checkpointing off")
    seconds_per_lookup = (time.perf_counter() - start) / probe_rounds
    kernel_seconds = benchmark.stats.stats.min
    overhead = 1 * seconds_per_lookup  # one lookup per simulation
    assert overhead < 0.02 * kernel_seconds, (
        f"checkpointing-off overhead {overhead * 1e6:.2f}us is not <2% of the "
        f"{kernel_seconds * 1e3:.1f}ms kernel"
    )


def test_fig18_dense(benchmark):
    """Dense 8-core fig18 H-group hot path (guards the batched-serve path).

    This is the skip-poor regime where the event engine degenerates to
    per-cycle dispatch without batched serving; the >25% gate on its mean
    keeps the fast path from silently regressing (or being disabled —
    which would land well outside the gate).
    """
    traces = _dense_traces()
    result = benchmark.pedantic(_run_dense, args=(traces, ENGINE_EVENT), rounds=3, iterations=1)
    assert result.total_cycles > 0


def _cold_figure_seconds(engine: str, run, reps: int = 2, **kwargs) -> float:
    best = float("inf")
    for _ in range(reps):
        GLOBAL_ALONE_CACHE.clear()
        with engine_override(engine):
            start = time.perf_counter()
            run(**kwargs)
            best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(
    not os.environ.get("REPRO_ENGINE_SPEEDUP_GATE"),
    reason="wall-clock ratio assertions are too noisy for the correctness matrix; "
    "set REPRO_ENGINE_SPEEDUP_GATE=1 (done by CI's benchmark-gate job) to run",
)
def test_engine_speedup_on_idle_heavy_figures(bench_apps):
    """Cold-run tick-vs-event comparison over fig05/fig15/fig18."""
    figures = (
        ("fig05", fig05_idle_periods.run, {"apps": bench_apps, "instructions": BENCH_INSTRUCTIONS}),
        ("fig15", fig15_low_utilization.run, {"apps": bench_apps, "instructions": BENCH_INSTRUCTIONS}),
        ("fig18", fig18_multicore_idle.run, {"instructions": BENCH_INSTRUCTIONS}),
    )
    total_tick = total_event = 0.0
    lines = []
    for name, run, kwargs in figures:
        tick_s = _cold_figure_seconds(ENGINE_TICK, run, **kwargs)
        event_s = _cold_figure_seconds(ENGINE_EVENT, run, **kwargs)
        total_tick += tick_s
        total_event += event_s
        speedup = tick_s / event_s
        lines.append(f"{name}: tick={tick_s:.3f}s event={event_s:.3f}s speedup={speedup:.2f}x")
        # Per-figure floors, set well under the measured ratios so noisy
        # CI machines do not flake: the point is catching an engine that
        # stopped skipping, not enforcing the exact constant.
        assert speedup > (1.3 if name == "fig18" else 2.0), lines[-1]
    combined = total_tick / total_event
    lines.append(f"combined: tick={total_tick:.3f}s event={total_event:.3f}s speedup={combined:.2f}x")
    print()
    print("\n".join(lines))
    assert combined > 2.0, lines[-1]
