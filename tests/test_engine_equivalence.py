"""Bit-identity of the event (cycle-skipping) and tick simulation engines.

The event engine's whole contract is that skipped cycles are replayed in
closed form with no observable difference: for every design, scheduler,
predictor and topology, the :class:`~repro.sim.results.SimulationResult`
must equal the tick engine's field for field — including the per-channel
idle-period histograms, per-core stall accounting and predictor
statistics.  This is what keeps the content-addressed result cache valid
across engines (the cache key deliberately excludes the engine).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DRStrangeConfig
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.sim.config import (
    DESIGN_DRSTRANGE,
    DESIGN_GREEDY_IDLE,
    DESIGN_RNG_OBLIVIOUS,
    ENGINE_EVENT,
    ENGINE_TICK,
    SimulationConfig,
)
from repro import telemetry
from repro.sim import checkpoint
from repro.sim.engine import EngineProfile, EventEngine
from repro.sim.system import System
from repro.workloads.mixes import (
    ROW_OFFSET_STRIDE,
    build_traces,
    dual_core_mixes,
    four_core_group_mixes,
    multi_core_group_mixes,
)
from repro.workloads.suites import applications_by_category, representative_subset
from repro.workloads.synthetic import generate_application_trace


def run_both(traces, config: SimulationConfig):
    """Run the same traces under both engines; return both result dicts."""
    tick = System(list(traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    event = System(list(traces), dataclasses.replace(config, engine=ENGINE_EVENT)).run()
    return dataclasses.asdict(tick), dataclasses.asdict(event)


def run_event_instrumented(traces, config: SimulationConfig):
    """Run the event engine directly so its window counters are readable."""
    system = System(list(traces), dataclasses.replace(config, engine=ENGINE_EVENT))
    engine = EventEngine()
    cycle = engine.run(system)
    system.cycle = cycle
    for controller in system.controllers:
        controller.flush_idle_period()
    return dataclasses.asdict(system._build_result(cycle)), engine, system


def assert_identical(traces, config: SimulationConfig) -> None:
    tick, event = run_both(traces, config)
    # Compare field by field first for a readable failure, then in full.
    for field_name, tick_value in tick.items():
        assert event[field_name] == tick_value, f"engines diverge in {field_name!r}"
    assert event == tick


@pytest.fixture(scope="module")
def dual_core_traces():
    apps = representative_subset(4)
    mix = dual_core_mixes(apps)[0]
    mapping = AddressMapping(DRAMOrganization())
    return build_traces(mix, 12_000, seed=0, mapping=mapping)


@pytest.fixture(scope="module")
def four_core_traces():
    mix = four_core_group_mixes(workloads_per_group=1)["LLHS"][0]
    mapping = AddressMapping(DRAMOrganization())
    return build_traces(mix, 8_000, seed=1, mapping=mapping)


@pytest.mark.parametrize("design", [DESIGN_RNG_OBLIVIOUS, DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE])
@pytest.mark.parametrize("scheduler", ["fr-fcfs", "fr-fcfs+cap", "bliss"])
@pytest.mark.parametrize("predictor", ["simple", "rl", "none"])
def test_engines_identical_designs_schedulers_predictors(
    dual_core_traces, design, scheduler, predictor
):
    config = SimulationConfig(
        design=design,
        scheduler=scheduler,
        drstrange=DRStrangeConfig(predictor=predictor),
    )
    assert_identical(dual_core_traces, config)


@pytest.mark.parametrize("design", [DESIGN_RNG_OBLIVIOUS, DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE])
@pytest.mark.parametrize("channels", [1, 2])
def test_engines_identical_across_channel_counts(design, channels):
    organization = DRAMOrganization(channels=channels)
    config = SimulationConfig(design=design, organization=organization)
    apps = representative_subset(4)
    mix = dual_core_mixes(apps)[0]
    traces = build_traces(mix, 10_000, seed=3, mapping=AddressMapping(organization))
    assert_identical(traces, config)


@pytest.mark.parametrize("priority_mode", ["rng-high", "non-rng-high"])
def test_engines_identical_priority_modes(dual_core_traces, priority_mode):
    config = SimulationConfig(design=DESIGN_DRSTRANGE, priority_mode=priority_mode)
    assert_identical(dual_core_traces, config)


@pytest.mark.parametrize("design", [DESIGN_RNG_OBLIVIOUS, DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE])
def test_engines_identical_four_core(four_core_traces, design):
    assert_identical(four_core_traces, SimulationConfig(design=design))


# ------------------------------------------------------- streaming deferral
#
# The LLLS idle regime: low-intensity cores stream bubbles for long
# stretches while the memory side single-steps (RNG buffer fills, sparse
# reads).  A quiet core with no outstanding slot stays deferred through
# those single steps; these cases pin that the deferral is taken, and
# that a pause inside one materialises it exactly.


@pytest.fixture(scope="module")
def llls_traces():
    mix = four_core_group_mixes(workloads_per_group=1)["LLLS"][0]
    mapping = AddressMapping(DRAMOrganization())
    return build_traces(mix, 20_000, seed=2, mapping=mapping)


@pytest.mark.parametrize("design", [DESIGN_RNG_OBLIVIOUS, DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE])
def test_engines_identical_llls_streaming_cores(llls_traces, design):
    config = SimulationConfig(design=design)
    tick = dataclasses.asdict(
        System(list(llls_traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    system = System(list(llls_traces), dataclasses.replace(config, engine=ENGINE_EVENT))
    with telemetry.profiled():
        event = dataclasses.asdict(system.run())
    assert event == tick
    assert system.last_engine.profile.streaming_deferrals > 0, (
        "no single step left a streaming core deferred"
    )


class _DeferralCycles(EngineProfile):
    """A profile that records the cycle of every single step that left a
    core deferred (the engine sets ``system.cycle`` before each step)."""

    __slots__ = ("system", "cycles")

    def __init__(self, system) -> None:
        self.system = system
        self.cycles = []
        super().__init__()

    @property
    def streaming_deferrals(self) -> int:
        return len(self.cycles)

    @streaming_deferrals.setter
    def streaming_deferrals(self, value: int) -> None:
        if value:
            self.cycles.append(self.system.cycle)


@pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_TICK])
def test_pause_inside_a_streaming_deferral_restores_exactly(llls_traces, engine):
    """A pause the cycle after a single step that left a core deferred
    materialises the stretch at the pause; restored on either engine,
    the run finishes bit-identical to an uninterrupted one."""
    config = SimulationConfig(design=DESIGN_DRSTRANGE)
    straight = dataclasses.asdict(System(list(llls_traces), config).run())

    probe = System(list(llls_traces), config)
    engine_run = EventEngine()
    engine_run.profile = _DeferralCycles(probe)
    engine_run.run(probe)
    cycles = engine_run.profile.cycles
    assert cycles, "no single step left a streaming core deferred"
    pause = cycles[len(cycles) // 2] + 1

    paused = System(list(llls_traces), config)
    assert paused.advance(stop_at=pause) is False
    assert paused.cycle == pause
    resumed = checkpoint.restore(
        checkpoint.snapshot(paused),
        traces=list(llls_traces),
        config=dataclasses.replace(config, engine=engine),
    )
    assert dataclasses.asdict(resumed.run()) == straight


def test_engines_identical_at_cycle_limit(dual_core_traces):
    """The runaway guard clips both engines at the same cycle."""
    config = SimulationConfig(design=DESIGN_DRSTRANGE, max_cycles=1_500)
    tick, event = run_both(dual_core_traces, config)
    assert tick["total_cycles"] == 1_500
    assert event == tick


def test_component_event_bound_contracts(dual_core_traces):
    """The next_event_cycle/skip_cycles contracts the engine specialises.

    The event engine inlines parts of these for speed; this test keeps
    the public methods honest so an edit to one of them cannot silently
    diverge from what the engine actually does.
    """
    from repro.core.idleness_predictor import SimpleIdlenessPredictor
    from repro.dram.bank import Bank
    from repro.dram.timing import DRAMTiming

    system = System(list(dual_core_traces), SimulationConfig(design=DESIGN_DRSTRANGE))
    processor = system.processor

    # A freshly built processor has issuable cores: the bound is "now".
    assert processor.next_event_cycle(0) == 0

    # Predictors are purely reactive; banks expose their earliest-ready
    # cycle as max(now, ready_at).
    assert SimpleIdlenessPredictor().next_event_cycle(123) is None
    bank = Bank(0, DRAMTiming())
    bank.complete_access(50)
    assert bank.earliest_ready_cycle(10) == 50
    assert bank.earliest_ready_cycle(60) == 60

    # Processor.skip_cycles delegates to every core: advancing a core in
    # a pure bubble stream by its own quiet bound retires exactly one
    # issue width per skipped cycle.
    core = processor.cores[0]
    core.tick(0)  # prime the window with the first bubble batch
    core.tick(1)
    bound = core.next_event_cycle(2)
    if bound is not None and bound > 2:
        before = core.stats.instructions
        processor.skip_cycles(2, bound)
        slots = core.config.slots_per_bus_cycle
        assert core.stats.instructions == before + slots * (bound - 2)

    # RNGSubsystem: no deferred work means no self-generated events; a
    # deferred completion bounds the next event at its cycle.
    rng = system.rng_subsystem
    assert rng.next_event_cycle(0) is None
    rng._defer(17, lambda cycle: None)
    assert rng.next_event_cycle(0) == 17
    rng.skip_cycles(0, 10)
    assert rng.now == 9


def test_idle_period_histograms_match_per_channel(dual_core_traces):
    """Spot-check the statistic the idleness figures are built from."""
    tick, event = run_both(dual_core_traces, SimulationConfig(design=DESIGN_DRSTRANGE))
    for tick_channel, event_channel in zip(tick["channels"], event["channels"]):
        assert event_channel["idle_periods"] == tick_channel["idle_periods"]
        assert event_channel["idle_cycles"] == tick_channel["idle_cycles"]
        assert event_channel["busy_cycles"] == tick_channel["busy_cycles"]
        assert event_channel["rng_mode_cycles"] == tick_channel["rng_mode_cycles"]


# --------------------------------------------------------------- dense workloads
#
# fig18's 8-core high-memory-intensity groups are the batched-serve fast
# path's home turf: deep read queues, every core window-stalled most of
# the time.  These cases keep that path under tier-1 coverage (the fuzz
# harness and the nightly sweep are the wider nets) and additionally
# assert — via the engine's window counters — that the fast path actually
# engaged, so a silently disabled optimisation cannot pass as "identical".


@pytest.fixture(scope="module")
def dense_eight_core_traces():
    """fig18 H-group shape: eight high-intensity non-RNG applications."""
    mapping = AddressMapping(DRAMOrganization())
    pool = applications_by_category()["H"]
    return [
        generate_application_trace(
            pool[slot % len(pool)],
            8_000,
            seed=131 + slot,
            mapping=mapping,
            row_offset=slot * ROW_OFFSET_STRIDE,
        )
        for slot in range(8)
    ]


@pytest.mark.parametrize("design", [DESIGN_RNG_OBLIVIOUS, DESIGN_DRSTRANGE])
def test_engines_identical_dense_eight_core(dense_eight_core_traces, design):
    """Dense 8-core H groups are bit-identical and exercise serve windows."""
    config = SimulationConfig(design=design)
    tick = dataclasses.asdict(
        System(list(dense_eight_core_traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    event, engine, _ = run_event_instrumented(dense_eight_core_traces, config)
    assert event == tick
    assert engine.serve_windows > 0, "batched-serve fast path never engaged on a dense workload"
    assert engine.serve_window_cycles > engine.serve_windows, "windows never exceeded one cycle"


def test_serve_window_breaks_on_mid_window_wake_and_enqueue(dense_eight_core_traces):
    """The riskiest edge of the fast path: a completion inside a window
    re-activates a stalled core, whose enqueues must land *after* every
    in-window serve decision and break the window there.  In a dense run
    this happens thousands of times; bit-identity plus engaged-and-bounded
    window counters pin the behaviour."""
    config = SimulationConfig(design=DESIGN_RNG_OBLIVIOUS)
    tick = dataclasses.asdict(
        System(list(dense_eight_core_traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    event, engine, _ = run_event_instrumented(dense_eight_core_traces, config)
    assert event == tick
    assert engine.serve_windows > 0
    # Wakes/enqueues must bound windows well below the whole run: a single
    # run-length window would mean mid-window events were ignored.
    assert engine.serve_window_cycles < tick["total_cycles"]
    average_window = engine.serve_window_cycles / engine.serve_windows
    assert average_window < 30, f"windows implausibly long ({average_window:.1f} cycles)"


def test_serve_window_breaks_on_bliss_clearing_boundary(dense_eight_core_traces, monkeypatch):
    """A BLISS clearing boundary inside a would-be window must break it.

    The clearing interval is shrunk so boundaries land inside the dense
    serving phase; the scheduler's clear counter proves boundaries fired
    while windows were forming, and bit-identity proves none was jumped.
    """
    import functools

    import repro.sim.system as system_module
    from repro.sched.bliss import BLISS

    monkeypatch.setattr(
        system_module, "BLISS", functools.partial(BLISS, clearing_interval=400)
    )
    config = SimulationConfig(design=DESIGN_RNG_OBLIVIOUS, scheduler="bliss")
    tick = dataclasses.asdict(
        System(list(dense_eight_core_traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    event, engine, system = run_event_instrumented(dense_eight_core_traces, config)
    assert event == tick
    assert engine.serve_windows > 0
    assert any(
        controller.scheduler.clear_events > 0 for controller in system.controllers
    ), "no BLISS clearing boundary fired; the regression scenario did not materialise"


def test_serve_window_breaks_on_rng_buffer_threshold_events(dense_eight_core_traces):
    """RNG traffic (buffer serves, fills, mode switches) inside a dense
    DR-STRaNGe run must bound or break serve windows, not be replayed by
    them."""
    mapping = AddressMapping(DRAMOrganization())
    mix = multi_core_group_mixes(8, workloads_per_group=1)["H"][0]
    traces = build_traces(mix, 8_000, seed=5, mapping=mapping)
    config = SimulationConfig(design=DESIGN_DRSTRANGE)
    tick = dataclasses.asdict(
        System(list(traces), dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    event, engine, _ = run_event_instrumented(traces, config)
    assert event == tick
    assert tick["rng_requests"] > 0, "the mix produced no RNG traffic"
    assert engine.serve_windows > 0, "windows never formed around the RNG activity"


# Minimal fuzz-found counterexamples, pinned as regression tests (both
# reproduced latent engine divergences fixed in the same change that
# added them; tests/test_engine_fuzz.py holds the generator that found
# them and the ``run_case`` helper these reuse).


def _run_fuzz_case_both_engines(case):
    from test_engine_fuzz import materialize

    traces, config = materialize(case)
    tick = dataclasses.asdict(
        System(traces, dataclasses.replace(config, engine=ENGINE_TICK)).run()
    )
    traces, config = materialize(case)
    event = dataclasses.asdict(
        System(traces, dataclasses.replace(config, engine=ENGINE_EVENT)).run()
    )
    return tick, event


def test_final_cycle_finish_materialised_by_mixed_stretch():
    """A finish materialised *for the current, unprocessed cycle* must not
    end the run one cycle early.

    The mixed-stretch re-examination closes a quiet core's stretch through
    the current cycle when its event bound is the next cycle; when that
    materialisation set the last ``finish_cycle``, the engine used to
    break with ``cycle == finish`` — dropping the reference engine's
    final cycle from the memory side's accounting (one missing RNG-mode
    cycle, ``total_cycles`` off by one).  Fuzz-found (seed 77, case 38),
    shrunk and pinned.
    """
    case = {
        "seed": 1337203337, "index": 38, "instructions": 2500,
        "slots": [
            {"kind": "rng", "throughput_mbps": 5120.0},
            {"kind": "app", "mpki": 39.76, "row_locality": 0.704,
             "write_fraction": 0.005, "footprint_rows": 64},
        ],
        "design": "dr-strange", "scheduler": "fr-fcfs", "scheduler_cap": 2,
        "predictor": "rl", "buffer_entries": 4, "low_utilization_threshold": 2,
        "period_threshold": 10, "channels": 1, "banks_per_rank": 8,
        "read_queue_capacity": 32, "write_queue_capacity": 32,
        "write_drain_high": 16, "issue_lookahead": 0, "backend_latency": 10,
        "rng_mode_switch_penalty": 12, "issue_width": 1, "window_size": 8,
        "clock_ratio": 1, "priority_mode": "equal", "max_cycles": 5_000_000,
    }
    tick, event = _run_fuzz_case_both_engines(case)
    assert event == tick


def test_deferred_idle_segment_uses_open_time_buffer_state():
    """A deferred idle segment must replay the fill policy's predictor
    checks under the buffer state of the segment's *open*, not its close.

    A demand take elsewhere can drain the shared buffer at the very cycle
    an idle segment closes; the close used to consult the drained state
    and record a pending idleness prediction the reference ticks (which
    all saw a full buffer) never made — one extra scored prediction.
    Fuzz-found (seed 77, case 53), shrunk and pinned.
    """
    case = {
        "seed": 1178710291, "index": 53, "instructions": 1500,
        "slots": [
            {"kind": "app", "mpki": 1.742, "row_locality": 0.896,
             "write_fraction": 0.245, "footprint_rows": 256},
            {"kind": "rng", "throughput_mbps": 5120.0},
            {"kind": "app", "mpki": 22.827, "row_locality": 0.304,
             "write_fraction": 0.275, "footprint_rows": 64},
            {"kind": "app", "mpki": 2.393, "row_locality": 0.932,
             "write_fraction": 0.317, "footprint_rows": 8},
        ],
        "design": "dr-strange", "scheduler": "bliss", "scheduler_cap": 16,
        "predictor": "simple", "buffer_entries": 4,
        "low_utilization_threshold": 2, "period_threshold": 40,
        "channels": 4, "banks_per_rank": 4, "read_queue_capacity": 2,
        "write_queue_capacity": 32, "write_drain_high": 2,
        "issue_lookahead": 2, "backend_latency": 4,
        "rng_mode_switch_penalty": 12, "issue_width": 2, "window_size": 128,
        "clock_ratio": 1, "priority_mode": "equal", "max_cycles": 5_000_000,
    }
    tick, event = _run_fuzz_case_both_engines(case)
    assert event == tick


def test_core_with_outstanding_slot_materialises_before_single_step():
    """Only a streaming core with *no* outstanding slot may stay deferred
    through a memory single step.  A quiet core whose window fills
    behind an outstanding read changes course the cycle that read
    completes; deferring it through the completing step kept the stale
    stretch (one core, ``total_cycles`` off).  Found by the fuzz harness
    (seed 0, case 31) against a deferral without the outstanding-slot
    test, shrunk and pinned.
    """
    case = {
        "text_roundtrip": False, "seed": 759199420, "index": 31, "instructions": 300,
        "slots": [
            {"kind": "app", "mpki": 5.202, "row_locality": 0.64,
             "write_fraction": 0.365, "footprint_rows": 64},
        ],
        "design": "rng-oblivious", "scheduler": "fr-fcfs", "scheduler_cap": 4,
        "predictor": "none", "buffer_entries": 0, "low_utilization_threshold": 0,
        "period_threshold": 10, "channels": 1, "banks_per_rank": 8,
        "read_queue_capacity": 32, "write_queue_capacity": 32,
        "write_drain_high": 16, "issue_lookahead": 8, "backend_latency": 10,
        "rng_mode_switch_penalty": 12, "issue_width": 3, "window_size": 128,
        "clock_ratio": 1, "priority_mode": "equal", "max_cycles": 5_000_000,
    }
    tick, event = _run_fuzz_case_both_engines(case)
    assert event == tick
