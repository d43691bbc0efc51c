"""Differential fuzzing of the tick and event simulation engines.

The structured equivalence suite (:mod:`tests.test_engine_equivalence`)
pins the known-interesting corners; this harness defends the corners
nobody thought of.  A seeded generator draws hundreds of random systems —
core counts, memory intensities, RNG throughputs, schedulers, predictors,
buffer sizes, queue capacities, channel topologies, issue lookaheads,
cycle limits — and for every generated system asserts that

* the reference :class:`~repro.sim.engine.TickEngine` and the
  cycle-skipping :class:`~repro.sim.engine.EventEngine` (including its
  batched-serve fast path) produce **bit-identical**
  :class:`~repro.sim.results.SimulationResult`s, and
* the content-addressed cache key of the simulation point is stable:
  identical across engines (the key deliberately excludes the engine) and
  across recomputation, with a periodic store round-trip proving a cached
  result deserialises bit-identically, and
* **checkpoint/restore is invisible**: pausing each engine at a
  case-chosen random cycle, snapshotting the kernel
  (:mod:`repro.sim.checkpoint`), restoring from the bytes and finishing
  produces results bit-identical to the uninterrupted run — and the
  snapshot's content digest is stable across a restore.  Every case
  also proves *cross-engine* resumability: snapshot under ``event``,
  resume under ``tick``, byte-identical.  A slice of the cases
  round-trips the snapshot through an on-disk
  :class:`~repro.orchestration.cache.CheckpointStore` in a per-case
  directory (isolated so no state leaks between cases).

On failure the harness *shrinks* the case: it greedily applies
simplifying transformations (drop a core, halve the instruction count,
fall back to the default scheduler/predictor/design/topology, drop the
checkpoint axis…) while the failure reproduces, and reports the minimal
case as a parameter dict plus the checkpoint cycle it paused at.
Paste that dict into :func:`run_case` to replay it under a debugger.

Knobs (environment variables):

``REPRO_FUZZ_SEED``
    Master seed of the generator (default 0).  CI pins it per schedule so
    nightly runs explore fresh cases while a failure stays reproducible.
``REPRO_FUZZ_CASES``
    Number of generated systems (default 200).  The per-push CI slice
    runs 50; nightly runs the full budget.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.controller.config import ControllerConfig
from repro.core.config import DRStrangeConfig
from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.orchestration.cache import CheckpointStore, ResultCache
from repro.orchestration.keys import point_key
from repro.sim import checkpoint
from repro.sim.config import ENGINE_EVENT, ENGINE_TICK, SimulationConfig
from repro.sim.system import System
from repro.workloads.rng_benchmark import generate_rng_trace
from repro.workloads.spec import ApplicationSpec, RNGBenchmarkSpec
from repro.workloads.synthetic import generate_application_trace

MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
NUM_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))

#: Upper bound on shrink attempts so a pathological failure cannot stall
#: the suite; the counter-example is still reported, just less minimal.
MAX_SHRINK_EVALUATIONS = 80


# ----------------------------------------------------------------- generation


#: Adversarial entry shapes for the "edge" slot kind: traces a workload
#: generator would never emit but the text format and the compiled
#: columns must both replay exactly (zero-bubble back-to-back reads,
#: write-only stretches, pure RNG bursts).
EDGE_PATTERNS = ("zero-bubble-reads", "write-only", "rng-only", "mixed-extremes")


def build_case(rng: random.Random, index: int) -> dict:
    """Draw one random system description (everything a replay needs)."""
    num_slots = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
    slots = []
    for _ in range(num_slots):
        draw = rng.random()
        if draw < 0.4:
            slots.append(
                {
                    "kind": "rng",
                    "throughput_mbps": rng.choice((640.0, 1280.0, 2560.0, 5120.0)),
                }
            )
        elif draw < 0.5:
            slots.append({"kind": "edge", "pattern": rng.choice(EDGE_PATTERNS)})
        else:
            slots.append(
                {
                    "kind": "app",
                    "mpki": round(rng.choice((0.5, 2.0, 6.0, 15.0, 30.0)) * rng.uniform(0.5, 1.5), 3),
                    "row_locality": round(rng.uniform(0.1, 0.95), 3),
                    "write_fraction": round(rng.uniform(0.0, 0.45), 3),
                    "footprint_rows": rng.choice((8, 64, 256)),
                }
            )
    return {
        # Round-trip every trace through the text serialisation before
        # precompilation for a slice of the cases: parse(format(t)) must
        # compile to the same columns and replay bit-identically.
        "text_roundtrip": rng.random() < 0.25,
        "seed": rng.randrange(2**31),
        "index": index,
        "instructions": rng.choice((600, 1000, 1500, 2500)),
        "slots": slots,
        "design": rng.choice(("rng-oblivious", "greedy-idle", "dr-strange", "dr-strange")),
        "scheduler": rng.choice(("fr-fcfs", "fr-fcfs+cap", "bliss")),
        "scheduler_cap": rng.choice((2, 4, 16)),
        "predictor": rng.choice(("none", "simple", "rl")),
        "buffer_entries": rng.choice((0, 1, 4, 16)),
        "low_utilization_threshold": rng.choice((0, 2, 4)),
        "period_threshold": rng.choice((10, 40)),
        "channels": rng.choice((1, 2, 4)),
        "banks_per_rank": rng.choice((4, 8)),
        "read_queue_capacity": rng.choice((2, 8, 32)),
        "write_queue_capacity": rng.choice((2, 8, 32)),
        "write_drain_high": rng.choice((2, 8, 16)),
        "issue_lookahead": rng.choice((0, 2, 8)),
        "backend_latency": rng.choice((0, 4, 10)),
        "rng_mode_switch_penalty": rng.choice((0, 6, 12)),
        "issue_width": rng.choice((1, 2, 3)),
        "window_size": rng.choice((8, 32, 128)),
        "clock_ratio": rng.choice((1, 3, 5)),
        "priority_mode": rng.choice(("equal", "rng-high", "non-rng-high")),
        "max_cycles": rng.choice((1_500, 40_000, 5_000_000)),
        # Where the checkpoint axis pauses, as a fraction of the straight
        # run's final cycle (the absolute cycle count varies per case).
        "checkpoint_fraction": round(rng.uniform(0.05, 0.95), 3),
    }


def _edge_trace(pattern: str, instructions: int, seed: int, row_offset: int) -> Trace:
    """Build a trace of adversarial entries the generators never emit.

    Edge traces are nearly bubble-free, so every "instruction" is a
    memory or RNG request — orders of magnitude more simulated work per
    instruction than a generated application.  The adversarial body is
    therefore capped, and a long pure-bubble tail closes the trace: the
    shapes are what matter, and the tail keeps the wrapped replay (a
    finished core keeps executing for interference) from flooding the
    memory system every cycle for the co-runners' whole lifetime, which
    made single cases blow the fuzz budget.
    """
    instructions = min(instructions, 150)
    rng = random.Random(seed)
    entries = []
    count = 0
    base = row_offset * 8192
    index = 0
    while count < instructions:
        address = base + (index % 97) * 64
        if pattern == "zero-bubble-reads":
            entry = TraceEntry(bubbles=0, address=address)
        elif pattern == "write-only":
            # Pure writebacks carry no instructions; a sparse bubble
            # keeps the trace's instruction count positive (a core needs
            # a positive retirement target).
            if index % 8 == 7:
                entry = TraceEntry(bubbles=1, write_address=address)
            else:
                entry = TraceEntry(bubbles=0, write_address=address)
        elif pattern == "rng-only":
            entry = TraceEntry(bubbles=0, rng_bits=64)
        else:  # mixed-extremes: every field set, including all-at-once rows
            entry = TraceEntry(
                bubbles=rng.choice((0, 0, 1, 1000)),
                address=address if rng.random() < 0.5 else None,
                write_address=address + 64 if rng.random() < 0.5 else None,
                rng_bits=64 if rng.random() < 0.3 else 0,
            )
        entries.append(entry)
        count += entry.instruction_count
        index += 1
        if index > 50 * instructions + 100:  # pragma: no cover - safety bound
            break
    entries.append(TraceEntry(bubbles=max(1000, 4 * instructions)))
    return Trace(entries, name=f"fuzz-edge-{pattern}-{seed}", metadata={"seed": seed})


def text_roundtrip(trace: Trace) -> Trace:
    """Round-trip a trace through the text format, keeping its identity."""
    return Trace.parse(trace.format(), name=trace.name, metadata=trace.metadata)


def materialize(case: dict):
    """Build the traces and (engine-less) config a case describes."""
    drain_high = min(case["write_drain_high"], case["write_queue_capacity"])
    config = SimulationConfig(
        design=case["design"],
        scheduler=case["scheduler"],
        scheduler_cap=case["scheduler_cap"],
        priority_mode=case["priority_mode"],
        drstrange=DRStrangeConfig(
            predictor=case["predictor"],
            buffer_entries=case["buffer_entries"],
            low_utilization_threshold=case["low_utilization_threshold"],
            period_threshold=case["period_threshold"],
        ),
        controller=ControllerConfig(
            read_queue_capacity=case["read_queue_capacity"],
            write_queue_capacity=case["write_queue_capacity"],
            write_drain_high=drain_high,
            write_drain_low=max(0, min(ControllerConfig.write_drain_low, drain_high - 1)),
            issue_lookahead=case["issue_lookahead"],
            backend_latency=case["backend_latency"],
            rng_mode_switch_penalty=case["rng_mode_switch_penalty"],
        ),
        core=CoreConfig(
            issue_width=case["issue_width"],
            window_size=case["window_size"],
            clock_ratio=case["clock_ratio"],
        ),
        organization=DRAMOrganization(
            channels=case["channels"], banks_per_rank=case["banks_per_rank"]
        ),
        max_cycles=case["max_cycles"],
    )
    mapping = AddressMapping(config.organization)
    traces = []
    for slot_id, slot in enumerate(case["slots"]):
        seed = case["seed"] + slot_id * 7919
        row_offset = slot_id * 4096
        if slot["kind"] == "edge":
            traces.append(_edge_trace(slot["pattern"], case["instructions"], seed, slot_id))
        elif slot["kind"] == "rng":
            spec = RNGBenchmarkSpec(
                f"fuzz-rng-{slot_id}", throughput_mbps=slot["throughput_mbps"]
            )
            traces.append(
                generate_rng_trace(
                    spec, case["instructions"], seed=seed, mapping=mapping, row_offset=row_offset
                )
            )
        else:
            spec = ApplicationSpec(
                f"fuzz-app-{slot_id}",
                mpki=slot["mpki"],
                row_locality=slot["row_locality"],
                write_fraction=slot["write_fraction"],
                footprint_rows=slot["footprint_rows"],
            )
            traces.append(
                generate_application_trace(
                    spec, case["instructions"], seed=seed, mapping=mapping, row_offset=row_offset
                )
            )
    if case.get("text_roundtrip"):
        traces = [text_roundtrip(trace) for trace in traces]
    return traces, config


def run_case(case: dict, engine: str):
    """Replay one fuzz case under ``engine`` and return its result."""
    traces, config = materialize(case)
    return System(traces, dataclasses.replace(config, engine=engine)).run()


# ----------------------------------------------------------------- checking


def check_case(
    case: dict, store: ResultCache | None = None, checkpoint_dir=None
):
    """Return a failure description for ``case``, or ``None`` if it holds.

    ``checkpoint_dir`` (a per-case directory — never shared, so no state
    leaks between cases) additionally round-trips the mid-run snapshot
    through an on-disk :class:`CheckpointStore` instead of raw bytes.
    """
    traces, config = materialize(case)
    tick_config = dataclasses.replace(config, engine=ENGINE_TICK)
    event_config = dataclasses.replace(config, engine=ENGINE_EVENT)

    if case.get("text_roundtrip"):
        # The round-tripped traces must precompile to the same columns as
        # the originals: parse(format(t)) feeding the replay kernel is
        # exactly how a saved trace re-enters a simulation, so a columns
        # mismatch would silently change every replayed request.
        plain_traces, _ = materialize({**case, "text_roundtrip": False})
        for plain, tripped in zip(plain_traces, traces):
            if plain.columns() != tripped.columns():
                return (
                    f"trace {plain.name!r}: text round-trip compiles to different "
                    "columns than the original entries"
                )

    key_tick = point_key(traces, tick_config)
    key_event = point_key(traces, event_config)
    if key_tick != key_event:
        return "cache key differs between engines (engine leaked into the fingerprint)"
    if key_tick != point_key(traces, tick_config):
        return "cache key is not stable across recomputation"

    tick = dataclasses.asdict(System(list(traces), tick_config).run())
    event = dataclasses.asdict(System(list(traces), event_config).run())
    for field_name, tick_value in tick.items():
        if event[field_name] != tick_value:
            return f"engines diverge in {field_name!r}"
    if event != tick:
        return "engines diverge"

    fraction = case.get("checkpoint_fraction")
    if fraction is not None:
        # Checkpoint axis: pause each engine at the case's random cycle,
        # snapshot, restore, finish — must be bit-identical to the
        # straight run, and the snapshot digest must survive a restore.
        stop_at = max(1, int(tick["total_cycles"] * fraction))
        for engine_name, engine_config in (
            (ENGINE_TICK, tick_config),
            (ENGINE_EVENT, event_config),
        ):
            paused = System(list(traces), engine_config)
            paused.advance(stop_at=stop_at)
            if checkpoint_dir is not None:
                ckpt_store = CheckpointStore(checkpoint_dir)
                ckpt_store.put(traces, engine_config, paused)
                resumed = ckpt_store.resume(traces, engine_config)
                if resumed is None:
                    return (
                        f"{engine_name}: checkpoint at cycle {stop_at} missed "
                        "its own store on resume"
                    )
            else:
                data = checkpoint.snapshot(paused)
                resumed = checkpoint.restore(data)
                if checkpoint.content_digest(checkpoint.snapshot(resumed)) != (
                    checkpoint.content_digest(data)
                ):
                    return (
                        f"{engine_name}: snapshot digest changes across a "
                        f"restore at cycle {stop_at}"
                    )
            while not resumed.advance():
                pass
            if dataclasses.asdict(resumed.finalize()) != tick:
                return (
                    f"{engine_name}: checkpoint/restore at cycle {stop_at} "
                    "diverges from the uninterrupted run"
                )

        # Cross-engine resumability: a snapshot taken under the event
        # engine must finish bit-identically under the reference engine
        # (checkpoints are engine-agnostic).
        paused = System(list(traces), event_config)
        paused.advance(stop_at=stop_at)
        data = checkpoint.snapshot(paused)
        resumed = checkpoint.restore(data, traces=list(traces), config=tick_config)
        while not resumed.advance():
            pass
        if dataclasses.asdict(resumed.finalize()) != tick:
            return (
                f"snapshot under event at cycle {stop_at}, resumed "
                "under tick, diverges from the uninterrupted run"
            )

    if store is not None:
        # Round-trip through the persistent store: a cached result must
        # deserialise bit-identically, otherwise the engine-agnostic
        # cache would paper over divergence.
        from repro.orchestration.cache import result_from_dict, result_to_dict

        rebuilt = dataclasses.asdict(
            result_from_dict(result_to_dict(System(list(traces), event_config).run()))
        )
        if rebuilt != tick:
            return "result does not survive a cache round-trip bit-identically"
    return None


# ----------------------------------------------------------------- shrinking


def _shrink_candidates(case: dict):
    """Yield progressively simpler variants of ``case`` (one change each)."""
    if len(case["slots"]) > 1:
        for drop in range(len(case["slots"])):
            slimmer = dict(case)
            slimmer["slots"] = [s for i, s in enumerate(case["slots"]) if i != drop]
            yield slimmer
    if case["instructions"] > 300:
        yield {**case, "instructions": max(300, case["instructions"] // 2)}
    if case.get("text_roundtrip"):
        yield {**case, "text_roundtrip": False}
    if case.get("checkpoint_fraction") is not None:
        # Dropping the axis tells apart an engine bug (still fails) from
        # a checkpoint bug (stops failing); then try the extremes.
        yield {**case, "checkpoint_fraction": None}
        for pinned in (0.05, 0.5):
            if case["checkpoint_fraction"] != pinned:
                yield {**case, "checkpoint_fraction": pinned}
    defaults = {
        "design": "rng-oblivious",
        "scheduler": "fr-fcfs",
        "predictor": "none",
        "priority_mode": "equal",
        "channels": 1,
        "banks_per_rank": 8,
        "buffer_entries": 0,
        "low_utilization_threshold": 0,
        "read_queue_capacity": 32,
        "write_queue_capacity": 32,
        "write_drain_high": 16,
        "issue_lookahead": 8,
        "backend_latency": 10,
        "rng_mode_switch_penalty": 12,
        "issue_width": 3,
        "window_size": 128,
        "clock_ratio": 5,
        "max_cycles": 5_000_000,
    }
    for field_name, default in defaults.items():
        if case[field_name] != default:
            yield {**case, field_name: default}


def shrink(case: dict, failure: str) -> dict:
    """Greedily minimise ``case`` while it still reproduces a failure."""
    evaluations = 0
    minimal = case
    progress = True
    while progress and evaluations < MAX_SHRINK_EVALUATIONS:
        progress = False
        for candidate in _shrink_candidates(minimal):
            evaluations += 1
            if evaluations >= MAX_SHRINK_EVALUATIONS:
                break
            try:
                still_failing = check_case(candidate) is not None
            except Exception:
                # A shrink step that crashes outright is its own (even
                # better) reproducer.
                still_failing = True
            if still_failing:
                minimal = candidate
                progress = True
                break
    return minimal


# ----------------------------------------------------------------- the test


def test_fuzz_tick_event_identity(tmp_path):
    """Hundreds of random systems: tick ≡ event, cache keys hold, and
    checkpoint/restore at a random cycle is invisible in the results."""
    import shutil

    rng = random.Random(MASTER_SEED)
    store = ResultCache(tmp_path / "fuzz-cache")
    for index in range(NUM_CASES):
        case = build_case(rng, index)
        # Each case that exercises the on-disk checkpoint store gets its
        # own directory, removed afterwards: a stale snapshot leaking
        # into the next case's resume would mask (or fake) divergence.
        checkpoint_dir = tmp_path / "ckpt" / f"case-{index}" if index % 10 == 0 else None
        try:
            failure = check_case(
                case,
                store=store if index % 20 == 0 else None,
                checkpoint_dir=checkpoint_dir,
            )
        finally:
            if checkpoint_dir is not None:
                shutil.rmtree(checkpoint_dir, ignore_errors=True)
        if failure is not None:
            minimal = shrink(case, failure)
            minimal_failure = None
            try:
                minimal_failure = check_case(minimal)
            except Exception as error:  # pragma: no cover - diagnostics only
                minimal_failure = f"crash: {error!r}"
            checkpoint_cycle = (
                "(no checkpoint)"
                if minimal.get("checkpoint_fraction") is None
                else f"checkpoint_fraction={minimal['checkpoint_fraction']}"
            )
            pytest.fail(
                f"fuzz case {index} (REPRO_FUZZ_SEED={MASTER_SEED}) failed: {failure}\n"
                f"minimal reproducing case ({minimal_failure}, {checkpoint_cycle}):\n"
                f"{minimal!r}\n"
                "replay with tests.test_engine_fuzz.run_case(case, 'tick'/'event')"
            )


def test_fuzz_generator_is_deterministic():
    """Same master seed ⇒ same cases (failures must be reproducible)."""
    first = [build_case(random.Random(MASTER_SEED), i) for i in range(5)]
    second = [build_case(random.Random(MASTER_SEED), i) for i in range(5)]
    assert first == second


def test_fuzz_case_runs_all_engines():
    """The replay helper exercises a full case end to end under both
    engines."""
    case = build_case(random.Random(1234), 0)
    tick = run_case(case, ENGINE_TICK)
    event = run_case(case, ENGINE_EVENT)
    assert dataclasses.asdict(tick) == dataclasses.asdict(event)
