"""Kernel workloads: back-to-back ``System(traces, config).run()`` calls.

``dense-h8``  one 8-core Table-3 H-group mix (7 high-intensity apps plus
              the 5 Gb/s RNG benchmark), 10k instructions per core: deep
              queues keep the controller, scheduler and DRAM busy and
              drive the batched-serve path.
``idle-l4``   one 4-core LLLS mix (3 low-intensity apps plus the RNG
              benchmark), 200k instructions per core: the paper's regime,
              where channels sit mostly idle and the work falls on
              event-engine skipping, bubble streaming and buffer fills.

Both run under ``drstrange_config()`` on the default engine.  The seed
picks a *panel* of trace sets (trace seeds ``seed * panel + j``) for the
fixed mix.  Every trace draws a memory-intensity phase factor for each
twelfth of its length, so simulation time differs from one trace set to
the next by ~20% (quartile distance over median) at any trace length; a
wide panel of short trace sets averages that out (24 sets: ~4%).  A run
simulates the whole panel, round after round for ``--seconds``, and
keeps each trace set's fastest repetition: the host switches between a
fast and a slow speed every 10-60 s, and the fastest repetition of an
input is what repeats from run to run.

One operation is one simulation, built from fresh trace objects, so its
build includes the trace precompile (``setup_s``).  After it, a second
``System`` is built from the same, now precompiled traces and timed on
its own: the *warm* operation is that build plus the simulation just
timed, which it would repeat bit for bit.

Output check: every simulation's canonical digest (sha256 of the
sorted-key JSON of ``result_to_dict``) must equal its trace set's
reference digest.  For the default and held-out seeds the references of
the whole panel are recorded in ``reference.json`` from the ``tick``
engine.  For any other seed, one trace set per run is checked against the
``tick`` engine, computed before timing, and every other trace set's
first result becomes its reference: each later simulation of that set
must reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from time import perf_counter
from typing import Dict, List, Optional

import common
import layers
from tracing import SpanRecorder

#: Instructions per core and trace sets per seed.  A simulation takes
#: ~0.2 s (dense-h8) or ~0.06 s (idle-l4), so a 25 s run repeats every
#: trace set at least four times.
INSTRUCTIONS = {"dense-h8": 10_000, "idle-l4": 200_000}
PANEL = {"dense-h8": 24, "idle-l4": 36}

#: Trace sets simulated by a traced run (it records every call).
TRACED_SETS = 4

#: Seed of the Table-3 mix generator; the mix itself is fixed.
MIX_SEED = 0


def params(workload: str) -> Dict:
    """Everything the inputs depend on besides the seed (recorded with
    the reference digests, so a stale reference is detected)."""
    return {
        "instructions": INSTRUCTIONS[workload],
        "panel": PANEL[workload],
        "mix_seed": MIX_SEED,
    }


def make_panel(workload: str, seed: int) -> List[list]:
    """The trace sets of ``seed`` (the benchmark's inputs)."""
    from repro.workloads.mixes import build_traces, four_core_group_mixes, multi_core_group_mixes

    if workload == "dense-h8":
        mix = multi_core_group_mixes(8, seed=MIX_SEED)["H"][0]
    else:
        mix = four_core_group_mixes(seed=MIX_SEED)["LLLS"][0]
    panel = PANEL[workload]
    return [
        build_traces(mix, INSTRUCTIONS[workload], seed * panel + member)
        for member in range(panel)
    ]


def fresh(traces: list) -> list:
    """New trace objects with the same entries and no precompiled columns."""
    from repro.cpu.trace import Trace

    return [Trace(trace.entries, name=trace.name, metadata=trace.metadata) for trace in traces]


def digest(result) -> str:
    from repro.orchestration.cache import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tick_digest(traces: list) -> str:
    """Reference digest from the ``tick`` engine, the executable spec."""
    from repro.sim.config import drstrange_config
    from repro.sim.system import System

    return digest(System(fresh(traces), drstrange_config(engine="tick")).run())


def reference_digests(workload: str, seed: int, panel: List[list]) -> List[Optional[str]]:
    """Per trace set: its reference digest, or ``None`` where the first
    result of the run will serve (see the module docstring)."""
    recorded = common.load_reference().get("kernel", {}).get(workload, {})
    if recorded.get("params") == params(workload) and str(seed) in recorded.get("digests", {}):
        return list(recorded["digests"][str(seed)][: len(panel)])
    expected: List[Optional[str]] = [None] * len(panel)
    checked = seed % len(panel)
    expected[checked] = tick_digest(panel[checked])
    return expected


def check(outcome: common.Outcome, expected: List[Optional[str]], member: int, result) -> None:
    got = digest(result)
    if expected[member] is None:
        expected[member] = got
    outcome.check(got == expected[member], f"trace set {member} digest {got[:12]}")


def build(traces: list):
    """``(seconds, system)``: the ``System`` for one simulation."""
    from repro.sim.config import drstrange_config
    from repro.sim.system import System

    config = drstrange_config()
    start = perf_counter()
    system = System(traces, config)
    return perf_counter() - start, system


def simulate(traces: list):
    """One operation: ``(build seconds, run seconds, result)``."""
    build_seconds, system = build(traces)
    start = perf_counter()
    result = system.run()
    return build_seconds, perf_counter() - start, result


def run(workload: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    panel = make_panel(workload, seed)
    if trace:
        panel = panel[:TRACED_SETS]
    expected = reference_digests(workload, seed, panel)
    outcome = common.Outcome()
    if trace:
        _traced(panel, expected, outcome)
        return outcome

    # Per trace set: cold builds, warm builds and simulations (seconds).
    cold_builds: List[List[float]] = [[] for _ in panel]
    warm_builds: List[List[float]] = [[] for _ in panel]
    runs: List[List[float]] = [[] for _ in panel]
    instructions = [0] * len(panel)
    host = common.HostSpeed()
    deadline = perf_counter() + seconds

    def done() -> bool:
        return perf_counter() >= deadline and (all(runs) or outcome.failed > 0)

    # Rounds over the panel, so every trace set's repetitions are spread
    # over the run; the run ends once every set has been simulated.
    while not done():
        for member, traces in enumerate(panel):
            if done():
                break
            host.sample()
            unseen = fresh(traces)
            with outcome.attempt():
                build_s, run_seconds, result = simulate(unseen)
                check(outcome, expected, member, result)
                instructions[member] = sum(core.instructions for core in result.cores)
                cold_builds[member].append(build_s)
                runs[member].append(run_seconds)
                warm_builds[member].append(build(unseen)[0])

    if not all(runs):
        raise RuntimeError("a trace set never simulated without failing")
    host.sample(force=True)
    fastest_runs = [min(samples) for samples in runs]
    outcome.rescale({
        "sim_kips": sum(instructions) / sum(fastest_runs) / 1000.0,
        "cold_s": statistics.fmean(
            min(b + r for b, r in zip(builds, samples))
            for builds, samples in zip(cold_builds, runs)
        ),
        "warm_s": statistics.fmean(
            min(builds) + fastest for builds, fastest in zip(warm_builds, fastest_runs)
        ),
        "setup_s": statistics.fmean(map(min, cold_builds)),
    }, host)
    return outcome


def _traced(panel: List[list], expected: List[Optional[str]], outcome: common.Outcome) -> None:
    """One untraced and one traced cold pass over the first trace sets."""
    from repro import telemetry

    untraced = 0.0
    for member, traces in enumerate(panel):
        with outcome.attempt():
            build_s, run_seconds, result = simulate(fresh(traces))
            check(outcome, expected, member, result)
            untraced += build_s + run_seconds

    recorder = SpanRecorder()
    traced = 0.0
    layers.install(recorder, kernel=True)
    try:
        with telemetry.profiled():
            for member, traces in enumerate(panel):
                recorder.run_id = member
                with outcome.attempt():
                    build_s, run_seconds, result = simulate(fresh(traces))
                    traced += build_s + run_seconds
                    check(outcome, expected, member, result)
    finally:
        recorder.uninstall()
    outcome.recorder = recorder
    outcome.metrics = layers.per_layer_metrics(
        recorder, main_wall_s=traced, untraced_s=untraced
    )
