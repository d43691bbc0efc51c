"""Tests for the per-pass trace memo (``repro.workloads.memo``)."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.cpu.trace import Trace
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.orchestration.keys import canonical_json, point_key, trace_fingerprint
from repro.orchestration.sweep import InMemoryResultStore, replay, stub_result
from repro.sim import runner as sim_runner
from repro.sim.config import drstrange_config
from repro.workloads import ApplicationSpec, RNGBenchmarkSpec, rng_benchmark, synthetic
from repro.workloads.memo import sweep_pass
from repro.workloads.rng_benchmark import generate_rng_trace
from repro.workloads.synthetic import generate_application_trace

#: Figures whose traces repeat within a figure (fig1, fig2: one mix under
#: several configs), across figures (fig6 and fig9 share mixes) and
#: outside ``build_traces`` (fig5 calls the generator directly).
FIGURES = ("fig1", "fig2", "fig5", "fig6", "fig9")
INSTRUCTIONS = 2_000

APP = ApplicationSpec("memo-app", mpki=20.0)


@pytest.fixture
def stub_simulations(monkeypatch):
    """Answer every simulation the replay misses with a stub result, and
    record the traces it was handed."""
    seen = []

    def simulate(traces, config):
        seen.extend(traces)
        return stub_result(traces, config)

    monkeypatch.setattr(sim_runner, "simulate_direct", simulate)
    return seen


def fingerprint(trace: Trace) -> str:
    return canonical_json(trace_fingerprint(trace))


def test_replay_generates_each_distinct_trace_once(monkeypatch, stub_simulations):
    generated = []

    class CountingTrace(Trace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            generated.append(fingerprint(self))

    # Each real generator execution builds its Trace from its module's global.
    monkeypatch.setattr(synthetic, "Trace", CountingTrace)
    monkeypatch.setattr(rng_benchmark, "Trace", CountingTrace)
    _, backend = replay(FIGURES, InMemoryResultStore(), instructions=INSTRUCTIONS)
    assert backend.points
    assert len(generated) == len(set(generated))


def test_equal_calls_share_one_trace_only_inside_a_pass():
    outside = [generate_application_trace(APP, INSTRUCTIONS, seed=4) for _ in range(2)]
    assert outside[0] is not outside[1]
    assert fingerprint(outside[0]) == fingerprint(outside[1])
    with sweep_pass():
        first = generate_application_trace(APP, INSTRUCTIONS, seed=4)
        with sweep_pass():  # a nested pass reuses the outer memo
            second = generate_application_trace(APP, INSTRUCTIONS, seed=4)
        assert generate_application_trace(APP, INSTRUCTIONS, seed=5) is not first
    assert first is second
    assert fingerprint(first) == fingerprint(outside[0])
    assert generate_application_trace(APP, INSTRUCTIONS, seed=4) is not first


def test_memo_keys_are_type_exact():
    as_int = RNGBenchmarkSpec("rng640", throughput_mbps=640)
    as_float = RNGBenchmarkSpec("rng640", throughput_mbps=640.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    int_config = drstrange_config(trng_throughput_mbps=640)
    float_config = drstrange_config(trng_throughput_mbps=640.0)
    assert int_config == float_config
    with sweep_pass():
        int_trace = generate_rng_trace(as_int, INSTRUCTIONS)
        float_trace = generate_rng_trace(as_float, INSTRUCTIONS)
        assert int_trace is not float_trace
        assert fingerprint(int_trace) != fingerprint(float_trace)
        assert point_key([int_trace], int_config) != point_key([float_trace], int_config)
        assert point_key([int_trace], int_config) != point_key([int_trace], float_config)
        # A mapping is keyed by its organization, not by its identity.
        assert generate_rng_trace(
            as_int, INSTRUCTIONS, mapping=AddressMapping(DRAMOrganization())
        ) is generate_rng_trace(as_int, INSTRUCTIONS, mapping=AddressMapping(DRAMOrganization()))


def test_a_pass_is_private_to_its_thread():
    seen = {}

    def other_thread():
        seen["outside"] = generate_application_trace(APP, INSTRUCTIONS, seed=4)
        with sweep_pass():
            seen["own pass"] = generate_application_trace(APP, INSTRUCTIONS, seed=4)

    with sweep_pass():
        mine = generate_application_trace(APP, INSTRUCTIONS, seed=4)
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert generate_application_trace(APP, INSTRUCTIONS, seed=4) is mine
    assert seen["outside"] is not mine
    assert seen["own pass"] is not mine
    assert fingerprint(seen["own pass"]) == fingerprint(mine)


def test_replay_drops_its_traces_when_it_returns(stub_simulations):
    data, backend = replay(("fig5", "fig6"), InMemoryResultStore(), instructions=INSTRUCTIONS)
    refs = [weakref.ref(trace) for trace in stub_simulations]
    stub_simulations.clear()
    del data, backend
    gc.collect()
    assert refs
    assert all(ref() is None for ref in refs)
