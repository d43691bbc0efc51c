"""Pinned simulation results: a small panel of points, digest by digest.

``test_engine_equivalence.py`` checks that the two engines agree and
``test_golden_keys`` pins point keys, but a change to controller code
that both engines share keeps both checks green while every result
moves.  This test pins the results themselves: the sha256 of each
point's sorted-key ``result_to_dict`` JSON, the digest perfbench's
output check and the result store use.

The panel covers the RNG-oblivious, Greedy Idle and DR-STRaNGe designs
(the last with the simple and with the RL predictor) on a 1-core alone
run, a dual-core RNG mix, a 4-core LLLS mix and an 8-core H mix, all on
FR-FCFS+Cap, plus one BLISS and one FR-FCFS point.  A digest changes only
when a model change is meant to change results; re-record it then, in
the same change, and say so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import DRStrangeConfig
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.orchestration import result_to_dict
from repro.sim.config import baseline_config, drstrange_config, greedy_config
from repro.sim.system import System
from repro.workloads.mixes import (
    build_traces,
    dual_core_mixes,
    four_core_group_mixes,
    multi_core_group_mixes,
)
from repro.workloads.suites import representative_subset

#: Instructions per core: small enough for the whole panel to take ~2 s.
INSTRUCTIONS = 5_000

CONFIGS = {
    "oblivious": baseline_config(),
    "greedy": greedy_config(),
    "drstrange-simple": drstrange_config(),
    "drstrange-rl": drstrange_config(drstrange=DRStrangeConfig(predictor="rl")),
    "drstrange-bliss": drstrange_config(scheduler="bliss"),
    "drstrange-frfcfs": drstrange_config(scheduler="fr-fcfs"),
}


def _mixes():
    dual = dual_core_mixes(representative_subset(6))[-1]  # lbm + the RNG benchmark
    return {
        "alone": dual,  # its RNG benchmark, run alone
        "dual": dual,
        "llls4": four_core_group_mixes(workloads_per_group=1)["LLLS"][0],
        "h8": multi_core_group_mixes(8, workloads_per_group=1)["H"][0],
    }


#: (workload, config) -> sha256 of the point's result, recorded at the
#: commit before the event engine's streaming deferral and the RNG-aware
#: serve fast path.
GOLDEN = {
    ("alone", "oblivious"):
        "732c7bf53a07bf9cb31f52eef25d12502cfd90ddc71f2a8073a85b15ff8b7269",
    ("dual", "oblivious"):
        "ec178be2ace83a89f3ca382bfc625bbcc4a913a53b6ce95f3bf528c6eff4541c",
    ("dual", "greedy"):
        "27ec28c02a13e3b20f631651b78df97bced1344506213be260bf990f40ce1d55",
    ("dual", "drstrange-simple"):
        "5e186e443a27c073d3e2dce5e970b12a62d4659e90e877a8f6a2ad7b7230d8f2",
    ("dual", "drstrange-rl"):
        "15f1dbe977196cb3c0e7a30d9e42537656bf8cdd1deec8de833c6bbadfcb841a",
    ("llls4", "oblivious"):
        "cfb63149b577d77b28712d0cf9b8c9282c0fac93628d4a1ed633b33f68c8fe5a",
    ("llls4", "greedy"):
        "91472c38d90cc4225c378f57c2b4134c0e9e7190122d2048f27cc04ee73e0779",
    ("llls4", "drstrange-simple"):
        "3b8708d56d72bd4a599a7a02b3af82c3ace3851ef51fd62e03dcd35939c2ad94",
    ("llls4", "drstrange-rl"):
        "6638986401f803f60032617d28e71c6a22c6e431463745e92d5562de5f2f47a1",
    ("h8", "oblivious"):
        "b781441c6632fc62b2b3ebd4dc3ba77f34a996b846f85b1b9b4ee38b841acf7c",
    ("h8", "greedy"):
        "2e91ddb5f29d2426c08ab41018163c4d060af16e4dcb1123be054561b7dff99c",
    ("h8", "drstrange-simple"):
        "a4badddf29be9b92e834d001020b48907b11d123f640a47d4293e0edc1db9a90",
    ("h8", "drstrange-rl"):
        "a05997b08084b362a5375fbd0daed8c6ac078b8a828baaeb91e53e790859aafa",
    ("dual", "drstrange-bliss"):
        "522da4985095c08c49056ebbacfb219a003ffdeba7ab6a9d4f2e750bcbd69c31",
    ("h8", "drstrange-frfcfs"):
        "cf0319a48a2096fee8a875c8e5e71adab5bd2bf06a2eb7341509239858ffc18d",
}


@pytest.fixture(scope="module")
def panel_traces():
    mapping = AddressMapping(DRAMOrganization())
    traces = {
        name: build_traces(mix, INSTRUCTIONS, seed=7, mapping=mapping)
        for name, mix in _mixes().items()
    }
    traces["alone"] = [trace for trace in traces["alone"] if trace.rng_requests > 0][:1]
    return traces


def digest(result) -> str:
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload, config", list(GOLDEN), ids=lambda value: value)
def test_golden_results(panel_traces, workload, config):
    traces = panel_traces[workload]
    simulation = CONFIGS[config]
    if workload == "alone":
        simulation = simulation.alone_run_config()
    assert digest(System(list(traces), simulation).run()) == GOLDEN[(workload, config)]
