"""Shared helpers for the per-figure experiment modules.

Every experiment module exposes a ``run(...)`` function that returns a
plain dictionary of rows/series (so results can be printed, asserted on in
benchmarks, or dumped to JSON) and a ``format_table(data)`` helper that
renders the same rows the paper reports.

All experiments accept two scaling knobs:

* ``apps`` / ``num_apps`` — which (or how many) non-RNG applications to
  pair with the RNG benchmark.  The default is a small intensity-diverse
  subset so a full figure regenerates in seconds; pass ``full=True`` to
  use the complete roster the paper uses.
* ``instructions`` — per-core instruction count of the synthetic traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..sim.config import SimulationConfig, baseline_config, drstrange_config, greedy_config
from ..workloads.spec import ApplicationSpec
from ..workloads.suites import ALL_APPLICATIONS, representative_subset

#: Default per-core instruction count of the scaled-down experiments.
#: The RNG benchmark issues one burst of requests every
#: ``burst_length * instructions_between_requests`` (= 10 000 at 5 Gb/s)
#: instructions, so runs need a few tens of thousands of instructions to
#: contain enough bursts for stable buffer and scheduler statistics.
DEFAULT_INSTRUCTIONS = 40_000

#: Default number of applications in the scaled-down experiments.
DEFAULT_NUM_APPS = 6


def select_applications(
    apps: Optional[Sequence[ApplicationSpec]] = None,
    num_apps: int = DEFAULT_NUM_APPS,
    full: bool = False,
) -> List[ApplicationSpec]:
    """Choose the non-RNG applications an experiment runs with."""
    if apps is not None:
        return list(apps)
    if full:
        return list(ALL_APPLICATIONS)
    return representative_subset(num_apps)


def standard_design_configs(**overrides) -> Dict[str, SimulationConfig]:
    """The three designs compared throughout Section 8."""
    return {
        "rng-oblivious": baseline_config(**overrides),
        "greedy": greedy_config(**overrides),
        "dr-strange": drstrange_config(**overrides),
    }


def average(values: Iterable[float]) -> float:
    """Arithmetic mean of an iterable (0.0 for an empty one)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
