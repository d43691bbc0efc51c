"""DR-STRaNGe reproduction: an end-to-end system design for DRAM-based TRNGs.

This package reproduces, in pure Python, the system described in
"DR-STRaNGe: End-to-End System Design for DRAM-based True Random Number
Generators" (HPCA 2022): a cycle-level DRAM + memory-controller + core
simulator (the substrate), the DRAM-based TRNG mechanism models
(D-RaNGe, QUAC-TRNG), and the DR-STRaNGe design itself — a random number
buffer filled during predicted-idle DRAM periods, DRAM idleness
predictors, and an RNG-aware memory request scheduler.

Quickstart::

    from repro import drstrange_config, baseline_config, run_workload
    from repro.workloads import dual_core_mixes

    mix = dual_core_mixes()[0]                      # one non-RNG app + 5 Gb/s RNG app
    base = run_workload(mix, baseline_config(), instructions=10_000)
    ours = run_workload(mix, drstrange_config(), instructions=10_000)
    print(base.non_rng_slowdown, "->", ours.non_rng_slowdown)

See the ``examples/`` directory and the "Experiment orchestration"
section of README.md for full experiments.
"""

from . import controller, core, cpu, dram, energy, experiments, metrics, sched, sim, trng, workloads
from .core import (
    DRStrangeConfig,
    QLearningIdlenessPredictor,
    RandomNumberBuffer,
    RNGAwareQueuePolicy,
    SimpleIdlenessPredictor,
)
from .sim import (
    DESIGN_DRSTRANGE,
    DESIGN_GREEDY_IDLE,
    DESIGN_RNG_OBLIVIOUS,
    SimulationConfig,
    System,
    WorkloadEvaluation,
    baseline_config,
    compare_designs,
    drstrange_config,
    greedy_config,
    run_workload,
    simulate,
)
from .trng import DRaNGe, ParametricTRNG, QUACTRNG

__version__ = "1.0.0"

__all__ = [
    "DESIGN_DRSTRANGE",
    "DESIGN_GREEDY_IDLE",
    "DESIGN_RNG_OBLIVIOUS",
    "DRaNGe",
    "DRStrangeConfig",
    "ParametricTRNG",
    "QLearningIdlenessPredictor",
    "QUACTRNG",
    "RNGAwareQueuePolicy",
    "RandomNumberBuffer",
    "SimpleIdlenessPredictor",
    "SimulationConfig",
    "System",
    "WorkloadEvaluation",
    "baseline_config",
    "compare_designs",
    "controller",
    "core",
    "cpu",
    "dram",
    "drstrange_config",
    "energy",
    "experiments",
    "greedy_config",
    "metrics",
    "run_workload",
    "sched",
    "sim",
    "simulate",
    "trng",
    "workloads",
    "__version__",
]
