"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures on a
scaled-down workload set (``BENCH_INSTRUCTIONS`` instructions per core
and ``BENCH_NUM_APPS`` non-RNG applications, set below; one
``benchmarks/test_*.py`` module per figure) and prints the same
rows/series the paper reports.  Benchmarks are run with
``pytest benchmarks/ --benchmark-only``; each experiment is executed once
per benchmark (``benchmark.pedantic`` with a single round), because a
single figure already aggregates many simulations internally.

Alone runs (every per-application single-core baseline simulation) are
design-independent, so the harness shares them through the persistent
content-addressed result cache (:mod:`repro.orchestration`): the first
benchmark session pays for them once, every later session — and every
benchmark within a session — reuses them from disk.  Set
``REPRO_BENCH_CACHE_DIR`` to relocate the cache, or point it at a fresh
directory to force cold alone runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.orchestration import persistent_alone_cache
from repro.sim.runner import AloneRunCache
from repro.workloads.suites import representative_subset

#: Per-core instruction count used by the benchmark harness.
BENCH_INSTRUCTIONS = 25_000

#: Number of non-RNG applications paired with the RNG benchmark.
BENCH_NUM_APPS = 4

#: On-disk result cache shared across benchmark sessions.
BENCH_CACHE_DIR = Path(
    os.environ.get(
        "REPRO_BENCH_CACHE_DIR", Path(__file__).resolve().parent.parent / ".repro-cache" / "benchmarks"
    )
)


@pytest.fixture(scope="session")
def bench_cache() -> AloneRunCache:
    """Alone-run cache shared across benchmarks *and* benchmark sessions."""
    return persistent_alone_cache(BENCH_CACHE_DIR)


@pytest.fixture(scope="session")
def bench_apps():
    """The intensity-diverse application subset used by the benchmarks."""
    return representative_subset(BENCH_NUM_APPS)


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
