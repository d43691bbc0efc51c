#!/usr/bin/env python3
"""Distributed sweep: shard a figure's simulation points across workers.

Runs Figure 6 twice — once serially, once through the library-only
distributed executor (a one-shot coordinator with two self-spawned
localhost worker processes) — and checks the exports are bit-identical.
From the command line, a multi-machine run goes through the persistent
sweep service instead, which serves the same workers:

    # machine A
    PYTHONPATH=src python -m repro serve --bind 0.0.0.0:9876

    # machines B, C, ... (any number of workers, any time)
    PYTHONPATH=src python -m repro worker --target A:9876

    # submit from anywhere
    PYTHONPATH=src python -m repro submit fig6 --target A:9876

Run with:  PYTHONPATH=src python examples/distributed_sweep.py
"""

import json
import tempfile

from repro.distributed import DistributedExecutor
from repro.experiments import fig06_dualcore_performance as fig6
from repro.orchestration import ResultCache, SweepRequest, sweep_experiments
from repro.sim.runner import AloneRunCache
from repro.workloads.suites import representative_subset


def main() -> None:
    apps = representative_subset(4)

    print("Serial reference run...")
    serial = fig6.run(cache=AloneRunCache(), apps=apps, instructions=20_000)

    print("Distributed run: coordinator + 2 localhost workers...")
    request = SweepRequest(experiments=("fig6",), instructions=20_000)
    with tempfile.TemporaryDirectory() as cache_dir:
        executor = DistributedExecutor(spawn_workers=2, timeout=600)
        # Experiment-module kwargs beyond the request's own fields (here
        # `apps`) pass through alongside it.
        result = sweep_experiments(
            request, store=ResultCache(cache_dir), executor=executor, apps=apps
        )
    distributed, stats = result["fig6"], result.stats

    identical = json.dumps(distributed, sort_keys=True) == json.dumps(serial, sort_keys=True)
    print(f"\npoints planned: {stats.planned}, executed by workers: {stats.executed}")
    print(f"bit-identical to the serial run: {identical}")
    if not identical:
        raise SystemExit("distributed output diverged from serial — this is a bug")
    print(fig6.format_table(distributed))


if __name__ == "__main__":
    main()
