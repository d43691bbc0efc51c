#!/usr/bin/env python3
"""Distributed sweep: shard a figure's simulation points across workers.

Runs Figure 6 twice — once serially, once through an in-process sweep
service (the ``repro serve`` daemon) with two self-spawned localhost
worker processes, submitted with a ``SweepClient`` — and checks the
exports are bit-identical.  From the command line, a multi-machine run
uses the same pieces:

    # machine A
    PYTHONPATH=src python -m repro serve --bind 0.0.0.0:9876

    # machines B, C, ... (any number of workers, any time)
    PYTHONPATH=src python -m repro worker --target A:9876

    # submit from anywhere
    PYTHONPATH=src python -m repro submit fig6 --target A:9876

Run with:  PYTHONPATH=src python examples/distributed_sweep.py
"""

import json
import subprocess
import tempfile

from repro.distributed import SweepClient, SweepService, spawn_local_worker
from repro.experiments import fig06_dualcore_performance as fig6
from repro.orchestration import (
    InMemoryResultStore,
    ResultCache,
    SweepRequest,
    canonical_data,
    sweep_experiments,
)


def export(results) -> str:
    """The bytes a ``--json`` export of these figures would hold."""
    return json.dumps(canonical_data(dict(results)), sort_keys=True)


def main() -> None:
    # A request carries no `apps`, so fig6 plans its default roster.
    request = SweepRequest(experiments=("fig6",), instructions=20_000)

    print("Serial reference run...")
    serial = sweep_experiments(request, store=InMemoryResultStore())

    print("Distributed run: sweep service + 2 localhost workers...")
    with tempfile.TemporaryDirectory() as cache_dir:
        service = SweepService(ResultCache(cache_dir))
        host, port = service.start()
        workers = [spawn_local_worker(host, port, index) for index in range(2)]
        try:
            with SweepClient((host, port)) as client:
                job_id = client.submit(request)
                status = client.wait(job_id, timeout=600)
                if status.state != "done":
                    raise SystemExit(f"job {status.state}: {status.error}")
                distributed = client.results(job_id)
        finally:
            # Stopping the service drops every worker connection, which is
            # what tells the workers to exit.
            service.stop()
            for worker in workers:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()

    identical = export(distributed) == export(serial)
    print(f"\npoints planned: {status.points}, executed by workers: {status.executed}")
    print(f"bit-identical to the serial run: {identical}")
    if not identical:
        raise SystemExit("distributed output diverged from serial — this is a bug")
    print(fig6.format_table(distributed["fig6"]))


if __name__ == "__main__":
    main()
