"""Record the reference digests the benchmark checks outputs against.

Run from the root of a checkout, after a change that is *meant* to alter
simulated results (or the benchmark's inputs)::

    python3 perfbench/record_reference.py

Every digest comes from the ``tick`` engine, the executable spec: the
kernel workloads' trace panels for the default and held-out seeds, and
the canonical exports of the ``sweep-fig`` and ``service-rt`` requests.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import common


def main() -> int:
    sys.path.insert(0, str(common.SOURCE))
    import kernel
    import run
    import sweeps
    from repro.orchestration.sweep import sweep_experiments

    reference = {"kernel": {}}
    for workload in kernel.INSTRUCTIONS:
        digests = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            digests[str(seed)] = [
                kernel.tick_digest(traces) for traces in kernel.make_panel(workload, seed)
            ]
            print(f"{workload} seed {seed}: {digests[str(seed)]}", file=sys.stderr)
        reference["kernel"][workload] = {"params": kernel.params(workload), "digests": digests}
    for workload, request in (
        ("sweep-fig", sweeps.sweep_request()),
        ("service-rt", sweeps.service_request()),
    ):
        data = sweep_experiments(dataclasses.replace(request, engine="tick"))
        reference[workload] = {"request": request.to_wire(), "digest": sweeps.export_digest(data)}
        print(f"{workload}: {reference[workload]['digest']}", file=sys.stderr)
    common.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
