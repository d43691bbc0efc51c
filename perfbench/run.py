"""Performance ledger of the DR-STRaNGe reproduction.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload dense-h8 --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload, each in its own process, and
prints each metric with its unit.

Workloads (see ``kernel.py`` and ``sweeps.py``): ``dense-h8`` and
``idle-l4`` time simulations, ``sweep-fig`` a cold and a warm 18-figure
sweep, ``service-rt`` a cold and a memoised ``SweepService`` round trip.
Every loop is closed: the next operation starts when the previous one
returns, from this one process.

With ``--trace 0`` the run repeats its operations for ``--seconds`` and
reports the end-to-end metrics:

``sim_kips``      thousands of simulated instructions per host second of
                  simulation (kernel: of the simulations; sweep/service:
                  of the cold operation, over the points it simulated).
``cold_s``        host seconds of one operation with the workload's cache
                  empty: a simulation from fresh traces (trace precompile
                  included), a sweep into an empty store, a submit -> results round
                  trip on an empty service store.
``warm_s``        the same operation once that cache is filled: a
                  simulation from already precompiled traces, the warm
                  sweep, the memoised resubmit.
``setup_s``       host seconds before an operation can start: building
                  the ``System`` from fresh traces; a new process
                  importing the experiment registry and opening the
                  store; or starting the service with its worker and
                  client handshakes.
``peak_rss_mb``   peak resident memory of the process.
``success_rate``  operations that returned and matched their output
                  check, per hundred attempted.  It stands in for an
                  error rate, which is 0 and so cannot be a metric whose
                  spread is a share of its median; the ``failed`` and
                  ``attempted`` counts of the result line give the error
                  rate itself.

Every workload reports every metric, so the cold/warm pair is one
metric per cache state rather than one per workload.  Host times use
``perf_counter``.  Each timing, ``setup_s`` included, is the fastest
repetition of its input within the run (averaged over the trace sets of
a kernel panel): the median of a run's set-ups, a few milliseconds of
allocation and thread hand-offs on dense-h8 and service-rt, spread
27-31% from run to run, their fastest 9-19%.  The machine this was tuned on
(2 vCPUs, Intel Xeon at 2.1 GHz, shared with other tenants) switches
between a fast and a slow speed every 10-60 s: medians of one fixed
simulation over 10 s windows spread 20% (quartile distance over median),
while the fastest repetition per window spread 5%.  CPU time
(``thread_time``) spreads as much as wall time there, so the slow phases
are not time stolen by the hypervisor, and a busy process on the other
vCPU does not cause them: other tenants of the host do.  Slow spells
also last minutes, longer than a run, so the kernel and ``sweep-fig``
times are rescaled to a reference host speed measured in the same run
(``common.HostSpeed``).  ``service-rt`` round trips are mostly waits,
which do not scale with host speed, so its times stay raw.  The ledger
records the raw times and the factor beside every result.

With ``--trace 1`` the run instead traces a fixed amount of work and
reports the per-layer metrics of ``layers.py``.  The last line of stdout
is the result as JSON; each run also appends a record, with a machine
fingerprint, to ``.perfbench/results.jsonl`` for ``compare.py``.

The seed picks the traces of the kernel workloads; the default seed is 1
and the held-out seed is 2 (their reference digests are recorded in
``reference.json``, see ``record_reference.py``).  The figure sweeps seed
themselves, so the seed does not change ``sweep-fig`` or ``service-rt``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Dict, List, Optional

import common
import kernel
import layers
import sweeps

WORKLOADS = ("dense-h8", "idle-l4", "sweep-fig", "service-rt")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END: Dict[str, str] = {
    "sim_kips": "kinst/s",
    "cold_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "%",
}

LEDGER = common.OUTPUT / "results.jsonl"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    if workload in kernel.INSTRUCTIONS:
        return kernel.run(workload, seed, seconds, trace)
    if workload == "sweep-fig":
        return sweeps.run_sweep(seconds, trace)
    return sweeps.run_service(seconds, trace)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so each has its own peak RSS)."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct {result['correct']}, "
              f"{result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (common.SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {common.SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(common.SOURCE))
    started = time.time()
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = layers.UNITS
    else:
        units = END_TO_END
        outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
        outcome.metrics["success_rate"] = (
            100.0 * (outcome.attempted - outcome.failed) / outcome.attempted
        )
    metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    common.OUTPUT.mkdir(parents=True, exist_ok=True)
    if outcome.recorder is not None:
        outcome.recorder.dump(
            common.OUTPUT / "spans" / f"{args.workload}.spans",
            {"workload": args.workload, "seed": args.seed, "started": started},
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": started,
        "wall_s": time.time() - started,
        "fingerprint": common.fingerprint(),
        "raw_metrics": outcome.raw_metrics,
        "host_factor": outcome.host_factor,
        **result,
    }
    with LEDGER.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
