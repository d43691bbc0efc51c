"""Sweep workloads: the figure sweep users run, locally and as a service.

``sweep-fig``   all 18 experiments as one ``SweepRequest`` at 10k
                instructions on the local serial path.  A cold pass
                writes into a fresh ``ResultCache``; warm passes then read
                through a new ``ResultCache`` on the same directory, which
                is what a new process would see.  Set-up is what a new
                process does before it can sweep: start the interpreter,
                import the experiment registry and open the store.
``service-rt``  an in-process ``SweepService`` on ``127.0.0.1:0`` over a
                fresh ``ResultCache``, one ``run_worker`` thread and one
                ``SweepClient``.  The client submits fig6+fig9+fig13+fig18
                at 10k instructions, waits and fetches the results (cold);
                it then resubmits the same request, which is fully
                memoised (warm).  Set-up is starting the service plus the
                worker and client handshakes.

Timing arguments that differ from the defaults: the client polls every
``POLL_SECONDS`` (default 0.2 s) and the service tells idle workers to
retry after ``RETRY_SECONDS`` (default 0.5 s).  With the defaults a round
trip is a multiple of those sleeps: the memoised resubmit reads 0.2 s or
0.4 s depending on where the first poll lands, which hides any change to
the service itself.

The figure modules seed themselves, so ``--seed`` does not change these
inputs.  Output check: the canonical export (``canonical_data``) of every
pass must match the digest recorded in ``reference.json``; the service's
export must also be byte-identical to a local serial sweep of the same
request, run once per benchmark run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import common
import layers
from tracing import SpanRecorder

INSTRUCTIONS = 10_000
SERVICE_EXPERIMENTS = ("fig6", "fig9", "fig13", "fig18")

#: Warm passes after each cold one, and memoised resubmits after each
#: cold round trip.  A cold pass takes ~4.5 s, so a run affords only a
#: few, and every warm pass delays the next; a cold round trip takes
#: ~3.3 s and a resubmit ~0.1 s.
SWEEP_WARM_REPEATS = 2
SERVICE_WARM_REPEATS = 3

#: Set-ups timed per run besides those of the measured operations:
#: new processes for ``sweep-fig``, service start-ups (closed again at
#: once) for ``service-rt``.
SETUP_REPEATS = 5

POLL_SECONDS = 0.01
RETRY_SECONDS = 0.01

#: What a new process runs before its first sweep (``argv``: the source
#: directory and the store directory).
SETUP_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); import repro.experiments; "
    "from repro.orchestration.cache import ResultCache; ResultCache(sys.argv[2])"
)


def sweep_request():
    from repro.experiments import EXPERIMENTS
    from repro.orchestration.request import SweepRequest

    return SweepRequest(experiments=tuple(EXPERIMENTS), instructions=INSTRUCTIONS)


def service_request():
    from repro.orchestration.request import SweepRequest

    return SweepRequest(experiments=SERVICE_EXPERIMENTS, instructions=INSTRUCTIONS)


def export_bytes(data) -> bytes:
    """The canonical export of a sweep's data dicts."""
    from repro.orchestration.report import canonical_data

    return json.dumps(canonical_data(dict(data)), sort_keys=True).encode("utf-8")


def export_digest(data) -> str:
    return hashlib.sha256(export_bytes(data)).hexdigest()


def expected_digest(workload: str, request) -> str:
    recorded = common.load_reference()[workload]
    if recorded["request"] != request.to_wire():
        raise ValueError(f"reference.json records another {workload} request; re-record it")
    return recorded["digest"]


def simulated_kinst(result, store) -> float:
    """Thousands of instructions simulated by a sweep (its executed points)."""
    return sum(
        sum(core.instructions for core in store.get(key).cores)
        for key, point in result.stats.points.items()
        if point["state"] == "simulated"
    ) / 1000.0


# ----------------------------------------------------------------- sweep-fig


def run_sweep(seconds: float, trace: bool) -> common.Outcome:
    from repro.orchestration.cache import ResultCache
    from repro.orchestration.sweep import sweep_experiments

    request = sweep_request()
    expected = expected_digest("sweep-fig", request)
    outcome = common.Outcome()

    def sweep(directory, cold: bool) -> Tuple[Optional[float], float, int]:
        """One pass through a newly opened store: (seconds or ``None`` if
        it raised, thousands of instructions simulated, store bytes)."""
        elapsed, kinst = None, 0.0
        store = ResultCache(directory)
        with outcome.attempt():
            start = perf_counter()
            result = sweep_experiments(request, store=store)
            elapsed = perf_counter() - start
            outcome.check(export_digest(result) == expected, "sweep export")
            if cold:
                kinst = simulated_kinst(result, store)
            else:
                outcome.check(result.stats.executed == 0, "warm sweep simulated points")
        return elapsed, kinst, store.stats()["total_bytes"]

    def new_process(directory) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, str(common.SOURCE), str(directory)], check=True
        )
        return perf_counter() - start

    if trace:
        with common.scratch_dir() as directory:
            untraced = (sweep(directory, cold=True)[0] or 0.0) + (
                sweep(directory, cold=False)[0] or 0.0
            )
        recorder = SpanRecorder()
        with common.scratch_dir() as directory:
            layers.install(recorder, kernel=False)
            try:
                traced_cold, _, written = sweep(directory, cold=True)
                traced = (traced_cold or 0.0) + (sweep(directory, cold=False)[0] or 0.0)
            finally:
                recorder.uninstall()
        outcome.recorder = recorder
        outcome.metrics = layers.per_layer_metrics(
            recorder, main_wall_s=traced, untraced_s=untraced, bytes_written=written
        )
        return outcome

    host = common.HostSpeed()
    setup: List[float] = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        with common.scratch_dir() as directory:
            setup.append(new_process(directory))
    cold: List[Tuple[float, float]] = []
    warm: List[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not (warm or outcome.failed):
        with common.scratch_dir() as directory:
            host.sample(force=True)
            elapsed, kinst, _ = sweep(directory, cold=True)
            if elapsed is not None:
                cold.append((elapsed, kinst))
            for _ in range(SWEEP_WARM_REPEATS):
                host.sample()
                elapsed = sweep(directory, cold=False)[0]
                if elapsed is not None:
                    warm.append(elapsed)
    host.sample(force=True)
    fastest, kinst = min(cold)
    outcome.rescale({
        "sim_kips": kinst / fastest,
        "cold_s": fastest,
        "warm_s": min(warm),
        "setup_s": min(setup),
    }, host)
    return outcome


# ----------------------------------------------------------------- service-rt


class _Fleet:
    """One service, its worker thread and a connected client."""

    def __init__(self, directory) -> None:
        from repro.distributed.client import SweepClient
        from repro.distributed.service import SweepService
        from repro.orchestration.cache import ResultCache

        start = perf_counter()
        self.store = ResultCache(directory)
        self.service = SweepService(self.store, retry_seconds=RETRY_SECONDS)
        host, port = self.service.start()
        events = self.service.events.subscribe()
        try:
            self.worker = threading.Thread(
                target=self._work, args=(f"{host}:{port}",), name="perfbench-worker", daemon=True
            )
            self.worker.start()
            self.client = SweepClient((host, port))
            while True:
                event = events.get(timeout=10.0)
                if event["kind"] == "worker.connect" and event.get("role") == "worker":
                    break
        finally:
            self.service.events.unsubscribe(events)
        self.setup_s = perf_counter() - start

    @staticmethod
    def _work(address: str) -> None:
        from repro.distributed.worker import run_worker

        try:
            run_worker(address, worker_id="perfbench-worker")
        except OSError:
            pass  # the service stopped while the worker was between messages

    def round_trip(self, request) -> Tuple[float, object, Dict]:
        """Submit, wait, fetch: (seconds, final status, results)."""
        start = perf_counter()
        job = self.client.submit(request)
        status = self.client.wait(job, timeout=120.0, interval=POLL_SECONDS)
        data = self.client.results(job)
        return perf_counter() - start, status, data

    def close(self) -> None:
        self.client.close()
        self.service.stop()
        self.worker.join(timeout=10.0)
        if self.worker.is_alive():
            raise RuntimeError("the worker thread did not stop")


def run_service(seconds: float, trace: bool) -> common.Outcome:
    from repro.orchestration.sweep import InMemoryResultStore, sweep_experiments

    request = service_request()
    expected = expected_digest("service-rt", request)
    outcome = common.Outcome()

    local_store = InMemoryResultStore()
    local = sweep_experiments(request, store=local_store)
    local_bytes = export_bytes(local)
    if hashlib.sha256(local_bytes).hexdigest() != expected:
        raise ValueError("the local serial sweep does not match the recorded export")
    kinst = sum(
        sum(core.instructions for core in local_store.get(key).cores) for key in local.stats.points
    ) / 1000.0

    def round_trip(fleet: _Fleet, cold: bool):
        """One checked round trip: (seconds or ``None`` if it raised, final status)."""
        elapsed, status = None, None
        with outcome.attempt():
            elapsed, status, data = fleet.round_trip(request)
            what = "cold" if cold else "warm"
            outcome.check(status.state == "done", f"{what} job {status.state}: {status.error}")
            exported = export_bytes(data)
            outcome.check(exported == local_bytes, f"{what} export differs from the local sweep")
            outcome.check(hashlib.sha256(exported).hexdigest() == expected, f"{what} digest")
            if cold:
                outcome.check(status.executed == status.points, "cold job reused points")
            else:
                outcome.check(status.executed == 0, "warm job simulated points")
        return elapsed, status

    if trace:
        with common.scratch_dir() as directory:
            fleet = _Fleet(directory)
            try:
                untraced = (round_trip(fleet, True)[0] or 0.0) + (
                    round_trip(fleet, False)[0] or 0.0
                )
            finally:
                fleet.close()
        recorder = SpanRecorder()
        with common.scratch_dir() as directory:
            fleet = _Fleet(directory)
            try:
                layers.install(recorder, kernel=False, simulate_layer="distributed")
                try:
                    traced_cold, cold_status = round_trip(fleet, True)
                    traced_warm, warm_status = round_trip(fleet, False)
                    traced_cold, traced_warm = traced_cold or 0.0, traced_warm or 0.0
                finally:
                    recorder.uninstall()
                written = fleet.store.stats()["total_bytes"]
            finally:
                fleet.close()
        outcome.recorder = recorder
        outcome.metrics = layers.per_layer_metrics(
            recorder,
            main_wall_s=traced_cold + traced_warm,
            untraced_s=untraced,
            service_cold_s=traced_cold,
            points_executed=cold_status.executed if cold_status else 0,
            points_reused=warm_status.reused if warm_status else 0,
            bytes_written=written,
        )
        return outcome

    # The cold round trip is mostly waiting (on polls, leases and the
    # worker), which does not scale with host speed, so it stays raw;
    # set-up and the memoised resubmit are plain Python work.
    host = common.HostSpeed()
    setup: List[float] = []

    def new_fleet(directory) -> _Fleet:
        host.sample()
        fleet = _Fleet(directory)
        setup.append(fleet.setup_s)
        return fleet

    for _ in range(SETUP_REPEATS):
        with common.scratch_dir() as directory:
            new_fleet(directory).close()
    cold: List[float] = []
    warm: List[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not (warm or outcome.failed):
        with common.scratch_dir() as directory:
            fleet = new_fleet(directory)
            try:
                elapsed = round_trip(fleet, True)[0]
                if elapsed is not None:
                    cold.append(elapsed)
                for _ in range(SERVICE_WARM_REPEATS):
                    host.sample()
                    elapsed = round_trip(fleet, False)[0]
                    if elapsed is not None:
                        warm.append(elapsed)
            finally:
                fleet.close()
    host.sample(force=True)
    fastest = min(cold)
    outcome.rescale({
        "sim_kips": kinst / fastest,
        "cold_s": fastest,
        "warm_s": min(warm),
        "setup_s": min(setup),
    }, host, keep_raw=("sim_kips", "cold_s"))
    return outcome
