"""Tests for the distributed execution subsystem.

Covers the wire protocol codecs, the executor abstraction, coordinator
fault tolerance (dead connections, lease expiry, bounded retries,
straggler re-issue) and — the acceptance bar — that a sweep sharded
across localhost worker processes is bit-identical to a serial run,
including when one worker is SIGKILLed mid-sweep.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cpu.trace import Trace, TraceEntry
from repro.distributed import (
    Coordinator,
    DistributedExecutor,
    SweepService,
    parse_address,
    run_worker,
    spawn_local_worker,
    unit_from_wire,
    unit_to_wire,
)
from repro.distributed.protocol import (
    checkpoint_from_wire,
    checkpoint_message,
    config_from_wire,
    config_to_wire,
    decode_message,
    encode_message,
    hello_message,
    result_from_wire,
    result_to_wire,
)
from repro.experiments import fig06_dualcore_performance as fig6
from repro.orchestration import (
    InMemoryResultStore,
    ProcessPoolExecutor,
    ResultCache,
    SerialExecutor,
    SimulationUnit,
    SweepRequest,
    execute_units,
    plan_experiment,
    point_key,
    sweep_experiments,
)
from repro.sim import checkpoint
from repro.sim.config import baseline_config, drstrange_config
from repro.sim.runner import AloneRunCache
from repro.sim.system import System
from repro.workloads.suites import representative_subset


def make_trace(name: str = "t", rng: bool = False, seed: int = 0, entries: int = 64) -> Trace:
    records = []
    for index in range(entries):
        records.append(
            TraceEntry(
                bubbles=3 + (index + seed) % 5,
                address=(index * 4096 + seed * 64) % (1 << 20),
                rng_bits=64 if rng and index % 16 == 0 else 0,
            )
        )
    return Trace(records, name=name, metadata={"seed": seed})


def make_unit(seed: int = 0, rng: bool = True) -> SimulationUnit:
    traces = [make_trace(f"u{seed}", rng=rng, seed=seed)]
    config = baseline_config()
    return SimulationUnit(key=point_key(traces, config), traces=traces, config=config)


# ----------------------------------------------------------------- protocol


class TestProtocol:
    def test_message_framing_round_trip(self):
        payload = {"type": "work", "unit": {"key": "abc"}}
        assert decode_message(encode_message(payload)) == payload

    def test_decode_rejects_non_messages(self):
        with pytest.raises(ValueError):
            decode_message(b"[1,2,3]\n")
        with pytest.raises(ValueError):
            decode_message(b"{not json\n")

    def test_config_round_trip_covers_nested_dataclasses(self):
        config = drstrange_config(scheduler="bliss", scheduler_cap=4, max_cycles=123_456)
        assert config_from_wire(json.loads(json.dumps(config_to_wire(config)))) == config

    def test_unit_round_trip_preserves_content_key(self):
        unit = make_unit(seed=3)
        restored = unit_from_wire(json.loads(json.dumps(unit_to_wire(unit))))
        assert restored.key == unit.key
        assert point_key(restored.traces, restored.config) == unit.key

    def test_result_round_trip_is_exact(self):
        unit = make_unit()
        result = System(unit.traces, unit.config).run()
        assert result_from_wire(json.loads(json.dumps(result_to_wire(result)))) == result

    def test_service_refuses_hello_from_protocol_1(self):
        # Protocol 1 work frames carried the TRNG entropy seed in their
        # config, which this build cannot read: such a peer is refused.
        service = SweepService(InMemoryResultStore())
        address = service.start()
        try:
            with socket.create_connection(address) as connection:
                stale = dict(hello_message("stale"), protocol=1)
                connection.sendall(encode_message(stale))
                reply = decode_message(connection.makefile("rb").readline())
        finally:
            service.stop()
        assert reply["type"] == "done"
        assert "protocol mismatch" in reply["error"]

    def test_parse_address(self):
        assert parse_address("10.0.0.7:9876") == ("10.0.0.7", 9876)
        for bad in ("localhost", ":80", "host:"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_checkpoint_round_trip_survives_json(self):
        blob = bytes(range(256))
        message = checkpoint_message("w0", "key", 1_234, blob)
        assert checkpoint_from_wire(json.loads(json.dumps(message))) == (1_234, blob)

    def test_checkpoint_from_wire_rejects_malformed_payloads(self):
        assert checkpoint_from_wire(None) is None
        assert checkpoint_from_wire("nope") is None
        assert checkpoint_from_wire({"cycle": "NaN", "data": "AA=="}) is None
        assert checkpoint_from_wire({"cycle": 5, "data": "not base64!!"}) is None
        assert checkpoint_from_wire({"cycle": 5}) is None


# ----------------------------------------------------------------- executors


class TestExecutors:
    def test_serial_and_pool_commit_identical_results(self):
        units = [make_unit(seed=s) for s in range(3)]
        serial_store, pool_store = InMemoryResultStore(), InMemoryResultStore()
        assert SerialExecutor().execute(units, serial_store) == 3
        assert ProcessPoolExecutor(jobs=2).execute(units, pool_store) == 3
        for unit in units:
            assert pool_store.get(unit.key) == serial_store.get(unit.key)

    def test_execute_units_skips_cached_points(self):
        units = [make_unit(seed=s) for s in range(2)]
        store = InMemoryResultStore()
        assert execute_units(units, store, executor=SerialExecutor()) == 2
        assert execute_units(units, store, executor=SerialExecutor()) == 0


# ----------------------------------------------------------------- coordinator

# Short timings so the fault-tolerance paths run in test time.
FAST = dict(lease_timeout=0.4, straggler_timeout=0.3, retry_seconds=0.05)


class FakeWorker:
    """A hand-driven protocol client for exercising the coordinator."""

    def __init__(self, address, name="fake"):
        self.connection = socket.create_connection(address)
        self.stream = self.connection.makefile("rb")
        self.send(hello_message(name))
        assert self.receive()["type"] == "welcome"

    def send(self, payload):
        self.connection.sendall(encode_message(payload))

    def receive(self):
        return decode_message(self.stream.readline())

    def lease(self):
        self.send({"type": "lease"})
        return self.receive()

    def lease_work(self, attempts=50):
        """Poll until the coordinator hands out a point (or give up)."""
        for _ in range(attempts):
            reply = self.lease()
            if reply["type"] == "work":
                return reply
            if reply["type"] == "done":
                return reply
            time.sleep(reply.get("seconds", 0.05))
        raise AssertionError("coordinator never handed out work")

    def finish(self, key, result):
        self.send({"type": "result", "key": key, "result": result_to_wire(result)})
        assert self.receive()["type"] == "ack"

    def close(self):
        try:
            self.connection.close()
        except OSError:
            pass


@pytest.fixture
def unit_and_result():
    unit = make_unit()
    return unit, System(unit.traces, unit.config).run()


class TestCoordinatorFaultTolerance:
    def test_happy_path_commits_to_store(self, unit_and_result):
        unit, result = unit_and_result
        store = InMemoryResultStore()
        coordinator = Coordinator([unit], store, **FAST)
        address = coordinator.start()
        try:
            worker = FakeWorker(address)
            work = worker.lease_work()
            assert work["unit"]["key"] == unit.key
            worker.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
            assert not coordinator.failed_keys
            assert store.get(unit.key) == result
            assert worker.lease()["type"] == "done"
            worker.close()
        finally:
            coordinator.stop()

    def test_dead_connection_requeues_point(self, unit_and_result):
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), **FAST)
        address = coordinator.start()
        try:
            first = FakeWorker(address, "doomed")
            assert first.lease_work()["type"] == "work"
            first.close()  # dies holding the lease
            second = FakeWorker(address, "survivor")
            work = second.lease_work()
            assert work["type"] == "work" and work["unit"]["key"] == unit.key
            second.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
            assert not coordinator.failed_keys
        finally:
            coordinator.stop()

    def test_lease_expires_without_heartbeats(self, unit_and_result):
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), **FAST)
        address = coordinator.start()
        try:
            silent = FakeWorker(address, "silent")
            assert silent.lease_work()["type"] == "work"
            # No heartbeats: the reaper must revoke the lease and hand the
            # point to the other worker while `silent` stays connected.
            other = FakeWorker(address, "other")
            work = other.lease_work()
            assert work["type"] == "work" and work["unit"]["key"] == unit.key
            other.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
            silent.close()
            other.close()
        finally:
            coordinator.stop()

    def test_heartbeats_keep_lease_alive(self, unit_and_result):
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), **FAST)
        address = coordinator.start()
        try:
            worker = FakeWorker(address, "beating")
            assert worker.lease_work()["type"] == "work"
            deadline = time.monotonic() + 3 * FAST["lease_timeout"]
            while time.monotonic() < deadline:
                worker.send({"type": "heartbeat", "key": unit.key})
                time.sleep(FAST["lease_timeout"] / 4)
            # Lease must still be held (never requeued as an attempt).
            snapshot = coordinator.snapshot()
            assert snapshot["leases"] and snapshot["pending"] == 0
            worker.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
            assert not coordinator.failed_keys
        finally:
            coordinator.stop()

    def test_bounded_retries_mark_point_failed(self, unit_and_result):
        unit, _ = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), max_attempts=2, **FAST)
        address = coordinator.start()
        try:
            for attempt in range(2):
                worker = FakeWorker(address, f"crash-{attempt}")
                assert worker.lease_work()["type"] == "work"
                worker.close()
                time.sleep(0.05)
            assert coordinator.wait(timeout=5)
            assert unit.key in coordinator.failed_keys
        finally:
            coordinator.stop()

    def test_worker_error_reports_count_as_attempts(self, unit_and_result):
        unit, _ = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), max_attempts=1, **FAST)
        address = coordinator.start()
        try:
            worker = FakeWorker(address, "buggy")
            assert worker.lease_work()["type"] == "work"
            worker.send({"type": "error", "key": unit.key, "error": "ValueError: boom"})
            assert worker.receive()["type"] == "ack"
            assert coordinator.wait(timeout=5)
            assert coordinator.failed_keys[unit.key] == "ValueError: boom"
        finally:
            coordinator.stop()

    def test_failed_duplicates_cannot_kill_a_live_lease(self, unit_and_result):
        """Error reports against straggler duplicates must not fail a point
        that a healthy (heartbeating) worker is still simulating."""
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), max_attempts=1, **FAST)
        address = coordinator.start()
        try:
            slow = FakeWorker(address, "slow")
            assert slow.lease_work()["type"] == "work"
            beating = threading.Event()

            def beat():
                while not beating.wait(FAST["lease_timeout"] / 4):
                    slow.send({"type": "heartbeat", "key": unit.key})

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            try:
                # A duplicate holder errors out; attempts now equal
                # max_attempts, but the slow worker's live lease must keep
                # the point alive.
                hurry = FakeWorker(address, "hurry")
                assert hurry.lease_work()["type"] == "work"
                hurry.send({"type": "error", "key": unit.key, "error": "RuntimeError: flaky"})
                assert hurry.receive()["type"] == "ack"
                assert not coordinator.failed_keys

                slow.finish(unit.key, result)
                assert coordinator.wait(timeout=5)
                assert not coordinator.failed_keys
            finally:
                beating.set()
                beater.join(timeout=2)
        finally:
            coordinator.stop()

    def test_straggler_point_is_reissued(self, unit_and_result):
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), **FAST)
        address = coordinator.start()
        try:
            slow = FakeWorker(address, "slow")
            assert slow.lease_work()["type"] == "work"
            hurry = FakeWorker(address, "hurry")

            # Keep the slow worker's lease alive so only the straggler
            # deadline (not lease expiry) can re-issue the point.
            beating = threading.Event()

            def beat():
                while not beating.wait(FAST["lease_timeout"] / 4):
                    slow.send({"type": "heartbeat", "key": unit.key})

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            try:
                work = hurry.lease_work()
                assert work["type"] == "work" and work["unit"]["key"] == unit.key
                hurry.finish(unit.key, result)
                assert coordinator.wait(timeout=5)
                assert not coordinator.failed_keys
            finally:
                beating.set()
                beater.join(timeout=2)
        finally:
            coordinator.stop()


class TestCheckpointResume:
    """Killed workers lose at most one checkpoint interval: the coordinator
    re-leases their *checkpoint*, and the rescuer resumes mid-run instead
    of restarting — with a bit-identical final result."""

    def _wait_for_checkpoint(self, coordinator, key, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with coordinator._lock:
                point = coordinator._points[key]
                if point.checkpoint is not None:
                    return dict(point.checkpoint)
            time.sleep(0.01)
        raise AssertionError("coordinator never recorded the streamed checkpoint")

    def test_rescuer_resumes_from_dead_workers_checkpoint(self):
        unit = make_unit(seed=7)
        straight = System(list(unit.traces), unit.config).run()
        store = InMemoryResultStore()
        coordinator = Coordinator([unit], store, **FAST)
        host, port = coordinator.start()
        try:
            doomed = FakeWorker((host, port), "doomed")
            work = doomed.lease_work()
            assert work["type"] == "work"
            assert work.get("checkpoint") is None  # fresh point: no prefix yet

            # Simulate half the point, stream the snapshot, then die holding
            # the lease — exactly what a SIGKILLed checkpointing worker
            # leaves behind.
            half = straight.total_cycles // 2
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=half)
            doomed.send(
                checkpoint_message("doomed", unit.key, system.cycle, checkpoint.snapshot(system))
            )
            self._wait_for_checkpoint(coordinator, unit.key)
            doomed.close()

            stats = run_worker(
                f"{host}:{port}",
                worker_id="rescuer",
                checkpoint_interval=200,
                log=lambda text: None,
            )
            assert stats.simulated == 1
            assert coordinator.wait(timeout=5)
            assert not coordinator.failed_keys
            # Resume-not-restart, proven by simulated-cycle accounting.
            log = coordinator.resume_log[unit.key]
            assert log["resumed_from"] == system.cycle > 0
            assert log["simulated_cycles"] == straight.total_cycles - system.cycle
            assert log["worker"] == "rescuer"
            assert store.get(unit.key) == straight
        finally:
            coordinator.stop()

    def test_coordinator_keeps_only_the_newest_checkpoint(self, unit_and_result):
        unit, result = unit_and_result
        coordinator = Coordinator([unit], InMemoryResultStore(), **FAST)
        host, port = coordinator.start()
        try:
            worker = FakeWorker((host, port), "streamer")
            assert worker.lease_work()["type"] == "work"
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=100)
            late = checkpoint.snapshot(system)
            worker.send(checkpoint_message("streamer", unit.key, 100, late))
            recorded = self._wait_for_checkpoint(coordinator, unit.key)
            assert recorded["cycle"] == 100
            # A stale duplicate (straggler at an earlier cycle) must not
            # overwrite the newer checkpoint.
            worker.send(checkpoint_message("streamer", unit.key, 50, b"stale"))
            worker.send({"type": "heartbeat", "key": unit.key})  # force ordering
            time.sleep(0.05)
            with coordinator._lock:
                assert coordinator._points[unit.key].checkpoint["cycle"] == 100
            worker.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
        finally:
            coordinator.stop()

    def test_worker_without_checkpointing_still_interoperates(self, unit_and_result):
        """A checkpoint attached to a re-lease is advisory: plain workers
        (no --checkpoint-interval) ignore it and restart from cycle 0."""
        unit, _ = unit_and_result
        store = InMemoryResultStore()
        coordinator = Coordinator([unit], store, **FAST)
        host, port = coordinator.start()
        try:
            doomed = FakeWorker((host, port), "doomed")
            assert doomed.lease_work()["type"] == "work"
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=100)
            doomed.send(
                checkpoint_message("doomed", unit.key, 100, checkpoint.snapshot(system))
            )
            self._wait_for_checkpoint(coordinator, unit.key)
            doomed.close()
            stats = run_worker(f"{host}:{port}", worker_id="plain", log=lambda text: None)
            assert stats.simulated == 1
            assert coordinator.wait(timeout=5)
            assert store.get(unit.key) == System(unit.traces, unit.config).run()
            assert unit.key not in coordinator.resume_log  # restarted, no accounting
        finally:
            coordinator.stop()


# ----------------------------------------------------------------- end to end


class TestDistributedSweep:
    KWARGS = dict(instructions=4_000)

    @pytest.fixture(scope="class")
    def serial_data(self):
        return fig6.run(cache=AloneRunCache(), apps=representative_subset(2), **self.KWARGS)

    def test_distributed_matches_serial_exactly(self, tmp_path, serial_data):
        store = ResultCache(tmp_path)
        executor = DistributedExecutor(spawn_workers=2, timeout=300)
        data = sweep_experiments(
            SweepRequest("fig6", **self.KWARGS), store=store, executor=executor,
            apps=representative_subset(2),
        )["fig6"]
        assert json.dumps(data, sort_keys=True) == json.dumps(serial_data, sort_keys=True)
        assert executor.last_coordinator.results_committed > 0

    def test_sweep_survives_sigkilled_worker(self, tmp_path, serial_data):
        """Kill one of two workers mid-sweep; output must stay bit-identical."""
        units = plan_experiment("fig6", apps=representative_subset(2), **self.KWARGS)
        store = ResultCache(tmp_path)
        coordinator = Coordinator(units, store, lease_timeout=5.0, retry_seconds=0.05)
        host, port = coordinator.start()
        victim = spawn_local_worker(host, port, 0)
        survivor = spawn_local_worker(host, port, 1)
        try:
            # Kill the victim as soon as it holds a lease (i.e. mid-point).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snapshot = coordinator.snapshot()
                if any(lease["worker"] == "local-0" for lease in snapshot["leases"]):
                    break
                if snapshot["completed"] == snapshot["points"]:
                    break  # tiny run finished before the kill; still a valid run
                time.sleep(0.01)
            victim.kill()  # SIGKILL: no goodbye, no flush — the TCP drop is the only signal
            assert coordinator.wait(timeout=300)
            assert not coordinator.failed_keys
        finally:
            victim.kill()
            survivor.wait(timeout=30)
            survivor.kill()
            coordinator.stop()

        for unit in units:
            assert store.get(unit.key) is not None
        replayed = sweep_experiments(
            SweepRequest("fig6", **self.KWARGS), store=store, apps=representative_subset(2)
        )["fig6"]
        assert json.dumps(replayed, sort_keys=True) == json.dumps(serial_data, sort_keys=True)

    def test_sigkilled_checkpointing_worker_resumes_not_restarts(self, tmp_path, serial_data):
        """SIGKILL a checkpoint-streaming worker mid-point: the rescuer must
        resume from the streamed checkpoint (simulated-cycle accounting
        proves it) and the sweep's export stays byte-identical to serial."""
        units = plan_experiment("fig6", apps=representative_subset(2), **self.KWARGS)
        store = ResultCache(tmp_path)
        # Only lease expiry may re-issue the victim's point (a straggler
        # re-issue could hand it out *before* the kill and commit a fresh,
        # non-resumed result, muddying the accounting we assert on).
        coordinator = Coordinator(
            units, store, lease_timeout=2.0, straggler_timeout=600.0, retry_seconds=0.05
        )
        host, port = coordinator.start()
        victim = spawn_local_worker(host, port, 0, checkpoint_interval=200)
        rescuer = None
        try:
            # Kill the victim the moment one of its points has a streamed
            # checkpoint on the coordinator — i.e. provably mid-point.
            target = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and target is None:
                with coordinator._lock:
                    for key, point in coordinator._points.items():
                        if point.checkpoint is not None and not point.done:
                            target = key
                            break
                if coordinator.wait(0):
                    break
                time.sleep(0.01)
            victim.kill()  # SIGKILL: no goodbye, no flush
            assert target is not None, "run finished before any checkpoint streamed"
            rescuer = spawn_local_worker(host, port, 1, checkpoint_interval=200)
            assert coordinator.wait(timeout=300)
            assert not coordinator.failed_keys
            log = coordinator.resume_log.get(target)
            assert log is not None, "victim's point was never resumed"
            assert log["resumed_from"] > 0  # resumed from the checkpoint, not cycle 0
            assert log["simulated_cycles"] > 0
        finally:
            victim.kill()
            if rescuer is not None:
                rescuer.wait(timeout=30)
                rescuer.kill()
            coordinator.stop()

        replayed = sweep_experiments(
            SweepRequest("fig6", **self.KWARGS), store=store, apps=representative_subset(2)
        )["fig6"]
        assert json.dumps(replayed, sort_keys=True) == json.dumps(serial_data, sort_keys=True)

    def test_executor_raises_when_points_cannot_complete(self):
        # The parametric TRNG demands an explicit throughput, so this unit
        # raises inside every worker that tries it: each attempt reports an
        # error and the bounded-retry path must surface the failure instead
        # of looping forever.
        traces = [make_trace("poison")]
        config = baseline_config(trng_name="parametric")
        broken = SimulationUnit(key=point_key(traces, config), traces=traces, config=config)
        executor = DistributedExecutor(spawn_workers=1, timeout=120, max_attempts=2)
        with pytest.raises(RuntimeError, match="exhausted"):
            executor.execute([broken], InMemoryResultStore())

    def test_executor_detects_dead_worker_fleet(self, monkeypatch):
        # Every self-spawned worker dies instantly: the run must error out
        # (points nobody will ever lease), not hang forever.
        import repro.distributed.executor as executor_module

        monkeypatch.setattr(
            executor_module,
            "spawn_local_worker",
            lambda host, port, index=0, **kwargs: subprocess.Popen(
                [sys.executable, "-c", "raise SystemExit(3)"]
            ),
        )
        executor = DistributedExecutor(spawn_workers=2, timeout=60)
        with pytest.raises(RuntimeError, match="self-spawned worker"):
            executor.execute([make_unit()], InMemoryResultStore())


class TestWorkerLoop:
    def test_worker_runs_in_process_against_coordinator(self, unit_and_result):
        """`run_worker` (the CLI's engine) drains a queue without subprocesses."""
        unit, _ = unit_and_result
        store = InMemoryResultStore()
        coordinator = Coordinator([unit], store, **FAST)
        host, port = coordinator.start()
        try:
            stats = run_worker(f"{host}:{port}", worker_id="inproc", log=lambda text: None)
            assert stats.simulated == 1
            assert coordinator.wait(timeout=5)
            assert store.get(unit.key) == System(unit.traces, unit.config).run()
        finally:
            coordinator.stop()

    def test_worker_rejects_bad_address(self):
        with pytest.raises(ValueError):
            run_worker("no-port-here", log=lambda text: None)


class TestCoordinatorShutdown:
    def test_reaper_exits_promptly_after_last_commit(self, unit_and_result):
        """The reaper blocks on the finished event, not a plain sleep, so
        the coordinator releases its threads (and port) the moment the
        last commit lands — not up to a full reaper interval later."""
        unit, result = unit_and_result
        # A long lease timeout pins the reaper interval at its 1s cap;
        # with the old `time.sleep(interval)` the reaper thread would
        # survive ~1s past the final commit and `stop()` would block on
        # joining it.
        coordinator = Coordinator(
            [unit], InMemoryResultStore(), lease_timeout=60.0, retry_seconds=0.05
        )
        address = coordinator.start()
        try:
            worker = FakeWorker(address)
            assert worker.lease_work()["type"] == "work"
            worker.finish(unit.key, result)
            assert coordinator.wait(timeout=5)
            reaper = next(
                thread
                for thread in coordinator._threads
                if thread.name == "coord-reaper"
            )
            reaper.join(timeout=0.5)
            assert not reaper.is_alive(), "reaper still sleeping after the run finished"
            start = time.monotonic()
            coordinator.stop()
            stop_latency = time.monotonic() - start
            assert stop_latency < 0.5, f"stop() took {stop_latency:.2f}s"
            worker.close()
        finally:
            coordinator.stop()
        # The port is released: a fresh coordinator can bind it again.
        rebound = socket.create_server(address, reuse_port=False)
        rebound.close()


class _BlockingFailingStore:
    """Store whose put blocks until released, then raises (fault injection)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, key):
        return None

    def put(self, key, result, figure=None):
        self.entered.set()
        if not self.release.wait(timeout=10):  # pragma: no cover - safety net
            raise AssertionError("fault-injection store never released")
        raise OSError("injected commit failure")


class TestCommitFailureSettlement:
    def test_point_settles_when_last_lease_dies_during_failing_commit(self, unit_and_result):
        """The race the settlement re-check closes: the point's last lease
        dies while its result is mid-commit, and the commit then fails.

        The lease revocation must defer settlement to the in-flight
        commit (a live commit may still complete the point), and the
        commit's failure path must then re-check settlement — otherwise
        the point stays permanently unsettled and the run never
        finishes."""
        unit, result = unit_and_result
        store = _BlockingFailingStore()
        coordinator = Coordinator([unit], store, max_attempts=1, **FAST)
        address = coordinator.start()
        try:
            committer = FakeWorker(address, "committer")
            straggler = FakeWorker(address, "straggler")
            assert committer.lease_work()["type"] == "work"
            # A straggler duplicate lease keeps a second lease alive.
            work = straggler.lease_work()
            assert work["type"] == "work" and work["unit"]["key"] == unit.key

            # The committer's result enters the (blocking) store commit.
            committer.send(
                {"type": "result", "key": unit.key, "result": result_to_wire(result)}
            )
            assert store.entered.wait(timeout=5), "commit never reached the store"

            # Now the last lease dies while point.committing is set; with
            # max_attempts=1 the attempt bound is already exhausted, so
            # only the commit-failure re-check can settle the point.
            straggler.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if not coordinator.snapshot()["leases"]:
                    break
                time.sleep(0.02)
            assert not coordinator.snapshot()["leases"], "straggler lease never revoked"

            # Let the commit fail.  The settlement re-check must mark the
            # point failed and finish the run instead of hanging it.
            store.release.set()
            assert coordinator.wait(timeout=5), "run hung on a permanently unsettled point"
            assert unit.key in coordinator.failed_keys
            assert "commit failed" in coordinator.failed_keys[unit.key]
            committer.close()
        finally:
            coordinator.stop()
