"""Tests for the distributed execution subsystem.

Covers the wire protocol codecs, the executor abstraction, the point
server's fault tolerance (dead connections, lease expiry, bounded
retries, straggler re-issue, checkpoint re-attachment, commit-failure
settlement), each driven on one ``repro serve`` job, and — the
acceptance bar — that a sweep sharded across localhost worker processes
is bit-identical to a serial run, including when one worker is
SIGKILLed mid-sweep.
"""

from __future__ import annotations

import contextlib
import json
import socket
import subprocess
import threading
import time

import pytest

from repro.cpu.trace import Trace, TraceEntry
from repro.distributed import (
    ServiceError,
    SweepClient,
    SweepService,
    WatchClient,
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
from repro.orchestration import (
    InMemoryResultStore,
    ProcessPoolExecutor,
    ResultCache,
    SerialExecutor,
    SimulationUnit,
    SweepRequest,
    canonical_data,
    point_key,
    sweep_experiments,
)
from repro.sim import checkpoint
from repro.sim.config import baseline_config, drstrange_config
from repro.sim.system import System


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
        """Every older peer is refused, in every role.  Protocol 1 work
        frames carried the TRNG entropy seed in their config, which this
        build cannot read; a protocol 2 welcome advertised features this
        build no longer sends."""
        service = SweepService(InMemoryResultStore())
        address = service.start()
        replies = []
        try:
            for protocol in (1, 2):
                for role in ("worker", "client", "observer"):
                    with socket.create_connection(address) as connection:
                        stale = dict(hello_message("stale", role=role), protocol=protocol)
                        connection.sendall(encode_message(stale))
                        replies.append(decode_message(connection.makefile("rb").readline()))
        finally:
            service.stop()
        assert len(replies) == 6
        for reply in replies:
            assert reply["type"] == "done"
            assert "protocol mismatch" in reply["error"]

    @pytest.mark.parametrize("client_class", [SweepClient, WatchClient])
    def test_clients_raise_on_a_protocol_mismatch(self, monkeypatch, client_class):
        """A client whose hello says protocol 2 is refused by this
        service, and says so at once."""
        from repro.distributed import client as client_module

        def protocol_2_hello(*args, **kwargs):
            return dict(hello_message(*args, **kwargs), protocol=2)

        monkeypatch.setattr(client_module, "hello_message", protocol_2_hello)
        service = SweepService(InMemoryResultStore())
        address = service.start()
        try:
            with pytest.raises(ServiceError, match="protocol mismatch"):
                client_class(address)
        finally:
            service.stop()

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


# ----------------------------------------------------------------- point server

# Short timings so the fault-tolerance paths run in test time.
FAST = dict(lease_timeout=0.4, straggler_timeout=0.3, retry_seconds=0.05)
#: Lease and straggler windows no hand-driven step can outlast, so only
#: the disconnects and error reports a test sends requeue anything.
PATIENT = dict(lease_timeout=30.0, straggler_timeout=60.0, retry_seconds=0.05)

#: Six small points: enough for the one-point tests, which act on the
#: first point leased and let honest workers finish the rest.
FIG5 = SweepRequest(experiments=("fig5",), instructions=1500)


def simulate(grant):
    """The result an honest worker commits for a ``work`` grant."""
    unit = unit_from_wire(grant["unit"])
    return System(unit.traces, unit.config).run()


def dumps(results) -> str:
    return json.dumps(canonical_data(dict(results)), indent=2, sort_keys=True)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class FakeWorker:
    """A hand-driven protocol client for exercising the service."""

    def __init__(self, address, name="fake"):
        self.connection = socket.create_connection(address)
        self.stream = self.connection.makefile("rb")
        # Heartbeat threads and the test thread share the socket.
        self._send_lock = threading.Lock()
        self.send(hello_message(name))
        self.welcome = self.receive()
        assert self.welcome["type"] == "welcome"

    def send(self, payload):
        with self._send_lock:
            self.connection.sendall(encode_message(payload))

    def receive(self):
        return decode_message(self.stream.readline())

    def lease(self):
        self.send({"type": "lease"})
        return self.receive()

    def lease_work(self, attempts=50):
        """Poll until the service hands out a point (or give up)."""
        for _ in range(attempts):
            reply = self.lease()
            if reply["type"] in ("work", "done"):
                return reply
            time.sleep(reply.get("seconds", 0.05))
        raise AssertionError("service never handed out work")

    def lease_point(self, key, attempts=50):
        """Lease until the service grants ``key``, finishing every other
        point granted first (a requeued point joins the back of the
        queue, and a straggler duplicate needs an empty queue)."""
        for _ in range(attempts):
            grant = self.lease_work()
            assert grant["type"] == "work"
            if grant["unit"]["key"] == key:
                return grant
            self.finish(grant["unit"]["key"], simulate(grant))
        raise AssertionError(f"service never granted {key[:12]}")

    def drain(self):
        """Finish every point granted until none is leasable; returns the
        reply that ended it."""
        while True:
            reply = self.lease()
            if reply["type"] != "work":
                return reply
            self.finish(reply["unit"]["key"], simulate(reply))

    def finish(self, key, result):
        self.send({"type": "result", "key": key, "result": result_to_wire(result)})
        assert self.receive()["type"] == "ack"

    def close(self):
        # The stream holds a reference to the socket: close both, or the
        # connection stays open and the service never sees it drop.
        try:
            self.stream.close()
            self.connection.close()
        except OSError:
            pass


@contextlib.contextmanager
def heartbeats(worker, key, interval=FAST["lease_timeout"] / 4):
    """Renew ``worker``'s lease on ``key`` in the background."""
    stop = threading.Event()

    def beat():
        while not stop.wait(interval):
            worker.send({"type": "heartbeat", "key": key})

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=2)


def start_worker_thread(address, name, **kwargs):
    """An in-process ``run_worker`` that serves until the service stops."""
    host, port = address

    def serve():
        try:
            run_worker(f"{host}:{port}", worker_id=name, log=lambda text: None, **kwargs)
        except OSError:
            pass  # service shut down mid-request

    thread = threading.Thread(target=serve, daemon=True, name=name)
    thread.start()
    return thread


class Fig5Job:
    """A started service running one fig5 job, with no workers yet."""

    def __init__(self, store=None, **knobs):
        self.store = InMemoryResultStore() if store is None else store
        self.service = SweepService(self.store, **knobs)
        self.address = self.service.start()
        self._events = self.service.events.subscribe()
        self._seen = []
        try:
            self.client = SweepClient(self.address)
            self.job_id = self.client.submit(FIG5)
            wait_until(lambda: self.client.poll(self.job_id).state == "running")
        except BaseException:
            self.service.stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.client.close()
        self.service.stop()

    def wait(self, timeout=30.0):
        """The job's terminal status."""
        return self.client.wait(self.job_id, timeout=timeout, interval=0.02)

    def events(self, kind, key=None):
        """Every ``kind`` event so far, optionally only those of point ``key``."""
        while not self._events.empty():
            self._seen.append(self._events.get_nowait())
        return [
            event for event in self._seen
            if event["kind"] == kind and key in (None, event.get("point"))
        ]

    def completed_by(self, worker):
        return self.service.status_payload()["workers"][worker]["completed"]


class TestLeaseFaultTolerance:
    def test_happy_path_commits_to_store(self):
        with Fig5Job(**FAST) as job:
            worker = FakeWorker(job.address)
            work = worker.lease_work()
            assert work["type"] == "work" and work["job"] == job.job_id
            key, result = work["unit"]["key"], simulate(work)
            worker.finish(key, result)
            assert job.store.get(key) == result
            assert worker.drain()["type"] == "wait"
            status = job.wait()
            assert status.state == "done" and status.executed == status.points
            # A service never runs out of work: nothing is leasable now,
            # but the worker is not sent away.
            assert worker.lease()["type"] == "wait"
            worker.close()

    def test_dead_connection_requeues_point(self):
        with Fig5Job(**PATIENT) as job:
            first = FakeWorker(job.address, "doomed")
            key = first.lease_work()["unit"]["key"]
            first.close()  # dies holding the lease
            second = FakeWorker(job.address, "survivor")
            work = second.lease_point(key)
            second.finish(key, simulate(work))
            assert job.wait().state == "done"
            requeues = job.events("point.requeue", key)
            assert [event["reason"] for event in requeues] == ["worker connection lost"]
            second.close()

    def test_lease_expires_without_heartbeats(self):
        # Only expiry can hand the point on: no straggler re-issue.
        with Fig5Job(lease_timeout=0.4, straggler_timeout=60.0, retry_seconds=0.05) as job:
            silent = FakeWorker(job.address, "silent")
            key = silent.lease_work()["unit"]["key"]
            # No heartbeats: the reaper must revoke the lease and hand the
            # point to the other worker while `silent` stays connected.
            other = FakeWorker(job.address, "other")
            work = other.lease_point(key)
            other.finish(key, simulate(work))
            assert job.wait().state == "done"
            assert [event["worker"] for event in job.events("lease.expire", key)] == ["silent"]
            silent.close()
            other.close()

    def test_heartbeats_keep_lease_alive(self):
        with Fig5Job(**FAST) as job:
            worker = FakeWorker(job.address, "beating")
            work = worker.lease_work()
            key = work["unit"]["key"]
            deadline = time.monotonic() + 3 * FAST["lease_timeout"]
            while time.monotonic() < deadline:
                worker.send({"type": "heartbeat", "key": key})
                time.sleep(FAST["lease_timeout"] / 4)
            # Lease must still be held (never requeued as an attempt).
            status = job.service.status_payload()
            assert status["leases"] == 1 and status["pending"] == status["points"] - 1
            assert not job.events("lease.expire")
            worker.finish(key, simulate(work))
            worker.drain()
            assert job.wait().state == "done"
            worker.close()

    def test_bounded_retries_mark_point_failed(self):
        with Fig5Job(max_attempts=2, **PATIENT) as job:
            key = None
            for attempt in range(2):
                worker = FakeWorker(job.address, f"crash-{attempt}")
                work = worker.lease_work() if key is None else worker.lease_point(key)
                key = work["unit"]["key"]
                worker.close()
            status = job.wait()
            assert status.state == "failed"
            assert status.error == f"point {key[:12]} failed: worker connection lost"

    def test_worker_error_reports_count_as_attempts(self):
        with Fig5Job(max_attempts=1, **FAST) as job:
            worker = FakeWorker(job.address, "buggy")
            key = worker.lease_work()["unit"]["key"]
            worker.send({"type": "error", "key": key, "error": "ValueError: boom"})
            assert worker.receive()["type"] == "ack"
            status = job.wait()
            assert status.state == "failed"
            assert status.error == f"point {key[:12]} failed: ValueError: boom"
            worker.close()

    def test_failed_duplicates_cannot_kill_a_live_lease(self):
        """Error reports against straggler duplicates must not fail a point
        that a healthy (heartbeating) worker is still simulating."""
        with Fig5Job(max_attempts=1, **FAST) as job:
            slow = FakeWorker(job.address, "slow")
            work = slow.lease_work()
            key = work["unit"]["key"]
            with heartbeats(slow, key):
                # A duplicate holder errors out; attempts now equal
                # max_attempts, but the slow worker's live lease must keep
                # the point alive.
                hurry = FakeWorker(job.address, "hurry")
                hurry.lease_point(key)
                hurry.send({"type": "error", "key": key, "error": "RuntimeError: flaky"})
                assert hurry.receive()["type"] == "ack"
                assert job.client.poll(job.job_id).state == "running"

                slow.finish(key, simulate(work))
                assert job.wait().state == "done"
            slow.close()
            hurry.close()

    def test_straggler_point_is_reissued(self):
        with Fig5Job(**FAST) as job:
            slow = FakeWorker(job.address, "slow")
            key = slow.lease_work()["unit"]["key"]
            # Keep the slow worker's lease alive so only the straggler
            # deadline (not lease expiry) can re-issue the point.
            with heartbeats(slow, key):
                hurry = FakeWorker(job.address, "hurry")
                work = hurry.lease_point(key)
                hurry.finish(key, simulate(work))
                assert job.wait().state == "done"
            granted = [event["worker"] for event in job.events("lease.grant", key)]
            assert granted == ["slow", "hurry"]
            slow.close()
            hurry.close()


class TestCheckpointResume:
    """Killed workers lose at most one checkpoint interval: the service
    re-leases their *checkpoint*, and the rescuer resumes mid-run instead
    of restarting — with a bit-identical final result."""

    def _wait_for_checkpoint(self, service, key, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with service._lock:
                point = service._points[key]
                if point.checkpoint is not None:
                    return dict(point.checkpoint)
            time.sleep(0.01)
        raise AssertionError("service never recorded the streamed checkpoint")

    def test_rescuer_resumes_from_dead_workers_checkpoint(self):
        with Fig5Job(**FAST) as job:
            doomed = FakeWorker(job.address, "doomed")
            work = doomed.lease_work()
            assert work["type"] == "work"
            assert work.get("checkpoint") is None  # fresh point: no prefix yet
            unit = unit_from_wire(work["unit"])
            straight = System(list(unit.traces), unit.config).run()

            # Simulate half the point, stream the snapshot, then die holding
            # the lease — exactly what a SIGKILLed checkpointing worker
            # leaves behind.
            half = straight.total_cycles // 2
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=half)
            doomed.send(
                checkpoint_message("doomed", unit.key, system.cycle, checkpoint.snapshot(system))
            )
            self._wait_for_checkpoint(job.service, unit.key)
            doomed.close()

            start_worker_thread(job.address, "rescuer", checkpoint_interval=200)
            status = job.wait()
            assert status.state == "done"
            assert job.completed_by("rescuer") == status.points
            # Resume-not-restart: the rescuer started at exactly the
            # checkpoint's cycle (it reports the cycles it simulated as
            # the total less that cycle) and finished bit-identically.
            (commit,) = job.events("point.commit", unit.key)
            assert commit["resumed_from"] == system.cycle > 0
            assert commit["worker"] == "rescuer"
            assert job.store.get(unit.key) == straight

    def test_coordinator_keeps_only_the_newest_checkpoint(self):
        """The service keeps only the newest checkpoint per point."""
        with Fig5Job(**FAST) as job:
            worker = FakeWorker(job.address, "streamer")
            work = worker.lease_work()
            assert work["type"] == "work"
            unit = unit_from_wire(work["unit"])
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=100)
            late = checkpoint.snapshot(system)
            worker.send(checkpoint_message("streamer", unit.key, 100, late))
            recorded = self._wait_for_checkpoint(job.service, unit.key)
            assert recorded["cycle"] == 100
            # A stale duplicate (straggler at an earlier cycle) must not
            # overwrite the newer checkpoint.  Frames are handled in
            # order, so the status reply proves it was processed.
            worker.send(checkpoint_message("streamer", unit.key, 50, b"stale"))
            worker.send({"type": "status"})
            assert worker.receive()["type"] == "status"
            with job.service._lock:
                assert job.service._points[unit.key].checkpoint["cycle"] == 100
            worker.finish(unit.key, simulate(work))
            worker.drain()
            assert job.wait().state == "done"
            worker.close()

    def test_worker_without_checkpointing_still_interoperates(self):
        """A checkpoint attached to a re-lease is advisory: plain workers
        (no --checkpoint-interval) ignore it and restart from cycle 0."""
        with Fig5Job(**FAST) as job:
            doomed = FakeWorker(job.address, "doomed")
            work = doomed.lease_work()
            assert work["type"] == "work"
            unit = unit_from_wire(work["unit"])
            system = System(list(unit.traces), unit.config)
            system.advance(stop_at=100)
            doomed.send(
                checkpoint_message("doomed", unit.key, 100, checkpoint.snapshot(system))
            )
            self._wait_for_checkpoint(job.service, unit.key)
            doomed.close()
            start_worker_thread(job.address, "plain")
            status = job.wait()
            assert status.state == "done"
            assert job.completed_by("plain") == status.points
            assert job.store.get(unit.key) == System(unit.traces, unit.config).run()
            (commit,) = job.events("point.commit", unit.key)
            assert commit["worker"] == "plain"
            assert "resumed_from" not in commit  # restarted, no accounting


# ----------------------------------------------------------------- end to end


def reap(workers):
    """Give spawned workers a moment to exit after the service stops, then kill."""
    for worker in workers:
        try:
            worker.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait(timeout=5.0)


class TestDistributedSweep:
    REQUEST = SweepRequest(experiments=("fig6",), instructions=4_000)

    @pytest.fixture(scope="class")
    def serial_data(self):
        return dumps(sweep_experiments(self.REQUEST, store=InMemoryResultStore()).data)

    def test_distributed_matches_serial_exactly(self, tmp_path, serial_data):
        service = SweepService(ResultCache(tmp_path))
        host, port = service.start()
        workers = [spawn_local_worker(host, port, index) for index in range(2)]
        try:
            with SweepClient((host, port)) as client:
                job_id = client.submit(self.REQUEST)
                status = client.wait(job_id, timeout=300)
                assert status.state == "done" and status.executed > 0
                assert dumps(client.results(job_id)) == serial_data
        finally:
            service.stop()
            reap(workers)

    def test_sweep_survives_sigkilled_worker(self, tmp_path, serial_data):
        """Kill one of two workers mid-sweep; output must stay bit-identical."""
        store = ResultCache(tmp_path)
        service = SweepService(store, lease_timeout=5.0, retry_seconds=0.05)
        host, port = service.start()
        victim = spawn_local_worker(host, port, 0)
        survivor = spawn_local_worker(host, port, 1)
        try:
            with SweepClient((host, port)) as client:
                job_id = client.submit(self.REQUEST)
                # Kill the victim as soon as it is granted a lease (i.e. mid-point).
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    workers = service.status_payload()["workers"]
                    if workers.get("local-0", {}).get("leases"):
                        break
                    if client.poll(job_id).finished:
                        break  # tiny run finished before the kill; still a valid run
                    time.sleep(0.01)
                victim.kill()  # SIGKILL: no goodbye, no flush — the TCP drop is the only signal
                status = client.wait(job_id, timeout=300)
                assert status.state == "done"
                assert dumps(client.results(job_id)) == serial_data
        finally:
            victim.kill()
            service.stop()
            reap([victim, survivor])

        replayed = sweep_experiments(self.REQUEST, store=store)
        assert replayed.stats.executed == 0  # every point was committed
        assert dumps(replayed.data) == serial_data

    def test_sigkilled_checkpointing_worker_resumes_not_restarts(self, tmp_path, serial_data):
        """SIGKILL a checkpoint-streaming worker mid-point: the rescuer must
        resume from the streamed checkpoint (the commit's resume
        accounting proves it) and the export stays byte-identical to serial."""
        store = ResultCache(tmp_path)
        # Only lease expiry may re-issue the victim's point (a straggler
        # re-issue could hand it out *before* the kill and commit a fresh,
        # non-resumed result, muddying the accounting we assert on).
        service = SweepService(
            store, lease_timeout=2.0, straggler_timeout=600.0, retry_seconds=0.05
        )
        host, port = service.start()
        events = service.events.subscribe()
        victim = spawn_local_worker(host, port, 0, checkpoint_interval=200)
        rescuer = None
        try:
            with SweepClient((host, port)) as client:
                job_id = client.submit(self.REQUEST)
                # Kill the victim the moment one of its points has a
                # streamed checkpoint on the service — i.e. provably mid-point.
                target = None
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline and target is None:
                    with service._lock:
                        for key, point in service._points.items():
                            if point.checkpoint is not None:
                                target = key
                                break
                    if client.poll(job_id).finished:
                        break
                    time.sleep(0.01)
                victim.kill()  # SIGKILL: no goodbye, no flush
                assert target is not None, "run finished before any checkpoint streamed"
                rescuer = spawn_local_worker(host, port, 1, checkpoint_interval=200)
                status = client.wait(job_id, timeout=300)
                assert status.state == "done"
                assert dumps(client.results(job_id)) == serial_data
        finally:
            victim.kill()
            service.stop()
            reap([victim] + ([rescuer] if rescuer is not None else []))

        commits = []
        while not events.empty():
            event = events.get_nowait()
            if event["kind"] == "point.commit" and event["point"] == target:
                commits.append(event)
        assert commits, "victim's point was never committed"
        # Resumed from the checkpoint, not cycle 0.
        assert commits[-1]["resumed_from"] > 0


class TestWorkerLoop:
    def test_worker_runs_in_process_against_coordinator(self):
        """`run_worker` (the CLI's engine) drains a job without subprocesses."""
        serial = InMemoryResultStore()
        planned = sweep_experiments(FIG5, store=serial).stats.points
        with Fig5Job(**FAST) as job:
            start_worker_thread(job.address, "inproc")
            status = job.wait()
            assert status.state == "done"
            assert job.completed_by("inproc") == status.points == len(planned)
            for key in planned:
                assert job.store.get(key) == serial.get(key)

    def test_worker_rejects_bad_address(self):
        with pytest.raises(ValueError):
            run_worker("no-port-here", log=lambda text: None)


class TestServerShutdown:
    def test_stop_is_prompt_and_releases_the_port(self):
        """The reaper blocks on the shutdown event, not a plain sleep, so
        ``stop()`` joins it at once and releases the port — not up to a
        full reaper interval later."""
        # A long lease timeout pins the reaper interval at its 1s cap;
        # with a `time.sleep(interval)` reaper `stop()` would block on
        # joining it for up to that long.
        with Fig5Job(lease_timeout=60.0, retry_seconds=0.05) as job:
            worker = FakeWorker(job.address)
            work = worker.lease_work()
            worker.finish(work["unit"]["key"], simulate(work))
            reaper = next(
                thread for thread in job.service._threads if thread.name == "service-reaper"
            )
            start = time.monotonic()
            job.service.stop()
            stop_latency = time.monotonic() - start
            assert stop_latency < 0.5, f"stop() took {stop_latency:.2f}s"
            assert not reaper.is_alive()
            worker.close()
        # The port is released: a fresh service can bind it again.
        rebound = socket.create_server(job.address, reuse_port=False)
        rebound.close()


class _BlockingFailingStore(InMemoryResultStore):
    """Store whose put of one key blocks until released, then raises
    (fault injection); every other key commits normally."""

    def __init__(self):
        super().__init__()
        self.key = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def put(self, key, result, figure=None):
        if key != self.key:
            return super().put(key, result, figure=figure)
        self.entered.set()
        if not self.release.wait(timeout=10):  # pragma: no cover - safety net
            raise AssertionError("fault-injection store never released")
        raise OSError("injected commit failure")


class TestCommitFailureSettlement:
    def test_point_settles_when_last_lease_dies_during_failing_commit(self):
        """The race the settlement re-check closes: the point's last lease
        dies while its result is mid-commit, and the commit then fails.

        The lease revocation must defer settlement to the in-flight
        commit (a live commit may still complete the point), and the
        commit's failure path must then re-check settlement — otherwise
        the point stays permanently unsettled and its job never
        finishes."""
        store = _BlockingFailingStore()
        # No lease expires; a straggler duplicate comes after 0.3s.
        knobs = dict(lease_timeout=30.0, straggler_timeout=0.3, retry_seconds=0.05)
        with Fig5Job(store, max_attempts=1, **knobs) as job:
            committer = FakeWorker(job.address, "committer")
            straggler = FakeWorker(job.address, "straggler")
            work = committer.lease_work()
            assert work["type"] == "work"
            key = store.key = work["unit"]["key"]
            # A straggler duplicate lease keeps a second lease alive.
            straggler.lease_point(key)

            # The committer's result enters the (blocking) store commit.
            committer.send(
                {"type": "result", "key": key, "result": result_to_wire(simulate(work))}
            )
            assert store.entered.wait(timeout=5), "commit never reached the store"

            # Now the last lease dies while point.committing is set; with
            # max_attempts=1 the attempt bound is already exhausted, so
            # only the commit-failure re-check can settle the point.
            straggler.close()
            wait_until(lambda: job.service.status_payload()["leases"] == 0, timeout=5)

            # Let the commit fail.  The settlement re-check must mark the
            # point failed and fail the job instead of hanging it.
            store.release.set()
            status = job.wait(timeout=5)
            assert status.state == "failed", "job hung on a permanently unsettled point"
            assert status.error == f"point {key[:12]} failed: result store commit failed"
            committer.close()
