"""Tests for the sweep service: job protocol, lease order, equivalence.

Covers the service's submit/poll/cancel/jobs protocol including its
error paths, the round-robin lease order across running jobs observed
through the ``job`` field of work grants — and the acceptance bar: two
concurrent clients sharing one worker fleet get results byte-identical
to serial runs, with overlapping points simulated exactly once.
"""

from __future__ import annotations

import collections
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.distributed import (
    SweepClient,
    SweepService,
    WatchClient,
)
from repro.distributed.protocol import (
    checkpoint_message,
    decode_message,
    encode_message,
    hello_message,
    unit_from_wire,
)
from repro.orchestration import (
    InMemoryResultStore,
    ResultCache,
    SweepRequest,
    sweep_experiments,
)
from repro.orchestration import sweep as sweep_module
from repro.sim import checkpoint
from repro.sim.system import System
from tests.test_distributed import (
    FAST,
    FIG5,
    PATIENT,
    dumps,
    start_worker_thread,
    wait_until,
)


# ----------------------------------------------------------------- protocol


class FakeClient:
    """A hand-driven protocol client for exercising the service directly."""

    def __init__(self, address, name="fake-tenant", role="client"):
        self.connection = socket.create_connection(address)
        self.stream = self.connection.makefile("rb")
        self.send(hello_message(name, role=role))
        self.welcome = self.receive()
        assert self.welcome["type"] == "welcome"

    def send(self, payload):
        self.connection.sendall(encode_message(payload))

    def receive(self):
        return decode_message(self.stream.readline())

    def rpc(self, payload):
        self.send(payload)
        return self.receive()

    def submit(self, request, tenant=None):
        payload = {"type": "submit", "request": request.to_wire()}
        if tenant is not None:
            payload["tenant"] = tenant
        return self.rpc(payload)

    def poll_until(self, job_id, states, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.rpc({"type": "poll", "job": job_id})
            if reply.get("state") in states:
                return reply
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never reached {states}")

    def lease_work(self, attempts=100):
        for _ in range(attempts):
            reply = self.rpc({"type": "lease"})
            if reply["type"] in ("work", "done"):
                return reply
            time.sleep(reply.get("seconds", 0.05))
        raise AssertionError("service never handed out work")

    def close(self):
        # The stream holds a reference to the socket: close both, or the
        # connection stays open and the service never sees it drop.
        try:
            self.stream.close()
            self.connection.close()
        except OSError:
            pass


@pytest.fixture
def service():
    store = InMemoryResultStore()
    svc = SweepService(store, **FAST)
    address = svc.start()
    try:
        yield svc, address, store
    finally:
        svc.stop()


FIG6 = SweepRequest(experiments=("fig6",), instructions=1500)
BOTH = SweepRequest(experiments=("fig5", "fig6"), instructions=1500)


class TestServiceProtocol:
    def test_submit_rejects_unknown_experiment(self, service):
        _, address, _ = service
        client = FakeClient(address)
        bad = {"type": "submit", "request": {"experiments": ["nope"]}}
        reply = client.rpc(bad)
        assert reply["type"] == "error" and "nope" in reply["error"]
        client.close()

    def test_submit_rejects_malformed_request(self, service):
        _, address, _ = service
        client = FakeClient(address)
        assert client.rpc({"type": "submit", "request": "fig5"})["type"] == "error"
        assert client.rpc({"type": "submit"})["type"] == "error"
        client.close()

    def test_poll_and_cancel_unknown_job(self, service):
        _, address, _ = service
        client = FakeClient(address)
        assert client.rpc({"type": "poll", "job": "job-9999"})["type"] == "error"
        assert client.rpc({"type": "cancel", "job": "job-9999"})["type"] == "error"
        client.close()

    def test_unknown_message_kind_is_an_error_reply(self, service):
        _, address, _ = service
        client = FakeClient(address)
        assert client.rpc({"type": "frobnicate"})["type"] == "error"
        client.close()

    def test_cancel_pending_job_with_no_workers(self, service):
        _, address, _ = service
        client = FakeClient(address)
        job_id = client.submit(FIG5)["job"]
        client.poll_until(job_id, ("running",))
        reply = client.rpc({"type": "cancel", "job": job_id})
        assert reply["state"] == "cancelled"
        # Terminal states are sticky: a second cancel is a no-op reply.
        assert client.rpc({"type": "cancel", "job": job_id})["state"] == "cancelled"
        client.close()

    def test_jobs_listing_reflects_submissions(self, service):
        _, address, _ = service
        client = FakeClient(address)
        job_id = client.submit(FIG5, tenant="alice")["job"]
        client.poll_until(job_id, ("running",))
        reply = client.rpc({"type": "jobs"})
        assert reply["type"] == "jobs"
        assert reply["jobs"][job_id]["tenant"] == "alice"
        assert reply["jobs"][job_id]["experiments"] == ["fig5"]
        client.close()

    def test_status_payload_carries_jobs_and_scheduler(self, service):
        svc, address, _ = service
        client = FakeClient(address)
        job_id = client.submit(FIG5)["job"]
        client.poll_until(job_id, ("running",))
        payload = svc.status_payload()
        from repro.telemetry.status import validate_status

        assert validate_status(payload) == []
        assert job_id in payload["jobs"]
        client.close()


# ----------------------------------------------------------------- fairness (service level)


class TestServiceFairness:
    def test_leases_alternate_between_running_jobs(self):
        """A job submitted while another runs gets the very next lease,
        and from then on the two alternate until one runs dry."""
        store = InMemoryResultStore()
        # Long lease/straggler windows: the hand-driven worker never
        # heartbeats, and expiry-requeue noise would blur the grant order
        # this test asserts on.
        svc = SweepService(
            store, lease_timeout=30.0, straggler_timeout=60.0, retry_seconds=0.05
        )
        address = svc.start()
        try:
            first = FakeClient(address, "fig6-tenant")
            fig6_id = first.submit(FIG6)["job"]
            first.poll_until(fig6_id, ("running",))

            worker = FakeClient(address, "hand-worker", role="worker")
            for _ in range(3):  # the fig6 job is already being served
                assert worker.lease_work()["job"] == fig6_id

            second = FakeClient(address, "fig5-tenant")
            fig5_id = second.submit(FIG5)["job"]  # 6 points fig6 does not share
            second.poll_until(fig5_id, ("running",))

            grants = [worker.lease_work()["job"] for _ in range(12)]
            assert grants == [fig5_id, fig6_id] * 6
            # fig5 has no points left to lease; fig6 carries on alone.
            assert worker.lease_work()["job"] == fig6_id
            for client in (first, second, worker):
                client.close()
        finally:
            svc.stop()


# ----------------------------------------------------------------- equivalence


class TestTwoClientEquivalence:
    def test_concurrent_overlapping_jobs_match_serial_byte_for_byte(self):
        serial_both = sweep_experiments(BOTH, store=InMemoryResultStore())
        serial_fig6 = sweep_experiments(FIG6, store=InMemoryResultStore())
        distinct_points = serial_both.stats.planned  # fig5 ∪ fig6

        store = InMemoryResultStore()
        svc = SweepService(store, **FAST)
        address = svc.start()
        workers = []
        try:
            workers = [start_worker_thread(address, f"inproc-{i}") for i in range(2)]
            with SweepClient(address, tenant="alice") as alice, \
                    SweepClient(address, tenant="bob") as bob:
                job1 = alice.submit(BOTH)
                job2 = bob.submit(FIG6)
                status1 = alice.wait(job1, timeout=120)
                status2 = bob.wait(job2, timeout=120)
                assert status1.state == "done" and status2.state == "done"

                # Byte-identical exports: the service's replay is the
                # serial code path reading the same store.
                assert dumps(alice.results(job1)) == dumps(serial_both.data)
                assert dumps(bob.results(job2)) == dumps(serial_fig6.data)

                # Every distinct point was simulated exactly once across
                # the two jobs; the fig6 overlap was shared, not re-run.
                assert status1.executed + status2.executed == distinct_points
                assert status1.executed + status1.reused == status1.points
                assert status2.executed + status2.reused == status2.points
                assert status2.points == serial_fig6.stats.planned
        finally:
            svc.stop()
            for thread in workers:
                thread.join(timeout=5)

    def test_tenants_on_different_engines_are_isolated(self):
        """Tenant A on `tick`, tenant B on `event`, one shared fleet.

        The engine override travels inside each request and is applied
        thread-scoped end to end (planning bakes it into the unit
        configs, the workers honour it per point), so concurrent tenants
        on different engines cannot cross-contaminate — and because the
        engines are bit-identical, both exports byte-match the plain
        serial runs.
        """
        serial_fig5 = sweep_experiments(FIG5, store=InMemoryResultStore())
        serial_fig6 = sweep_experiments(FIG6, store=InMemoryResultStore())
        tick_fig5 = SweepRequest(experiments=("fig5",), instructions=1500, engine="tick")
        event_fig6 = SweepRequest(experiments=("fig6",), instructions=1500, engine="event")

        def tick_runs() -> int:
            return telemetry.snapshot()["counters"].get("sim.runs.tick", 0)

        tick_runs_before = tick_runs()
        store = InMemoryResultStore()
        svc = SweepService(store, **FAST)
        address = svc.start()
        workers = []
        try:
            workers = [start_worker_thread(address, f"inproc-eng-{i}") for i in range(2)]
            with SweepClient(address, tenant="alice") as alice, \
                    SweepClient(address, tenant="bob") as bob:
                job1 = alice.submit(tick_fig5)
                job2 = bob.submit(event_fig6)
                status1 = alice.wait(job1, timeout=120)
                status2 = bob.wait(job2, timeout=120)
                assert status1.state == "done" and status2.state == "done"
                assert dumps(alice.results(job1)) == dumps(serial_fig5.data)
                assert dumps(bob.results(job2)) == dumps(serial_fig6.data)
        finally:
            svc.stop()
            for thread in workers:
                thread.join(timeout=5)
        # The tick tenant's points really ran under `tick` (the
        # in-process workers record every run in the process registry).
        assert tick_runs() > tick_runs_before

    def test_second_submit_after_completion_is_all_reuse(self, monkeypatch):
        store = InMemoryResultStore()
        svc = SweepService(store, **FAST)
        address = svc.start()
        workers = []
        try:
            workers = [start_worker_thread(address, "inproc-reuse")]
            with SweepClient(address) as client:
                first = client.run(FIG5, timeout=120)
                # Every point is already in the shared store: the probe's
                # data is the job's result, so the job touches neither the
                # fleet nor a replay, and runs each figure once.
                figure_runs = collections.Counter()
                run_figure = sweep_module._run_figure

                def counting_run_figure(module, kwargs):
                    figure_runs[module.__name__] += 1
                    return run_figure(module, kwargs)

                monkeypatch.setattr(sweep_module, "_run_figure", counting_run_figure)
                status = client.wait(client.submit(FIG5), timeout=30)
                assert status.state == "done"
                assert status.executed == 0
                assert status.reused == status.points
                assert list(figure_runs.values()) == [1] * len(FIG5.experiments)
                assert dumps(client.results(status.job_id)) == dumps(first)

                def no_replay(self, job):
                    raise AssertionError(f"warm job {job.job_id} was replayed")

                monkeypatch.setattr(SweepService, "_finalize_job", no_replay)
                again = client.wait(client.submit(FIG5), timeout=10)
                assert again.state == "done"
                assert dumps(client.results(again.job_id)) == dumps(first)
        finally:
            svc.stop()
            for thread in workers:
                thread.join(timeout=5)


# ----------------------------------------------------------------- sockets & shutdown


def nodelay(connection) -> int:
    return connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestNoDelay:
    """Every protocol socket disables Nagle on both ends.  A worker
    follows each ``ack`` with an unanswered ``metrics`` frame and then
    its next ``lease``; under Nagle that ``lease`` waits for the peer's
    delayed ACK of ``metrics``."""

    def test_worker_and_client_sockets_and_service_accepted_ones(self, monkeypatch):
        opened = []
        real_create_connection = socket.create_connection

        def recording_create_connection(*args, **kwargs):
            connection = real_create_connection(*args, **kwargs)
            opened.append(connection)
            return connection

        monkeypatch.setattr(socket, "create_connection", recording_create_connection)
        svc = SweepService(InMemoryResultStore(), **FAST)
        address = svc.start()
        worker = None
        try:
            worker = start_worker_thread(address, "nodelay-worker")
            with SweepClient(address) as client, WatchClient(address) as watcher:
                wait_until(lambda: "nodelay-worker" in svc.status_payload()["workers"])
                with svc._lock:
                    accepted = list(svc._connections.values())
                assert len(opened) == 3 and len(accepted) == 3
                assert client._connection in opened and watcher._connection in opened
                assert all(nodelay(connection) for connection in opened + accepted)
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)


class TestServiceShutdown:
    def test_stop_leaves_no_planner_or_finalizer_alive(self, monkeypatch):
        """Planners start from connection threads and finalizers from
        commits, while the accept loop prunes the thread list.  ``stop()``
        must join every one of them and start none after it has begun."""
        real_plan, real_finalize = SweepService._plan_job, SweepService._finalize_job

        def slow_plan(self, job):
            time.sleep(0.05)
            real_plan(self, job)

        def slow_finalize(self, job):
            time.sleep(0.3)
            real_finalize(self, job)

        monkeypatch.setattr(SweepService, "_plan_job", slow_plan)
        monkeypatch.setattr(SweepService, "_finalize_job", slow_finalize)
        before = set(threading.enumerate())
        svc = SweepService(InMemoryResultStore(), **FAST)
        address = svc.start()
        worker = None
        try:
            worker = start_worker_thread(address, "shutdown-worker")
            for index in range(3):  # finalizers in flight at stop()
                # Each job misses its own points, so its last commit
                # spawns a finalizer (a warm job would need none).
                request = SweepRequest(experiments=("fig5",), instructions=1500 + 100 * index)
                with SweepClient(address, tenant=f"replayed-{index}") as client:
                    job_id = client.submit(request)
                    wait_until(
                        lambda: client.poll(job_id).state in ("finalizing", "done"), timeout=60
                    )
            for index in range(3):  # planners in flight at stop()
                with SweepClient(address, tenant=f"planning-{index}") as client:
                    client.submit(FIG5)
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)
        assert worker is not None and not worker.is_alive()
        leftover = [
            thread.name
            for thread in threading.enumerate()
            if thread not in before
            and thread.name.startswith(("service-plan-", "service-final-"))
        ]
        assert leftover == []


# ----------------------------------------------------------------- service fault tolerance


def lease_for_job(worker, job_id, attempts=20):
    """Lease points until one is granted for ``job_id``."""
    for _ in range(attempts):
        grant = worker.lease_work()
        if grant.get("job") == job_id:
            return grant
    raise AssertionError(f"no point was leased for {job_id}")


class TestServiceFaultTolerance:
    def test_disconnected_workers_point_is_relisted_and_its_job_finishes(self):
        svc = SweepService(InMemoryResultStore(), **PATIENT)
        address = svc.start()
        events = svc.events.subscribe()
        worker = None
        try:
            with SweepClient(address) as client:
                job_id = client.submit(FIG5)
                wait_until(lambda: client.poll(job_id).state == "running")
                doomed = FakeClient(address, "doomed", role="worker")
                grant = doomed.lease_work()
                key = grant["unit"]["key"]
                assert grant["job"] == job_id
                doomed.close()  # dies holding the lease

                def relisted():
                    with svc._lock:
                        return key in svc._jobs[job_id].queue

                wait_until(relisted)
                worker = start_worker_thread(address, "survivor")
                status = client.wait(job_id, timeout=120)
                assert status.state == "done"
                assert status.executed == status.points
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)
        granted = []
        while not events.empty():
            event = events.get_nowait()
            if event["kind"] == "lease.grant" and event["point"] == key:
                granted.append(event["worker"])
        assert granted == ["doomed", "survivor"]

    def test_exhausted_shared_point_fails_every_subscriber_then_replans(self):
        serial_fig6 = sweep_experiments(FIG6, store=InMemoryResultStore())
        svc = SweepService(InMemoryResultStore(), max_attempts=1, **PATIENT)
        address = svc.start()
        worker = None
        try:
            with SweepClient(address, tenant="alice") as alice, \
                    SweepClient(address, tenant="bob") as bob:
                both_id = alice.submit(BOTH)
                wait_until(lambda: alice.poll(both_id).state == "running")
                fig6_id = bob.submit(FIG6)
                wait_until(lambda: bob.poll(fig6_id).state == "running")

                buggy = FakeClient(address, "buggy", role="worker")
                key = lease_for_job(buggy, fig6_id)["unit"]["key"]
                with svc._lock:
                    assert svc._points[key].jobs == {both_id, fig6_id}
                error = {"type": "error", "key": key, "error": "ValueError: boom"}
                assert buggy.rpc(error)["type"] == "ack"

                reason = f"point {key[:12]} failed: ValueError: boom"
                for client, job_id in ((alice, both_id), (bob, fig6_id)):
                    status = client.poll(job_id)
                    assert status.state == "failed" and status.error == reason
                buggy.close()
                wait_until(lambda: svc.status_payload()["leases"] == 0)

                # The failed point was dropped, not kept failed: a
                # resubmit plans it afresh with a full attempt budget.
                again = bob.submit(FIG6)
                wait_until(lambda: bob.poll(again).state == "running")
                with svc._lock:
                    point = svc._points[key]
                    assert point.attempts == 0 and point.jobs == {again}
                worker = start_worker_thread(address, "healthy")
                assert bob.wait(again, timeout=120).state == "done"
                assert dumps(bob.results(again)) == dumps(serial_fig6.data)
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)

    @pytest.mark.parametrize("lease_ends", ["disconnect", "expiry"])
    def test_leased_point_of_a_cancelled_job_is_dropped_when_its_lease_dies(self, lease_ends):
        """Cancelling a job keeps its leased point for the commit; when
        the lease dies instead, no live job needs the point, so it is
        dropped rather than queued for nobody."""
        timings = PATIENT if lease_ends == "disconnect" else FAST
        svc = SweepService(InMemoryResultStore(), **timings)
        address = svc.start()
        holder = None
        try:
            with SweepClient(address) as client:
                job_id = client.submit(FIG5)
                wait_until(lambda: client.poll(job_id).state == "running")
                holder = FakeClient(address, "holder", role="worker")
                key = holder.lease_work()["unit"]["key"]
                assert client.cancel(job_id).state == "cancelled"
                with svc._lock:
                    assert list(svc._points) == [key]
                if lease_ends == "disconnect":
                    holder.close()
                wait_until(lambda: not svc._points)
                assert svc.status_payload()["pending"] == 0
        finally:
            if holder is not None:
                holder.close()
            svc.stop()


class TestServiceCheckpointResume:
    """Checkpointing workers stay in the fleet: the service stores each
    streamed snapshot and attaches it to the point's next lease."""

    def test_checkpointing_worker_drains_a_job_and_stays_connected(self):
        svc = SweepService(InMemoryResultStore(), **FAST)
        address = svc.start()
        worker = None
        try:
            worker = start_worker_thread(address, "ckpt-worker", checkpoint_interval=200)
            with SweepClient(address) as client:
                status = client.wait(client.submit(FIG5), timeout=60)
                assert status.state == "done"
                assert status.executed == status.points
            counters = svc.status_payload()["metrics"]["counters"]
            assert counters["service.checkpoints"] > 0
            assert worker.is_alive(), "the checkpointing worker left the fleet"
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)

    def test_dead_workers_checkpoint_rides_the_next_lease(self):
        serial = sweep_experiments(FIG5, store=InMemoryResultStore())
        svc = SweepService(InMemoryResultStore(), **PATIENT)
        address = svc.start()
        worker = None
        try:
            with SweepClient(address) as client:
                job_id = client.submit(FIG5)
                wait_until(lambda: client.poll(job_id).state == "running")
                doomed = FakeClient(address, "doomed", role="worker")
                grant = doomed.lease_work()
                unit = unit_from_wire(grant["unit"])
                system = System(list(unit.traces), unit.config)
                system.advance(stop_at=100)
                snapshot = checkpoint.snapshot(system)
                doomed.send(checkpoint_message("doomed", unit.key, system.cycle, snapshot))
                # Frames are handled in order: the status reply proves the
                # checkpoint was processed (and drew no reply of its own).
                assert doomed.rpc({"type": "status"})["type"] == "status"
                doomed.close()

                rescuer = FakeClient(address, "rescuer", role="worker")
                for _ in range(20):
                    relet = rescuer.lease_work()
                    if relet["unit"]["key"] == unit.key:
                        break
                assert relet["unit"]["key"] == unit.key
                assert relet["checkpoint"]["cycle"] == system.cycle > 0
                rescuer.close()

                worker = start_worker_thread(address, "finisher", checkpoint_interval=200)
                assert client.wait(job_id, timeout=120).state == "done"
                assert dumps(client.results(job_id)) == dumps(serial.data)
            counters = svc.status_payload()["metrics"]["counters"]
            assert counters["service.points_resumed"] == 1
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)


# ----------------------------------------------------------------- store faults


class TestServiceStore:
    @pytest.mark.parametrize("entry", ["non-object", "other-schema"])
    def test_non_object_store_entry_is_resimulated(self, tmp_path, entry):
        """An entry the store cannot serve is a miss, planned for the
        fleet like any other.  One that is valid JSON but not an object
        is corrupt: planning deletes it instead of dying, so the job does
        not stay ``planning`` forever.  One of another schema version is
        kept until the commit overwrites it, and is never counted as
        reused."""
        warm = ResultCache(tmp_path / "warm")
        serial = sweep_experiments(FIG5, store=warm)
        key = sorted(serial.stats.points)[0]
        if entry == "non-object":
            text = "[1, 2]"
        else:
            text = json.dumps(dict(json.loads(Path(warm._path(key)).read_text()), schema=-1))
        store = ResultCache(tmp_path / "service")
        path = Path(store._path(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        svc = SweepService(store, **FAST)
        address = svc.start()
        worker = None
        try:
            worker = start_worker_thread(address, "resimulator")
            with SweepClient(address) as client:
                status = client.wait(client.submit(FIG5), timeout=30)
                assert status.state == "done"
                assert status.executed == status.points
                assert dumps(client.results(status.job_id)) == dumps(serial.data)
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)

    def test_status_cache_line_counts_points(self, tmp_path):
        """``status`` reports the points the jobs reused and simulated,
        not store lookups (a cold point is looked up by its job's probe
        and again under the lock; a replay reads a point once per figure
        that uses it)."""
        from repro.telemetry.status import format_status

        svc = SweepService(ResultCache(tmp_path), **FAST)
        address = svc.start()
        worker = None
        try:
            worker = start_worker_thread(address, "status-points")
            with SweepClient(address) as client:
                cold = client.wait(
                    client.submit(SweepRequest(("fig5", "fig6", "fig13"), instructions=2_000)),
                    timeout=120,
                )
                warm = client.wait(
                    client.submit(SweepRequest(("fig6",), instructions=2_000)), timeout=30
                )
            assert (cold.points, cold.executed, warm.points, warm.reused) == (43, 43, 25, 25)
            payload = svc.status_payload()
            assert payload["cache"] == {"hits": 25, "misses": 43}
            assert "25 points reused / 43 simulated (hit rate 37%)" in format_status(payload)
        finally:
            svc.stop()
            if worker is not None:
                worker.join(timeout=5)
