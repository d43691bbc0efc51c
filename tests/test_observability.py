"""Tests for the causal event-trace layer (the observability PR).

Covers the event bus's ordering guarantees (total ``seq`` order to every
subscriber, even under concurrent emits), the persisted journals and
their Chrome trace-event export, the streaming ``watch`` protocol
(subscribe/unsubscribe, delta ordering over the wire, tolerance of
unknown fields), the service journal replay that makes job history
survive a daemon restart, per-point provenance in sweep stats and run
manifests, the engine phase profile — and the acceptance bar throughout:
tracing on, off or absent never changes a single result bit.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import telemetry
from repro.distributed import SweepService, WatchClient
from repro.distributed.client import ServiceError
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    encode_message,
    hello_message,
    read_message,
)
from repro.orchestration import (
    InMemoryResultStore,
    ResultCache,
    SweepRequest,
    canonical_data,
    sweep_experiments,
)
from repro.telemetry.events import EventBus, isolated_bus
from repro.telemetry.status import _format_eta, format_event
from repro.telemetry.trace import (
    TraceJournal,
    export_chrome_trace,
    list_journals,
    profile_counters,
    read_journal,
    traces_dir,
    validate_chrome_trace,
)

FIG5 = SweepRequest(experiments=("fig5",), instructions=1500)

#: Service knobs matching tests/test_service.py's FAST profile.
FAST = dict(lease_timeout=0.4, straggler_timeout=0.3, retry_seconds=0.05)


# ----------------------------------------------------------------- event bus


class TestEventBus:
    def test_seq_is_strictly_increasing_and_stamped(self):
        bus = EventBus()
        events = [bus.emit("point.start", point=f"k{i}") for i in range(5)]
        assert [event["seq"] for event in events] == [1, 2, 3, 4, 5]
        assert all(event["kind"] == "point.start" for event in events)
        assert all(isinstance(event["ts"], float) for event in events)

    def test_every_subscriber_sees_the_same_total_order(self):
        # The delta-ordering guarantee: concurrent emitters, several
        # subscribers, one identical seq-ordered stream each.
        bus = EventBus()
        queues = [bus.subscribe() for _ in range(3)]
        threads = [
            threading.Thread(
                target=lambda w=worker: [
                    bus.emit("point.commit", point=f"w{w}-{i}") for i in range(50)
                ]
            )
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        streams = [
            [queue.get_nowait()["seq"] for _ in range(200)] for queue in queues
        ]
        assert streams[0] == sorted(streams[0]) == list(range(1, 201))
        assert streams[1] == streams[0] and streams[2] == streams[0]

    def test_from_seq_replays_buffered_events_in_order(self):
        bus = EventBus()
        for i in range(10):
            bus.emit("lease.grant", point=f"k{i}")
        queue = bus.subscribe(from_seq=7)
        replayed = [queue.get_nowait()["seq"] for _ in range(3)]
        assert replayed == [8, 9, 10]
        bus.emit("lease.grant", point="live")
        assert queue.get_nowait()["seq"] == 11

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        queue = bus.subscribe()
        bus.emit("a")
        bus.unsubscribe(queue)
        bus.emit("b")
        assert queue.get_nowait()["kind"] == "a"
        assert queue.empty()

    def test_full_subscriber_queue_drops_never_blocks(self):
        bus = EventBus()
        queue = bus.subscribe(maxsize=2)
        for i in range(5):
            bus.emit("e", n=i)
        assert queue.qsize() == 2  # oldest two kept, rest dropped
        assert bus.seq == 5  # the emitter never noticed

    def test_disabled_bus_emits_nothing(self):
        bus = EventBus(enabled=False)
        queue = bus.subscribe()
        assert bus.emit("point.start") is None
        assert bus.seq == 0 and queue.empty()

    def test_sinks_receive_events_and_survive_broken_sink(self):
        bus = EventBus()
        seen = []
        bus.add_sink(seen.append)
        bus.add_sink(lambda event: 1 / 0)  # must never take down emit
        bus.emit("point.done", point="k")
        assert [event["kind"] for event in seen] == ["point.done"]
        bus.remove_sink(seen.append)
        bus.emit("point.done")
        assert len(seen) == 1

    def test_isolated_bus_swaps_and_restores_process_bus(self):
        before = telemetry.bus()
        with isolated_bus() as fresh:
            assert telemetry.bus() is fresh
            telemetry.emit("x")
            assert fresh.seq == 1
        assert telemetry.bus() is before


# ----------------------------------------------------------------- rendering


class TestRendering:
    def test_format_eta_clamps_nonsense_to_dashes(self):
        # The PR 7 status bug: cache-warmed figures report inf/negative
        # ETAs; render `--`, never "-3s" or a crash.
        for bad in (None, float("inf"), float("-inf"), float("nan"), -1, -0.5, "soon"):
            assert _format_eta(bad) == "--"

    def test_format_eta_formats_sane_values(self):
        assert _format_eta(42) == "42s"
        assert _format_eta(90) == "1m30s"
        assert _format_eta(3700) == "1h01m"

    def test_format_event_renders_kind_and_causal_ids(self):
        line = format_event(
            {
                "seq": 7,
                "ts": 1700000000.0,
                "kind": "point.commit",
                "point": "a" * 64,
                "worker": "w1",
                "job": "job-0001",
            }
        )
        assert "point.commit" in line
        assert f"point={'a' * 12}" in line  # digest shortened
        assert "worker=w1" in line and "job=job-0001" in line

    def test_format_event_tolerates_garbage(self):
        assert "?" in format_event({})
        assert "--:--:--" in format_event({"kind": "x", "ts": "yesterday"})


# ------------------------------------------------------------------ journals


class TestTraceJournal:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "traces" / "run.jsonl"
        journal = TraceJournal(path)
        journal.write({"seq": 1, "kind": "run.start", "run": "r1"})
        journal.write({"seq": 2, "kind": "run.end", "run": "r1"})
        journal.close()
        events = read_journal(path)
        assert [event["kind"] for event in events] == ["run.start", "run.end"]

    def test_lazy_open_creates_no_file_without_events(self, tmp_path):
        path = tmp_path / "traces" / "idle.jsonl"
        journal = TraceJournal(path)
        journal.close()
        assert not path.exists()

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"seq":1,"kind":"a"}\n'
            "not json at all\n"
            '{"no_kind":true}\n'
            '{"seq":2,"kind":"b"}\n'
            '{"seq":3,"kind":"c"'  # killed mid-write
        )
        assert [event["kind"] for event in read_journal(path)] == ["a", "b"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_unwritable_journal_goes_dead_silently(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        journal = TraceJournal(blocker / "sub" / "run.jsonl")  # parent is a file
        journal.write({"seq": 1, "kind": "a"})  # must not raise
        journal.write({"seq": 2, "kind": "b"})
        journal.close()

    def test_list_journals_sorted(self, tmp_path):
        root = traces_dir(tmp_path)
        root.mkdir(parents=True)
        for name in ("b.jsonl", "a.jsonl"):
            (root / name).write_text("")
        assert [path.name for path in list_journals(tmp_path)] == ["a.jsonl", "b.jsonl"]


class TestChromeExport:
    def _journal(self):
        return [
            {"seq": 1, "ts": 1.0, "kind": "run.start", "run": "r1"},
            {"seq": 2, "ts": 1.1, "kind": "phase.start", "phase": "execute", "run": "r1"},
            {"seq": 3, "ts": 1.2, "kind": "lease.grant", "point": "k1", "worker": "w1"},
            {"seq": 4, "ts": 1.3, "kind": "point.start", "point": "k1", "worker": "w1"},
            {"seq": 5, "ts": 1.6, "kind": "point.done", "point": "k1", "worker": "w1"},
            {"seq": 6, "ts": 1.7, "kind": "point.commit", "point": "k1", "worker": "w1"},
            {"seq": 7, "ts": 1.8, "kind": "phase.end", "phase": "execute", "run": "r1"},
            {"seq": 8, "ts": 1.9, "kind": "point.start", "point": "k2", "worker": "w1"},
            # k2's end was never journaled (daemon killed): unpaired.
        ]

    def test_export_pairs_spans_and_validates(self):
        document = export_chrome_trace(self._journal())
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        slices = [event for event in events if event["ph"] == "X"]
        # point.start/done and lease.grant/commit and the phase pair.
        assert len(slices) == 3
        point_slice = next(s for s in slices if s["args"].get("kind") == "point.start")
        assert point_slice["dur"] == pytest.approx(0.3e6)  # 1.3s → 1.6s in µs

    def test_worker_and_run_become_processes(self):
        document = export_chrome_trace(self._journal())
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        assert "worker:w1" in names and "run" in names

    def test_unpaired_start_becomes_instant_not_dropped(self):
        document = export_chrome_trace(self._journal())
        instants = [e["name"] for e in document["traceEvents"] if e["ph"] == "i"]
        assert any("unfinished" in name for name in instants)

    def test_export_of_empty_journal_is_valid(self):
        document = export_chrome_trace([])
        assert validate_chrome_trace(document) == []
        assert document["traceEvents"] == []

    def test_validate_flags_malformed_documents(self):
        assert validate_chrome_trace([]) == ["payload is not an object"]
        assert validate_chrome_trace({}) == ["traceEvents is not a list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1.0}]}
        )
        assert any("dur" in problem for problem in problems)
        assert any("name" in problem for problem in problems)


# ------------------------------------------------------------- watch protocol


class WatchWire:
    """Raw socket driver for the watch wire protocol (test-side)."""

    def __init__(self, address, role="observer"):
        self.connection = socket.create_connection(tuple(address), timeout=10.0)
        self.stream = self.connection.makefile("rb")
        self.send(hello_message(f"wire-{role}", pid=1, role=role))
        self.welcome = self.receive()

    def send(self, payload):
        self.connection.sendall(encode_message(payload))

    def receive(self, timeout=10.0):
        self.connection.settimeout(timeout)
        return read_message(self.stream)

    def close(self):
        try:
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


class TestWatchProtocol:
    def test_subscribe_acks_with_seq_and_status_snapshot(self, service):
        _, address, _ = service
        wire = WatchWire(address)
        wire.send({"type": "watch"})
        ack = wire.receive()
        assert ack["type"] == "watching"
        assert isinstance(ack["seq"], int)
        assert ack["status"]["type"] == "status"
        wire.close()

    def test_events_stream_in_seq_order_under_concurrent_emits(self, service):
        svc, address, _ = service
        wire = WatchWire(address)
        wire.send({"type": "watch"})
        assert wire.receive()["type"] == "watching"
        threads = [
            threading.Thread(
                target=lambda w=worker: [
                    svc.events.emit("point.commit", point=f"w{w}-{i}", worker=f"w{w}")
                    for i in range(25)
                ]
            )
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = []
        for _ in range(100):
            frame = wire.receive()
            assert frame["type"] == "event"
            seqs.append(frame["event"]["seq"])
        assert seqs == sorted(seqs) and len(set(seqs)) == 100
        wire.close()

    def test_from_seq_catch_up_replays_missed_events(self, service):
        svc, address, _ = service
        svc.events.emit("point.commit", point="early-1")
        svc.events.emit("point.commit", point="early-2")
        wire = WatchWire(address)
        wire.send({"type": "watch", "from_seq": 1})
        assert wire.receive()["type"] == "watching"
        frame = wire.receive()
        assert frame["event"]["point"] == "early-2"
        wire.close()

    def test_unwatch_stops_delivery_and_connection_keeps_serving(self, service):
        svc, address, _ = service
        wire = WatchWire(address)
        wire.send({"type": "watch"})
        assert wire.receive()["type"] == "watching"
        wire.send({"type": "unwatch"})
        # Drain until the unwatched ack (event frames may interleave).
        while True:
            frame = wire.receive()
            if frame["type"] == "unwatched":
                break
        svc.events.emit("point.commit", point="after-unwatch")
        # The connection still answers plain requests, with no stray
        # event frames in between.
        wire.send({"type": "status", "protocol": PROTOCOL_VERSION})
        reply = wire.receive()
        assert reply["type"] == "status"
        wire.close()

    def test_watch_message_with_unknown_fields_still_subscribes(self, service):
        # Forward tolerance: a newer client may send fields this daemon
        # does not know.
        _, address, _ = service
        wire = WatchWire(address)
        wire.send({"type": "watch", "compression": "zstd", "batch_hint": 64})
        assert wire.receive()["type"] == "watching"
        wire.close()

    def test_watch_client_streams_and_seeds_status(self, service):
        svc, address, _ = service
        with WatchClient(address) as watcher:
            assert watcher.status is not None and watcher.status["type"] == "status"
            svc.events.emit("job.state", job="job-0001", state="running")
            event = next(watcher.events())
            assert event["kind"] == "job.state" and event["job"] == "job-0001"
            assert watcher.seq == event["seq"]

    def test_watch_client_from_seq_zero_replays_full_history(self, service):
        # An explicit 0 must reach the wire (0 is falsy — a truthiness
        # guard would silently degrade it to live-only).
        svc, address, _ = service
        svc.events.emit("point.commit", point="history-1")
        svc.events.emit("point.commit", point="history-2")
        with WatchClient(address, from_seq=0) as watcher:
            stream = watcher.events()
            assert next(stream)["point"] == "history-1"
            assert next(stream)["point"] == "history-2"

    def test_watch_client_default_is_live_only(self, service):
        svc, address, _ = service
        svc.events.emit("point.commit", point="before-subscribe")
        with WatchClient(address) as watcher:
            svc.events.emit("point.commit", point="after-subscribe")
            assert next(watcher.events())["point"] == "after-subscribe"

    def test_watch_client_raises_on_refused_handshake(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = listener.getsockname()

        def rude_daemon():
            connection, _ = listener.accept()
            connection.close()

        thread = threading.Thread(target=rude_daemon, daemon=True)
        thread.start()
        with pytest.raises((ServiceError, OSError)):
            WatchClient(address)
        listener.close()
        thread.join(timeout=5)


# -------------------------------------------------------------- journal replay


class TestServiceJournalReplay:
    def test_job_table_survives_daemon_restart(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        first = SweepService(store, **FAST)
        address = first.start()
        try:
            wire = WatchWire(address, role="client")
            wire.send({"type": "submit", "request": FIG5.to_wire(), "tenant": "alice"})
            job_id = wire.receive()["job"]
            # No workers: cancel to reach a terminal state deterministically.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                wire.send({"type": "cancel", "job": job_id})
                reply = wire.receive()
                if reply.get("state") == "cancelled":
                    break
                time.sleep(0.05)
            wire.send({"type": "poll", "job": job_id})
            before = wire.receive()
            assert before["state"] == "cancelled"
            wire.close()
        finally:
            first.stop()

        second = SweepService(ResultCache(tmp_path / "cache"), **FAST)
        address = second.start()
        try:
            wire = WatchWire(address, role="client")
            wire.send({"type": "poll", "job": job_id})
            after = wire.receive()
            # Identical record: same id, state, tenant, shape.
            for field in ("job", "state", "tenant", "experiments", "points",
                          "executed", "reused"):
                assert after[field] == before[field], field
            # And the id sequence resumes past the restored job.
            wire.send({"type": "submit", "request": FIG5.to_wire(), "tenant": "bob"})
            assert wire.receive()["job"] != job_id
            wire.close()
        finally:
            second.stop()

    def test_mid_flight_job_restores_as_failed(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        first = SweepService(store, **FAST)
        address = first.start()
        try:
            wire = WatchWire(address, role="client")
            wire.send({"type": "submit", "request": FIG5.to_wire(), "tenant": "alice"})
            job_id = wire.receive()["job"]
            # Wait until planned (running), then kill the daemon under it.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                wire.send({"type": "poll", "job": job_id})
                if wire.receive()["state"] == "running":
                    break
                time.sleep(0.05)
            wire.close()
        finally:
            first.stop()

        second = SweepService(ResultCache(tmp_path / "cache"), **FAST)
        address = second.start()
        try:
            wire = WatchWire(address, role="client")
            wire.send({"type": "poll", "job": job_id})
            restored = wire.receive()
            assert restored["state"] == "failed"
            assert "restarted" in restored["error"]
            wire.close()
        finally:
            second.stop()

    def test_in_memory_service_keeps_no_journal(self, tmp_path):
        svc = SweepService(InMemoryResultStore(), **FAST)
        svc.start()
        svc.stop()
        assert not (tmp_path / "traces").exists()


# ----------------------------------------------------------------- provenance


class TestSweepProvenance:
    def test_cold_then_warm_runs_join_on_run_ids(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        cold = sweep_experiments(FIG5, store=store)
        assert cold.stats.run_id
        assert len(cold.stats.points) == cold.stats.planned > 0
        assert all(
            point["state"] == "simulated" and point["run"] == cold.stats.run_id
            for point in cold.stats.points.values()
        )

        warm = sweep_experiments(FIG5, store=ResultCache(tmp_path / "cache"))
        assert warm.stats.run_id != cold.stats.run_id
        assert all(
            point["state"] == "replayed" and point["run"] == cold.stats.run_id
            for point in warm.stats.points.values()
        )
        # Results bit-identical, of course.
        assert canonical_data(dict(cold.data)) == canonical_data(dict(warm.data))

    def test_journal_written_per_run_and_replay_events_emitted(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        cold = sweep_experiments(FIG5, store=store)
        warm = sweep_experiments(FIG5, store=ResultCache(tmp_path / "cache"))
        journals = {path.stem: read_journal(path) for path in list_journals(tmp_path / "cache")}
        assert set(journals) == {cold.stats.run_id, warm.stats.run_id}
        cold_kinds = [event["kind"] for event in journals[cold.stats.run_id]]
        assert cold_kinds[0] == "run.start" and cold_kinds[-1] == "run.end"
        assert "point.start" in cold_kinds and "point.done" in cold_kinds
        warm_kinds = [event["kind"] for event in journals[warm.stats.run_id]]
        assert warm_kinds.count("point.replay") == warm.stats.reused
        # Every journal exports to a valid Chrome trace.
        for events in journals.values():
            assert validate_chrome_trace(export_chrome_trace(events)) == []

    def test_disabled_bus_writes_no_journal_same_results(self, tmp_path):
        with isolated_bus(enabled=False):
            result = sweep_experiments(FIG5, store=ResultCache(tmp_path / "cache"))
        assert not list_journals(tmp_path / "cache")
        baseline = sweep_experiments(FIG5, store=InMemoryResultStore())
        assert canonical_data(dict(result.data)) == canonical_data(dict(baseline.data))
        # Provenance still recorded: it is bookkeeping, not tracing.
        assert result.stats.points and result.stats.run_id

    def test_in_memory_store_traces_without_journal(self):
        with isolated_bus() as bus:
            queue = bus.subscribe()
            sweep_experiments(FIG5, store=InMemoryResultStore())
            kinds = []
            while not queue.empty():
                kinds.append(queue.get_nowait()["kind"])
        assert "run.start" in kinds and "run.end" in kinds


# -------------------------------------------------------------- engine profile


class TestEngineProfile:
    def test_profiled_run_records_histograms_and_identical_results(self):
        with telemetry.isolated():
            baseline = sweep_experiments(FIG5, store=InMemoryResultStore())
        with telemetry.isolated(), telemetry.profiled():
            profiled = sweep_experiments(FIG5, store=InMemoryResultStore())
            counters = telemetry.snapshot()["counters"]
        profile = profile_counters(counters)
        assert profile, "profiled run produced no engine.profile.* counters"
        assert any(name.startswith("serve_window_len.") for name in profile) or any(
            name.startswith("skip_len.") for name in profile
        )
        assert canonical_data(dict(baseline.data)) == canonical_data(dict(profiled.data))

    def test_unprofiled_run_records_no_profile_counters(self):
        with telemetry.isolated():
            sweep_experiments(FIG5, store=InMemoryResultStore())
            counters = telemetry.snapshot()["counters"]
        assert not profile_counters(counters)
