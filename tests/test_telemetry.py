"""Tests for the telemetry subsystem (metrics, manifests, status, logs).

Covers the metrics registry's snapshot-and-merge algebra (the
commutative/associative rules that make fleet aggregation
deterministic), the observe-only hooks threaded through the engines and
the result cache, run manifests, the sweep service's live status
surface, the logging setup, and the CLI's ``status``/``runs``
subcommands — ending with the acceptance bar: a telemetry-enabled run's
JSON export is byte-identical to a ``--no-telemetry`` run's.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import socket
from pathlib import Path

import pytest

from repro import telemetry
from repro.cpu.trace import Trace, TraceEntry
from repro.distributed import SweepService
from repro.distributed.protocol import (
    metrics_message,
    unit_from_wire,
    unit_to_wire,
)
from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.orchestration import (
    InMemoryResultStore,
    ResultCache,
    SerialExecutor,
    SimulationUnit,
    point_key,
)
from repro.sim.config import ENGINE_EVENT, ENGINE_TICK, baseline_config
from repro.sim.system import System
from repro.telemetry import logs
from repro.telemetry.manifest import (
    list_manifests,
    load_manifest,
    summarize_manifest,
    write_manifest,
)
from repro.telemetry.status import (
    REQUIRED_FIELDS,
    fetch_status,
    format_status,
    validate_status,
)
from repro.workloads.mixes import ROW_OFFSET_STRIDE
from repro.workloads.suites import applications_by_category
from repro.workloads.synthetic import generate_application_trace
from tests.test_distributed import (
    FAST,
    FakeWorker,
    Fig5Job,
    simulate,
    start_worker_thread,
    wait_until,
)


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


def make_unit(seed: int = 0, rng: bool = True, figure=None) -> SimulationUnit:
    traces = [make_trace(f"u{seed}", rng=rng, seed=seed)]
    config = baseline_config()
    return SimulationUnit(
        key=point_key(traces, config), traces=traces, config=config, figure=figure
    )


# ----------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_counter_gauge_timer_snapshot(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("hits")
        registry.counter("hits", 2)
        registry.gauge("depth", 4.0)
        registry.gauge("depth", 2.0)  # last write wins locally
        registry.observe("seconds", 0.5)
        registry.observe("seconds", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == telemetry.SNAPSHOT_SCHEMA
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 2.0}
        assert snapshot["timers"]["seconds"] == {
            "count": 2,
            "total": 2.0,
            "min": 0.5,
            "max": 1.5,
        }
        assert registry.op_count == 6

    def test_snapshot_is_json_compatible(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("a")
        registry.gauge("g", 1.5)
        registry.observe("t", 0.25)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_time_context_manager(self):
        registry = telemetry.MetricsRegistry()
        with registry.time("block"):
            pass
        timer = registry.snapshot()["timers"]["block"]
        assert timer["count"] == 1
        assert timer["total"] >= 0.0

    def test_disabled_registry_records_nothing(self):
        registry = telemetry.MetricsRegistry(enabled=False)
        registry.counter("hits")
        registry.gauge("depth", 1.0)
        registry.observe("seconds", 1.0)
        with registry.time("block"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["timers"] == {}
        assert registry.op_count == 0

    def test_merge_is_commutative_and_associative(self):
        snapshots = []
        for seed in range(3):
            registry = telemetry.MetricsRegistry()
            registry.counter("points", seed + 1)
            registry.gauge("depth", float(seed))
            registry.observe("seconds", 0.1 * (seed + 1))
            snapshots.append(registry.snapshot())
        a, b, c = snapshots
        forward = telemetry.merge_snapshots(a, b, c)
        reversed_ = telemetry.merge_snapshots(c, b, a)
        nested = telemetry.merge_snapshots(telemetry.merge_snapshots(a, b), c)
        # Counters (ints), gauges (max) and timer count/min/max are exact
        # under any merge order; timer totals are float sums, identical
        # only up to IEEE-754 rounding.
        for merged in (reversed_, nested):
            assert merged["counters"] == forward["counters"]
            assert merged["gauges"] == forward["gauges"]
            for name, timer in forward["timers"].items():
                other = merged["timers"][name]
                assert other["count"] == timer["count"]
                assert other["min"] == timer["min"]
                assert other["max"] == timer["max"]
                assert other["total"] == pytest.approx(timer["total"])
        assert forward["counters"]["points"] == 6
        assert forward["gauges"]["depth"] == 2.0  # merge takes the max
        timer = forward["timers"]["seconds"]
        assert timer["count"] == 3
        assert timer["min"] == pytest.approx(0.1)
        assert timer["max"] == pytest.approx(0.3)

    def test_merge_skips_none(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("x")
        snapshot = registry.snapshot()
        assert telemetry.merge_snapshots(None, snapshot, None)["counters"] == {"x": 1}

    def test_isolated_swaps_and_restores_process_registry(self):
        before = telemetry.registry()
        with telemetry.isolated() as fresh:
            assert telemetry.registry() is fresh
            telemetry.counter("inside")
            assert fresh.snapshot()["counters"] == {"inside": 1}
        assert telemetry.registry() is before
        assert "inside" not in telemetry.snapshot()["counters"]

    def test_disabled_scope_restores_state(self):
        with telemetry.isolated():
            assert telemetry.enabled()
            with telemetry.disabled():
                assert not telemetry.enabled()
                telemetry.counter("dropped")
            assert telemetry.enabled()
            assert telemetry.snapshot()["counters"] == {}


# ----------------------------------------------------------------- engine metrics


def _dense_fig18_style_traces(cores: int = 8, instructions: int = 2_000):
    """fig18 H-group shape scaled down for test time: deep read queues on
    every core, the regime where batched serve windows engage."""
    mapping = AddressMapping(DRAMOrganization())
    pool = applications_by_category()["H"]
    return [
        generate_application_trace(
            pool[slot % len(pool)],
            instructions,
            seed=17 + slot,
            mapping=mapping,
            row_offset=slot * ROW_OFFSET_STRIDE,
        )
        for slot in range(cores)
    ]


class TestEngineInstrumentation:
    def test_serve_window_counters_nonzero_on_dense_config(self):
        config = dataclasses.replace(baseline_config(), engine=ENGINE_EVENT)
        with telemetry.isolated() as registry:
            system = System(_dense_fig18_style_traces(), config)
            system.run()
        engine = system.last_engine
        assert engine.serve_windows > 0
        assert engine.serve_window_cycles > engine.serve_windows
        counters = registry.snapshot()["counters"]
        assert counters["engine.serve_windows"] == engine.serve_windows
        assert counters["engine.serve_window_cycles"] == engine.serve_window_cycles

    def test_serve_window_counters_exactly_zero_on_idle_only_config(self):
        idle_traces = [
            Trace([TraceEntry(bubbles=50)] * 40, name=f"idle{core}") for core in range(2)
        ]
        config = dataclasses.replace(baseline_config(), engine=ENGINE_EVENT)
        with telemetry.isolated() as registry:
            system = System(idle_traces, config)
            system.run()
        assert system.last_engine.serve_windows == 0
        assert system.last_engine.serve_window_cycles == 0
        counters = registry.snapshot()["counters"]
        # Zero-valued engine counters are elided entirely, not recorded as 0.
        assert "engine.serve_windows" not in counters
        assert "engine.serve_window_cycles" not in counters

    def test_run_records_sim_counters_per_engine(self):
        trace = make_trace()
        with telemetry.isolated() as registry:
            System([trace], dataclasses.replace(baseline_config(), engine=ENGINE_EVENT)).run()
            System([trace], dataclasses.replace(baseline_config(), engine=ENGINE_TICK)).run()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["sim.runs"] == 2
        assert snapshot["counters"]["sim.runs.event"] == 1
        assert snapshot["counters"]["sim.runs.tick"] == 1
        assert snapshot["counters"]["sim.cycles"] > 0
        assert snapshot["timers"]["sim.run_seconds"]["count"] == 2

    def test_telemetry_never_changes_result_bits(self):
        trace = make_trace(rng=True)
        config = baseline_config()
        with telemetry.isolated(enabled=True):
            with_telemetry = System([trace], config).run()
        with telemetry.isolated(enabled=False):
            without = System([trace], config).run()
        assert with_telemetry == without


# ----------------------------------------------------------------- cache stats


class TestResultCacheStats:
    @pytest.fixture(scope="class")
    def simulated(self):
        trace = make_trace()
        config = baseline_config()
        return trace, config, System([trace], config).run()

    def test_hit_and_miss_accounting(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        with telemetry.isolated() as registry:
            cache = ResultCache(tmp_path)
            assert cache.get(key) is None  # cold miss
            cache.put(key, result)
            assert cache.get(key) == result  # memo hit
            fresh = ResultCache(tmp_path)
            assert fresh.get(key) == result  # disk hit
            assert fresh.get(key) == result  # memo hit
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        fresh_stats = fresh.stats()
        assert fresh_stats["hits"] == 2
        assert fresh_stats["misses"] == 0
        counters = registry.snapshot()["counters"]
        assert counters["cache.hits"] == 3
        assert counters["cache.misses"] == 1
        assert counters["cache.puts"] == 1
        assert counters["cache.put_bytes"] == stats["total_bytes"]

    def test_stats_by_figure_breakdown(self, tmp_path, simulated):
        trace, config, result = simulated
        cache = ResultCache(tmp_path)
        labeled_key = point_key([trace], config)
        other = make_trace(seed=5)
        unlabeled_key = point_key([other], config)
        cache.put(labeled_key, result, figure="fig6")
        cache.put(unlabeled_key, result)
        breakdown = cache.stats_by_figure()
        assert breakdown["fig6"]["entries"] == 1
        assert breakdown[ResultCache.UNATTRIBUTED]["entries"] == 1
        assert sum(bucket["entries"] for bucket in breakdown.values()) == 2
        assert sum(bucket["total_bytes"] for bucket in breakdown.values()) == (
            cache.stats()["total_bytes"]
        )

    def test_figure_label_never_enters_the_key_or_payload_result(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        cache = ResultCache(tmp_path)
        cache.put(key, result, figure="fig6")
        # Same key regardless of attribution; a fresh reader returns the
        # exact result (the label is reporting-only metadata).
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) == result
        payload = json.loads(Path(cache._path(key)).read_text(encoding="utf-8"))
        assert payload["figure"] == "fig6"
        assert payload["key"] == key


class TestStorePut:
    def test_figure_aware_store_receives_label(self, tmp_path):
        result = System([make_trace()], baseline_config()).run()
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, result, figure="fig9")
        assert cache.stats_by_figure()["fig9"]["entries"] == 1

    def test_in_memory_store_accepts_label(self):
        store = InMemoryResultStore()
        result = System([make_trace()], baseline_config()).run()
        store.put("k", result, figure="fig9")
        assert store.get("k") == result


# ----------------------------------------------------------------- manifests


class TestRunManifests:
    def test_write_load_list_round_trip(self, tmp_path):
        with telemetry.isolated():
            telemetry.counter("sim.runs", 3)
            path = write_manifest(
                tmp_path,
                experiments=["fig6", "fig11"],
                started_at=1700000000.0,
                finished_at=1700000100.0,
                argv=["fig6", "fig11", "--target", "process:2"],
                kwargs={"instructions": 4000},
                executor="process",
                engine="event",
                stats={"planned": 8, "executed": 5, "reused": 3},
                cache={"entries": 8, "total_bytes": 1024, "hits": 3, "misses": 5},
            )
        assert path.is_file()
        assert path.parent == tmp_path / "runs"
        manifests = list_manifests(tmp_path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest["experiments"] == ["fig6", "fig11"]
        assert manifest["duration_seconds"] == 100.0
        assert manifest["executor"] == "process"
        assert manifest["metrics"]["counters"]["sim.runs"] == 3
        # Exact id and unambiguous prefix both resolve.
        assert load_manifest(tmp_path, manifest["run_id"]) == manifest
        assert load_manifest(tmp_path, manifest["run_id"][:10]) == manifest
        assert load_manifest(tmp_path, "nope") is None
        summary = summarize_manifest(manifest)
        assert manifest["run_id"] in summary
        assert "executed 5" in summary

    def test_torn_manifest_is_skipped(self, tmp_path):
        write_manifest(tmp_path, experiments=["fig6"], started_at=1700000000.0)
        (tmp_path / "runs" / "torn.json").write_text("{not json", encoding="utf-8")
        assert len(list_manifests(tmp_path)) == 1

    def test_manifests_sorted_oldest_first(self, tmp_path):
        write_manifest(tmp_path, experiments=["b"], started_at=1700000200.0)
        write_manifest(tmp_path, experiments=["a"], started_at=1700000100.0)
        manifests = list_manifests(tmp_path)
        assert [m["experiments"] for m in manifests] == [["a"], ["b"]]


# ----------------------------------------------------------------- status surface


class TestStatusSurface:
    def test_status_payload_shape_and_live_progress(self):
        with Fig5Job(**FAST) as job:
            service, address = job.service, job.address
            payload = service.status_payload()
            assert validate_status(payload) == []
            assert payload["points"] == 6
            assert payload["completed"] == 0
            assert payload["figures"]["fig5"]["points"] == 6
            assert payload["workers"] == {}

            worker = FakeWorker(address, name="w1")
            work = worker.lease_work()
            assert work["type"] == "work"
            mid = fetch_status(address)
            assert validate_status(mid) == []
            assert mid["leases"] == 1
            assert mid["workers"]["w1"]["leases"] == 1
            assert mid["workers"]["w1"]["last_seen_seconds"] is not None

            # The worker streams a cumulative telemetry snapshot; the
            # service folds the latest one into the fleet view.
            registry = telemetry.MetricsRegistry()
            registry.counter("worker.points")
            worker.send(metrics_message("w1", registry.snapshot()))
            worker.finish(work["unit"]["key"], simulate(work))
            worker.drain()
            assert job.wait().state == "done"

            final = fetch_status(address)
            assert validate_status(final) == []
            assert final["completed"] == 6
            assert final["figures"]["fig5"]["completed"] == 6
            assert final["figures"]["fig5"]["eta_seconds"] == 0.0
            assert final["workers"]["w1"]["completed"] == 6
            counters = final["metrics"]["counters"]
            assert counters["service.lease_grants"] >= 6
            assert counters["service.results_committed"] == 6
            assert counters["worker.points"] == 1
            worker.close()

    def test_repeated_metrics_snapshots_are_not_double_counted(self):
        service = SweepService(InMemoryResultStore(), **FAST)
        address = service.start()
        try:
            worker = FakeWorker(address, name="w1")
            registry = telemetry.MetricsRegistry()
            for _ in range(3):
                registry.counter("worker.waits")
                worker.send(metrics_message("w1", registry.snapshot()))
            # metrics messages get no reply; a lease round-trip flushes them.
            worker.send({"type": "lease"})
            assert worker.receive()["type"] == "wait"
            counters = service.status_payload()["metrics"]["counters"]
            assert counters["worker.waits"] == 3
            worker.close()
        finally:
            service.stop()

    def test_validate_status_flags_malformed_payloads(self):
        assert validate_status({}) == list(REQUIRED_FIELDS)
        good = {field: 0 for field in REQUIRED_FIELDS}
        good.update(
            type="status",
            workers={},
            figures={},
            cache={},
            metrics={"counters": {}},
            jobs={},
            elapsed_seconds=1.0,
            points_per_second=0.0,
        )
        assert validate_status(good) == []
        bad = dict(good, points="three", workers=[], metrics={"counters": 7}, jobs=[])
        problems = validate_status(bad)
        assert set(problems) == {"points", "workers", "metrics", "jobs"}

    def test_format_status_renders_every_section(self):
        payload = {
            "type": "status",
            "protocol": 1,
            "points": 4,
            "pending": 1,
            "completed": 2,
            "failed": 0,
            "leases": 1,
            "workers": {"w1": {"pid": 7, "leases": 3, "completed": 2, "last_seen_seconds": 0.5}},
            "elapsed_seconds": 65.0,
            "points_per_second": 0.25,
            "cache": {"hits": 3, "misses": 1},
            "figures": {"fig6": {"points": 4, "completed": 2, "eta_seconds": 8.0}},
            "metrics": {"counters": {"service.lease_grants": 3}},
        }
        rendered = format_status(payload)
        assert "2/4 done" in rendered
        assert "hit rate 75%" in rendered
        assert "fig6" in rendered and "eta 8s" in rendered
        assert "w1" in rendered and "last seen 0.5s ago" in rendered
        assert "3 granted" in rendered

    def test_fetch_status_raises_on_unreachable_coordinator(self):
        """Nothing listens on the port, so the fetch raises."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(OSError):
            fetch_status(("127.0.0.1", port), timeout=0.5)

    def test_worker_streams_metrics_end_to_end(self):
        with Fig5Job(**FAST) as job, telemetry.isolated():
            thread = start_worker_thread(job.address, "inproc")
            assert job.wait().state == "done"
            # The worker reports right after each ack, so the snapshot
            # following the last commit may trail the job's replay.
            service = job.service
            wait_until(
                lambda: service.status_payload()["metrics"]["counters"].get("worker.points") == 6
            )
            assert "inproc" in service.status_payload()["workers"]
            metrics = service.status_payload()["metrics"]
            service.stop()
            thread.join(timeout=10)
            assert not thread.is_alive()
        # Only the one worker reports worker.* names, so the fleet merge
        # carries exactly its snapshot.
        assert metrics["timers"]["worker.point_seconds"]["count"] == 6
        assert metrics["counters"]["service.results_committed"] == 6
        # The worker's simulation itself reported engine telemetry.
        assert metrics["counters"]["sim.runs"] >= 1

    def test_unit_figure_survives_the_wire(self):
        unit = make_unit(figure="fig6")
        restored = unit_from_wire(json.loads(json.dumps(unit_to_wire(unit))))
        assert restored.figure == "fig6"
        bare = make_unit()
        assert unit_from_wire(json.loads(json.dumps(unit_to_wire(bare)))).figure is None


# ----------------------------------------------------------------- executors


class TestExecutorTelemetry:
    def test_serial_executor_counts_points_and_seconds(self):
        units = [make_unit(seed=seed, rng=False) for seed in range(2)]
        store = InMemoryResultStore()
        with telemetry.isolated() as registry:
            assert SerialExecutor().execute(units, store) == 2
        snapshot = registry.snapshot()
        assert snapshot["counters"]["executor.points_started"] == 2
        assert snapshot["counters"]["executor.points_finished"] == 2
        assert snapshot["timers"]["executor.point_seconds"]["count"] == 2


# ----------------------------------------------------------------- logging


class TestLogs:
    def test_verbosity_mapping(self):
        assert logs.verbosity_level() == logging.INFO
        assert logs.verbosity_level(verbose=1) == logging.INFO
        assert logs.verbosity_level(verbose=2) == logging.DEBUG
        assert logs.verbosity_level(quiet=1) == logging.WARNING
        assert logs.verbosity_level(quiet=2) == logging.CRITICAL
        # Quiet wins over verbose when both are given.
        assert logs.verbosity_level(verbose=3, quiet=1) == logging.WARNING

    def test_configure_is_idempotent(self):
        root = logs.configure()
        logs.configure(verbose=2)
        handlers = [h for h in root.handlers if getattr(h, "_repro_handler", False)]
        assert len(handlers) == 1
        assert root.level == logging.DEBUG
        logs.configure()  # back to the default level for later tests
        assert root.level == logging.INFO

    def test_lines_carry_timestamp_component_and_worker_id(self):
        import io
        import sys

        stream = io.StringIO()
        logs.configure(stream=stream)
        try:
            logs.get_logger("worker", "w7").info("leased a point")
            line = stream.getvalue().strip()
            assert "[repro.worker.w7]" in line
            assert "INFO leased a point" in line
            # Timestamped: the line starts with the YYYY-MM-DD date.
            assert line[:4].isdigit() and line[4] == "-"
        finally:
            logs.configure(stream=sys.stderr)


# ----------------------------------------------------------------- CLI


class TestCLI:
    def test_status_subcommand_against_live_coordinator(self, capsys):
        """`repro status` against a live service."""
        from repro.__main__ import main

        with Fig5Job(**FAST) as job:
            host, port = job.address
            assert main(["status", "--target", f"{host}:{port}"]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith(f"service {host}:{port}\n")
            assert "points   0/6 done" in captured.out
            assert "fig5" in captured.out
            assert "workers  (none connected yet)" in captured.out
            assert f"job      {job.job_id}" in captured.out

            assert main(["status", "--target", f"{host}:{port}", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert validate_status(payload) == []

    def test_status_subcommand_fails_cleanly_when_unreachable(self, capsys):
        from repro.__main__ import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["status", "--target", f"127.0.0.1:{port}", "--timeout", "0.5"]) == 1
        assert "could not fetch status" in capsys.readouterr().err

    def test_run_writes_manifest_and_no_telemetry_is_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        out_telemetry = tmp_path / "with.json"
        out_plain = tmp_path / "without.json"
        cache_telemetry = tmp_path / "cache-with"
        cache_plain = tmp_path / "cache-without"
        with telemetry.isolated():
            assert (
                main(
                    ["fig5", "--instructions", "2000", "--cache-dir", str(cache_telemetry),
                     "--json", str(out_telemetry)]
                )
                == 0
            )
        assert (
            main(
                ["fig5", "--instructions", "2000", "--cache-dir", str(cache_plain),
                 "--no-telemetry", "--json", str(out_plain)]
            )
            == 0
        )
        capsys.readouterr()
        # Telemetry is observe-only: the exported data is byte-identical.
        assert out_telemetry.read_bytes() == out_plain.read_bytes()
        # The telemetry run left exactly one manifest; --no-telemetry none.
        manifests = list_manifests(cache_telemetry)
        assert len(manifests) == 1
        assert manifests[0]["experiments"] == ["fig5"]
        assert manifests[0]["stats"]["executed"] > 0
        assert manifests[0]["metrics"]["counters"]["sim.runs"] > 0
        assert list_manifests(cache_plain) == []

        # `repro runs` lists and inspects the manifest.
        assert main(["runs", "--cache-dir", str(cache_telemetry)]) == 0
        listing = capsys.readouterr().out
        assert manifests[0]["run_id"] in listing
        assert "executed" in listing
        assert main(["runs", manifests[0]["run_id"][:10], "--cache-dir",
                     str(cache_telemetry)]) == 0
        detail = capsys.readouterr().out
        assert "sim.runs" in detail

        assert main(["runs", "--cache-dir", str(cache_plain)]) == 0
        assert "no run manifests" in capsys.readouterr().out

    def test_cache_subcommand_shows_figure_breakdown(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = tmp_path / "cache"
        with telemetry.isolated():
            assert main(["fig5", "--instructions", "2000", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr().out
        assert "fig5" in captured
        assert "entries," in captured
