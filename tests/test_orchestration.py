"""Tests for the orchestration subsystem: keys, cache, planning, parallel sweep."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cpu.trace import Trace, TraceEntry
from repro.experiments import fig06_dualcore_performance as fig6
from repro.orchestration import (
    InMemoryResultStore,
    PersistentAloneRunCache,
    ResultCache,
    filter_run_kwargs,
    plan_experiment,
    point_key,
    result_from_dict,
    result_to_dict,
    run_experiment,
)
from repro.sim import runner as sim_runner
from repro.sim.config import baseline_config
from repro.sim.runner import AloneRunCache
from repro.sim.system import System
from repro.workloads.suites import representative_subset


def make_trace(name: str = "t", rng: bool = False, seed: int = 0) -> Trace:
    entries = []
    for index in range(64):
        entries.append(
            TraceEntry(
                bubbles=3 + (index + seed) % 5,
                address=(index * 4096 + seed * 64) % (1 << 20),
                rng_bits=64 if rng and index % 16 == 0 else 0,
            )
        )
    return Trace(entries, name=name, metadata={"seed": seed})


class TestPointKeys:
    def test_key_is_stable_across_reconstruction(self):
        config = baseline_config()
        assert point_key([make_trace()], config) == point_key(
            [make_trace()], baseline_config()
        )

    def test_key_changes_with_config(self):
        trace = make_trace()
        base = point_key([trace], baseline_config())
        assert point_key([trace], baseline_config(scheduler_cap=8)) != base
        assert point_key([trace], baseline_config(entropy_seed=7)) != base

    def test_key_changes_with_trace_content(self):
        config = baseline_config()
        base = point_key([make_trace()], config)
        assert point_key([make_trace(seed=1)], config) != base
        assert point_key([make_trace(name="other")], config) != base

    def test_key_depends_on_trace_order(self):
        config = baseline_config()
        a, b = make_trace("a"), make_trace("b", rng=True)
        assert point_key([a, b], config) != point_key([b, a], config)


class TestResultCache:
    @pytest.fixture(scope="class")
    def simulated(self):
        trace = make_trace(rng=True)
        config = baseline_config()
        return trace, config, System([trace], config).run()

    def test_round_trip_is_exact(self, simulated):
        _, _, result = simulated
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored == result

    def test_disk_round_trip(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        ResultCache(tmp_path).put(key, result)
        # A fresh instance simulates a new process reading the same directory.
        fresh = ResultCache(tmp_path)
        assert fresh.contains(key)
        assert fresh.get(key) == result
        assert fresh.hits == 1

    def test_miss_and_corrupted_entry(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, result)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json", encoding="utf-8")
        assert ResultCache(tmp_path).get(key) is None

    def test_corrupt_entry_is_deleted_on_read(self, tmp_path, simulated):
        """A worker killed mid-write must not leave a poisoned entry behind."""
        trace, config, result = simulated
        key = point_key([trace], config)
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        path = tmp_path / key[:2] / f"{key}.json"
        # Truncate mid-document, as a SIGKILL during a non-atomic write would.
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert not path.exists()
        assert len(fresh) == 0
        # The slot is immediately reusable.
        fresh.put(key, result)
        assert ResultCache(tmp_path).get(key) == result

    def test_schema_mismatch_is_a_miss_but_not_deleted(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        ResultCache(tmp_path).put(key, result)
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = -1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert ResultCache(tmp_path).get(key) is None
        assert path.exists()

    def test_stats_and_last_run_counters(self, tmp_path, simulated):
        trace, config, result = simulated
        cache = ResultCache(tmp_path)
        assert cache.stats() == {"entries": 0, "total_bytes": 0, "hits": 0, "misses": 0}
        cache.put(point_key([trace], config), result)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0
        assert cache.last_run() is None
        cache.record_last_run({"executed": 1, "planned": 1, "reused": 0})
        recorded = ResultCache(tmp_path).last_run()
        assert recorded["executed"] == 1 and recorded["hits"] == 0
        cache.clear()
        assert cache.stats()["entries"] == 0
        assert cache.last_run() is None

    def test_config_change_invalidates(self, tmp_path, simulated):
        trace, config, result = simulated
        cache = ResultCache(tmp_path)
        cache.put(point_key([trace], config), result)
        changed = dataclasses.replace(config, scheduler_cap=4)
        assert cache.get(point_key([trace], changed)) is None

    def test_stats_counts_same_run_writes_once(self, tmp_path, simulated):
        """stats() snapshots the entry listing at read time.

        ``glob`` is lazy: counting straight off the iterator while the
        reported-on run is still writing can observe an entry twice (a
        directory mutated mid-scan re-yields paths) and so double-count
        entries written during that run.  The snapshot must dedupe.
        """
        trace, config, result = simulated
        cache = ResultCache(tmp_path)
        key = point_key([trace], config)
        cache.put(key, result)
        # Overwrites during the same run must not inflate the count.
        cache.put(key, result)
        assert cache.stats()["entries"] == 1 == len(cache)

        real_dir = cache.cache_dir
        late_key = point_key([trace], dataclasses.replace(config, scheduler_cap=4))

        class MutatingDuringScanDir:
            """Replays a lazy, duplicate-yielding directory scan: an entry
            is written *during* the iteration and every path comes back
            twice, as a mutated directory can produce."""

            def is_dir(self):
                return True

            def glob(self, pattern):
                first = list(real_dir.glob(pattern))
                yield from first
                ResultCache(real_dir).put(late_key, result)  # the same run writes…
                yield from first  # …and the scan re-yields what it already saw
                yield from real_dir.glob(pattern)

        cache.cache_dir = MutatingDuringScanDir()
        stats = cache.stats()
        cache.cache_dir = real_dir
        # One pre-existing entry plus the one written during the scan,
        # each counted exactly once.
        assert stats["entries"] == 2
        assert stats["entries"] == len(cache)


class TestPersistentAloneRunCache:
    def test_alone_runs_survive_processes(self, tmp_path):
        trace = make_trace()
        config = baseline_config()
        first = PersistentAloneRunCache(ResultCache(tmp_path))
        core, result = first.get(trace, config)
        assert first.misses == 1
        # A new cache over the same directory (fresh "process") hits disk.
        second = PersistentAloneRunCache(ResultCache(tmp_path))
        core2, result2 = second.get(trace, config)
        assert second.misses == 0
        assert second.hits == 1
        assert (core2, result2) == (core, result)


class TestPlanning:
    def test_plan_enumerates_without_polluting_caches(self):
        before = len(sim_runner.GLOBAL_ALONE_CACHE)
        units = plan_experiment(
            "fig6", apps=representative_subset(2), instructions=2_000
        )
        # 2 mixes x 3 designs shared runs + 3 alone runs (2 apps + rng).
        assert len(units) == 9
        assert len({unit.key for unit in units}) == len(units)
        assert len(sim_runner.GLOBAL_ALONE_CACHE) == before
        assert sim_runner.set_simulation_backend(None) is None

    @pytest.mark.parametrize("figure", ["fig6", "fig10", "fig11", "fig13"])
    def test_plan_is_exactly_the_points_the_replay_reads(self, figure):
        # fig10/fig11/fig13 vary DR-STRaNGe knobs that the alone runs
        # ignore: a plan with extra alone points would make a
        # distributed sweep simulate work the replay never reads.
        from repro.orchestration import SweepRequest, sweep_experiments

        request = SweepRequest(experiments=(figure,), instructions=2_000)
        planned = {unit.key for unit in plan_experiment(figure, **request.run_kwargs())}
        serial = sweep_experiments(request, store=InMemoryResultStore())
        assert planned == set(serial.stats.points)

    def test_filter_run_kwargs(self):
        kwargs = {"instructions": 10, "full": True, "bogus": 1}
        filtered = filter_run_kwargs(fig6, kwargs)
        assert filtered == {"instructions": 10, "full": True}

    def test_resolve_accepts_id_module_and_module_basename(self):
        from repro.orchestration import resolve_experiment

        assert resolve_experiment("fig6") is fig6
        assert resolve_experiment(fig6) is fig6
        # sweep_experiments labels module inputs by basename; rendering
        # helpers must resolve those labels too.
        assert resolve_experiment("fig06_dualcore_performance") is fig6
        with pytest.raises(KeyError):
            resolve_experiment("fig99")


class TestSerialParallelEquivalence:
    def test_fig6_parallel_matches_serial_exactly(self, tmp_path):
        apps = representative_subset(2)
        kwargs = dict(apps=apps, instructions=4_000)
        serial = fig6.run(cache=AloneRunCache(), **kwargs)

        store = ResultCache(tmp_path)
        parallel = run_experiment("fig6", jobs=2, store=store, **kwargs)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)

        # Warm replay from the populated store: nothing recomputed.
        warm = run_experiment("fig6", jobs=2, store=store, **kwargs)
        assert json.dumps(warm, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_in_memory_store_serial_path(self):
        kwargs = dict(apps=representative_subset(2), instructions=2_000)
        store = InMemoryResultStore()
        first = run_experiment("fig6", jobs=1, store=store, **kwargs)
        second = run_experiment("fig6", jobs=1, store=store, **kwargs)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert store.hits > 0


class TestCLI:
    def test_single_figure_with_json_export(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "fig5.json"
        code = main(
            ["fig5", "--instructions", "2000", "--cache-dir", str(tmp_path / "cache"), "--json", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["fig5"]["figure"] == "5"

    def test_sweep_requires_ids_and_rejects_unknown(self, capsys):
        from repro.__main__ import main

        assert main(["sweep"]) == 2
        assert main(["nope", "--no-cache"]) == 2
        assert main(["fig5", "fig6", "--no-cache"]) == 2

    def test_jobs_validation(self, capsys):
        from repro.__main__ import main

        assert main(["fig5", "--jobs", "0", "--no-cache"]) == 2

    def test_json_to_stdout_is_pipeable(self, capsys):
        from repro.__main__ import main

        code = main(["fig5", "--instructions", "2000", "--no-cache", "--json", "-"])
        assert code == 0
        captured = capsys.readouterr()
        # stdout must hold nothing but the JSON document (tables go to stderr).
        payload = json.loads(captured.out)
        assert payload["fig5"]["figure"] == "5"
        assert "Figure 5" in captured.err

    def test_executor_serial_flag_runs_orchestrated(self, tmp_path, capsys):
        from repro.__main__ import main

        # `--target local` is the serial executor's spelling.
        code = main(
            ["fig5", "--instructions", "2000", "--target", "local",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        # The plan → execute → replay pipeline ran (points were planned).
        assert "simulation points" in captured.err

    def test_cache_subcommand_stats_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        assert main(["fig5", "--instructions", "2000", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "entries:" in captured.out and "last run:" in captured.out
        # The run above recorded its planned/executed counters.
        assert "executed" in captured.out

        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "entries:     0" in captured.out


class TestSweepRequest:
    def test_normalises_experiments(self):
        from repro.orchestration import SweepRequest

        request = SweepRequest(experiments=" Fig5 ")
        assert request.experiments == ("fig5",)
        assert SweepRequest(experiments=["FIG5", "fig6 "]).experiments == ("fig5", "fig6")

    def test_validates_fields(self):
        from repro.orchestration import SweepRequest

        with pytest.raises(ValueError):
            SweepRequest(experiments=())
        with pytest.raises(ValueError):
            SweepRequest(experiments=("fig5",), instructions=0)
        with pytest.raises(ValueError):
            SweepRequest(experiments=("fig5",), engine="warp")
        with pytest.raises(ValueError):
            SweepRequest(experiments=("fig5",), engine="compiled")
        with pytest.raises(ValueError):
            SweepRequest(experiments=("fig5",), priority="urgent")

    def test_is_frozen(self):
        from repro.orchestration import SweepRequest

        request = SweepRequest(experiments=("fig5",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.full = True

    def test_wire_round_trip_and_tolerance(self):
        from repro.orchestration import SweepRequest

        request = SweepRequest(
            experiments=("fig5", "fig6"),
            instructions=2000,
            full=True,
            engine="tick",
            priority="batch",
            tags=("nightly",),
        )
        assert SweepRequest.from_wire(request.to_wire()) == request
        # Defaults are omitted from the wire form…
        assert SweepRequest(experiments=("fig5",)).to_wire() == {"experiments": ["fig5"]}
        # …and unknown keys from newer peers are ignored, not fatal.
        payload = dict(request.to_wire(), deadline="soon")
        assert SweepRequest.from_wire(payload) == request
        with pytest.raises(TypeError):
            SweepRequest.from_wire("fig5")

    def test_run_kwargs_carries_only_set_fields(self):
        from repro.orchestration import SweepRequest

        assert SweepRequest(experiments=("fig5",)).run_kwargs() == {}
        assert SweepRequest(experiments=("fig5",), instructions=500, full=True).run_kwargs() == {
            "instructions": 500,
            "full": True,
        }


class TestParseTarget:
    def test_local_process_and_service_specs(self):
        from repro.orchestration import parse_target

        assert parse_target("local").kind == "local"
        pool = parse_target("process:4")
        assert (pool.kind, pool.jobs) == ("process", 4)
        assert parse_target("process").jobs == 0  # sized later (cpu count)
        service = parse_target("10.0.0.7:9876")
        assert (service.kind, service.address) == ("service", ("10.0.0.7", 9876))

    def test_rejects_malformed_specs(self):
        from repro.orchestration import parse_target

        for bad in ("", "process:0", "process:x", "nowhere", "host:", ":80", "host:99999"):
            with pytest.raises(ValueError):
                parse_target(bad)


class TestRequestDrivenSweep:
    def test_request_sweep_matches_legacy_call(self):
        from repro.orchestration import SweepRequest, SweepResult, sweep_experiments

        request = SweepRequest(experiments=("fig6",), instructions=1500)
        result = sweep_experiments(request, store=InMemoryResultStore())
        assert isinstance(result, SweepResult)
        assert result.request is request
        assert result.stats.planned > 0
        with pytest.warns(DeprecationWarning):
            legacy = sweep_experiments(
                ["fig6"], store=InMemoryResultStore(), instructions=1500
            )
        assert dict(result) == legacy

    def test_run_experiment_accepts_request_and_legacy_form(self):
        from repro.orchestration import SweepRequest, SweepResult

        result = run_experiment(
            SweepRequest(experiments=("fig6",), instructions=1500),
            store=InMemoryResultStore(),
        )
        assert isinstance(result, SweepResult)
        with pytest.warns(DeprecationWarning):
            legacy = run_experiment(
                "fig6", store=InMemoryResultStore(), instructions=1500
            )
        assert result["fig6"] == legacy

    def test_request_owned_kwargs_cannot_be_overridden(self):
        from repro.orchestration import SweepRequest, sweep_experiments

        request = SweepRequest(experiments=("fig6",), instructions=1500)
        with pytest.raises(TypeError, match="instructions"):
            sweep_experiments(request, store=InMemoryResultStore(), instructions=99)


class TestManifestPruning:
    def test_clear_prunes_orphaned_run_manifests(self, tmp_path):
        from repro.telemetry.manifest import MANIFEST_DIR, list_manifests, write_manifest

        cache = ResultCache(tmp_path)
        write_manifest(tmp_path, experiments=["fig5"], started_at=1.0)
        assert len(list_manifests(tmp_path)) == 1
        stray = tmp_path / MANIFEST_DIR / "not-a-manifest.json.tmp"
        stray.write_text("{}", encoding="utf-8")
        cache.clear()
        # Entries are gone, and so are the manifests describing them.
        assert list_manifests(tmp_path) == []
        assert not stray.exists()


class TestTargetCLI:
    def test_target_rejects_malformed_spec(self, capsys):
        from repro.__main__ import main

        assert main(["fig5", "--target", "nope", "--no-cache"]) == 2

    def test_target_local_runs_serial(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["fig5", "--instructions", "2000", "--target", "local",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        assert "deprecated" not in captured.err
