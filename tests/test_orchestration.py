"""Tests for the orchestration subsystem: keys, cache, planning, parallel sweep."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.address import AddressMapping
from repro.experiments import fig06_dualcore_performance as fig6
from repro.orchestration import (
    InMemoryResultStore,
    PersistentAloneRunCache,
    ProcessPoolExecutor,
    ResultCache,
    SerialExecutor,
    SweepRequest,
    canonical_data,
    filter_run_kwargs,
    point_key,
    probe,
    replay,
    result_from_dict,
    result_to_dict,
    sweep_experiments,
)
from repro.orchestration import sweep as sweep_module
from repro.orchestration.cache import CheckpointStore
from repro.orchestration.keys import SCHEMA_VERSION, config_fingerprint
from repro.sim import runner as sim_runner
from repro.sim.config import baseline_config, drstrange_config
from repro.sim.runner import AloneRunCache
from repro.sim.system import System
from repro.telemetry.events import isolated_bus
from repro.telemetry.manifest import list_manifests
from repro.workloads import ApplicationSpec, WorkloadMix, build_traces, standard_rng_benchmark
from repro.workloads.memo import sweep_pass
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
        assert point_key([trace], baseline_config(trng_name="quac-trng")) != base

    def test_key_changes_with_trace_content(self):
        config = baseline_config()
        base = point_key([make_trace()], config)
        assert point_key([make_trace(seed=1)], config) != base
        assert point_key([make_trace(name="other")], config) != base

    def test_key_depends_on_trace_order(self):
        config = baseline_config()
        a, b = make_trace("a"), make_trace("b", rng=True)
        assert point_key([a, b], config) != point_key([b, a], config)

    #: Keys of a fixed 2-core mix at 2,000 instructions, pinned so that
    #: no change to key computation (or to trace generation) silently
    #: orphans every existing result store.
    #: Re-keyed once, on purpose, when the TRNG entropy seed left the
    #: config: each digest hashes the old payload minus only that member.
    GOLDEN_SHARED = "feba5b35c02cf3bf82469468472fd61b8de01396a37dd31bee3b266346e131e6"
    GOLDEN_ALONE = (
        "bb86d4af790bcf37b34c2736680fc933cc26774801971f8eb3251fd1055c3a6c",
        "eca6945be5df316677d9ebb7a83a12e06ddb67e596dcd75ad5cc05d94a8377e1",
    )

    @pytest.mark.parametrize("in_pass", [False, True], ids=["outside-pass", "in-pass"])
    def test_golden_keys(self, in_pass):
        config = drstrange_config()
        mix = WorkloadMix(
            name="golden",
            slots=[
                ApplicationSpec("golden-app", mpki=20.0, row_locality=0.6, write_fraction=0.3),
                standard_rng_benchmark(5120.0),
            ],
        )
        with sweep_pass() if in_pass else contextlib.nullcontext():
            for _ in range(2):  # the second round reads every cached fragment
                traces = build_traces(
                    mix, 2_000, seed=3, mapping=AddressMapping(config.organization)
                )
                assert point_key(traces, config) == self.GOLDEN_SHARED
                alone = config.alone_run_config()
                assert tuple(point_key([trace], alone) for trace in traces) == self.GOLDEN_ALONE

    #: sha256 of the sorted keys of the 369 points an 18-figure probe reads
    #: at 2,000 instructions: it pins every config fingerprint and every
    #: trace the figures use, where the goldens above pin one mix.
    GOLDEN_FIGURE_KEYS = "ea121b7ccc31057ebdc7425b7827f49b403f3d8ad3268283b850cee0c2b94dca"

    def test_golden_figure_keys(self):
        from repro.experiments import EXPERIMENTS

        _, probed = probe(tuple(EXPERIMENTS), InMemoryResultStore(), instructions=2_000)
        keys = sorted(probed.points)
        assert len(keys) == 369
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == self.GOLDEN_FIGURE_KEYS

    @pytest.mark.parametrize(
        "config",
        [
            baseline_config(),
            drstrange_config(),
            drstrange_config(engine="tick", trng_name="parametric", trng_throughput_mbps=640.0),
        ],
        ids=["baseline", "drstrange", "tick-parametric"],
    )
    def test_config_fingerprint_is_asdict_without_engine(self, config):
        expected = dataclasses.asdict(config)
        del expected["engine"]
        assert config_fingerprint(config) == expected


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

    def test_entry_bytes_match_the_asdict_encoding(self, tmp_path, simulated):
        """``put`` writes the bytes of ``json.dump`` over the
        ``dataclasses.asdict`` encoding of the result, byte for byte."""
        trace, config, result = simulated
        key = point_key([trace], config)
        cache = ResultCache(tmp_path)
        for figure, run in ((None, None), ("fig6", "run-1")):
            cache.run_context = run
            cache.put(key, result, figure=figure)
            payload = {
                "schema": SCHEMA_VERSION, "key": key, "result": dataclasses.asdict(result)
            }
            if figure is not None:
                payload["figure"] = figure
            if run is not None:
                payload["run"] = run
            expected = io.StringIO()
            json.dump(payload, expected)
            written = (tmp_path / key[:2] / f"{key}.json").read_bytes()
            assert written == expected.getvalue().encode()
            assert result_to_dict(result) == payload["result"]

    def test_disk_round_trip(self, tmp_path, simulated):
        trace, config, result = simulated
        key = point_key([trace], config)
        ResultCache(tmp_path).put(key, result)
        # A fresh instance simulates a new process reading the same directory.
        fresh = ResultCache(tmp_path)
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
        """A worker killed mid-write must not leave a poisoned entry behind,
        and valid JSON that is not an object is just as corrupt."""
        trace, config, result = simulated
        key = point_key([trace], config)
        path = tmp_path / key[:2] / f"{key}.json"
        ResultCache(tmp_path).put(key, result)
        # Truncated mid-document, as a SIGKILL during a non-atomic write
        # would leave it, then four documents that are not objects.
        truncated = path.read_text(encoding="utf-8")[:40]
        for body in (truncated, "[1, 2]", "null", '"x"', "3"):
            path.write_text(body, encoding="utf-8")
            fresh = ResultCache(tmp_path)
            assert fresh.get(key) is None, body
            assert fresh.misses == 1, body
            assert not path.exists(), body
            assert len(fresh) == 0, body
            # The slot is immediately reusable.
            fresh.put(key, result)
            assert ResultCache(tmp_path).get(key) == result, body

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
        _, probed = probe(
            ("fig6",), InMemoryResultStore(), apps=representative_subset(2), instructions=2_000
        )
        units = list(probed.missing.values())
        # 2 mixes x 3 designs shared runs + 3 alone runs (2 apps + rng).
        assert len(units) == 9
        assert len({unit.key for unit in units}) == len(units)
        assert len(sim_runner.GLOBAL_ALONE_CACHE) == before
        assert sim_runner.set_simulation_backend(None) is None

    @pytest.mark.parametrize("figure", ["fig6", "fig10", "fig11", "fig13"])
    def test_plan_is_exactly_the_points_the_replay_reads(self, figure):
        # fig10/fig11/fig13 vary DR-STRaNGe knobs that the alone runs
        # ignore: a probe with extra alone points would make a sweep,
        # local or on the service, simulate work the replay never reads.
        request = SweepRequest(experiments=(figure,), instructions=2_000)
        _, probed = probe((figure,), InMemoryResultStore(), **request.run_kwargs())
        planned = set(probed.missing)
        _, real = replay((figure,), InMemoryResultStore(), **request.run_kwargs())
        assert planned == set(real.points)
        assert set(real.points.values()) == {"simulated"}
        swept = sweep_experiments(request, store=InMemoryResultStore())
        assert swept.stats.points.keys() == real.points.keys()

    def test_filter_run_kwargs(self):
        kwargs = {"instructions": 10, "full": True, "bogus": 1}
        filtered = filter_run_kwargs(fig6, kwargs)
        assert filtered == {"instructions": 10, "full": True}

    def test_resolve_accepts_id_and_module(self):
        from repro.orchestration import resolve_experiment

        assert resolve_experiment("fig6") is fig6
        assert resolve_experiment(fig6) is fig6
        with pytest.raises(KeyError):
            resolve_experiment("fig99")


class TestSerialParallelEquivalence:
    def test_fig6_parallel_matches_serial_exactly(self, tmp_path):
        apps = representative_subset(2)
        serial = fig6.run(cache=AloneRunCache(), apps=apps, instructions=4_000)

        request = SweepRequest("fig6", instructions=4_000)
        store = ResultCache(tmp_path)
        pool = ProcessPoolExecutor(jobs=2)
        parallel = sweep_experiments(request, store=store, executor=pool, apps=apps)["fig6"]
        assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)

        # Warm replay from the populated store: nothing recomputed.
        warm = sweep_experiments(request, store=store, executor=pool, apps=apps)
        assert warm.stats.executed == 0
        assert json.dumps(warm["fig6"], sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_in_memory_store_serial_path(self):
        request = SweepRequest("fig6", instructions=2_000)
        apps = representative_subset(2)
        store = InMemoryResultStore()
        first = sweep_experiments(request, store=store, apps=apps)["fig6"]
        second = sweep_experiments(request, store=store, apps=apps)["fig6"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert store.hits > 0


def export(result) -> str:
    return json.dumps(canonical_data(dict(result.data)), sort_keys=True)


def engine_profile(counters) -> dict:
    return {name: value for name, value in counters.items() if name.startswith("engine.profile.")}


@pytest.fixture
def pool_above_break_even(monkeypatch):
    """A local sweep with any miss takes a two-worker pool, whatever this
    host's CPU count."""
    monkeypatch.setattr(sweep_module, "POOL_BREAK_EVEN_INSTRUCTIONS", 1)
    monkeypatch.setattr(sweep_module, "usable_cpus", lambda: 2)


class TestProcessPool:
    FIG5 = SweepRequest("fig5", instructions=2_000)

    def test_pool_sweep_checkpoints_and_resumes(self, tmp_path):
        straight = export(sweep_experiments(self.FIG5, store=InMemoryResultStore()))
        checkpoints = CheckpointStore(tmp_path / "checkpoints")
        counters = []
        for _ in range(2):
            with telemetry.isolated() as registry, sim_runner.checkpointing(checkpoints, 500):
                pooled = sweep_experiments(
                    self.FIG5, store=InMemoryResultStore(), executor=ProcessPoolExecutor(jobs=2)
                )
            assert export(pooled) == straight
            counters.append(registry.snapshot()["counters"])
        assert checkpoints.entries()
        assert counters[0].get("checkpoint_store.puts", 0) > 0
        assert counters[0].get("checkpoint_store.hits", 0) == 0
        # The re-run resumes from the first run's checkpoints.
        assert counters[1].get("checkpoint_store.hits", 0) > 0

    def test_pool_records_the_serial_engine_profile(self):
        profiles = []
        for executor in (SerialExecutor(), ProcessPoolExecutor(jobs=2)):
            with telemetry.isolated() as registry, telemetry.profiled():
                sweep_experiments(self.FIG5, store=InMemoryResultStore(), executor=executor)
            profiles.append(engine_profile(registry.snapshot()["counters"]))
        assert profiles[0]
        assert profiles[1] == profiles[0]

    def test_unguarded_script_fails_instead_of_hanging(self, tmp_path):
        # Spawned workers re-import a script's ``__main__``: without the
        # guard each one runs the sweep again and dies starting a pool of
        # its own while it bootstraps.  The script's sweep must raise.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.orchestration import SweepRequest, sweep, sweep_experiments\n"
            "sweep.POOL_BREAK_EVEN_INSTRUCTIONS = 1\n"
            "sweep.usable_cpus = lambda: 2\n"
            "sweep_experiments(SweepRequest('fig5', instructions=2_000))\n"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_root, os.environ.get("PYTHONPATH")])
        ))
        run = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode != 0
        assert "BrokenProcessPool" in run.stderr

    def test_local_pool_matches_serial_and_leaves_nothing_running(self, pool_above_break_even):
        serial = sweep_experiments(
            self.FIG5, store=InMemoryResultStore(), executor=SerialExecutor()
        )
        assert (serial.stats.executor, serial.stats.jobs) == ("serial", 1)
        threads = threading.active_count()
        pooled = sweep_experiments(self.FIG5, store=InMemoryResultStore())
        assert (pooled.stats.executor, pooled.stats.jobs) == ("process", 2)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert export(pooled) == export(serial)
        assert pooled.stats.points == {
            key: dict(point, run=pooled.stats.run_id) for key, point in serial.stats.points.items()
        }


class TestSweepStats:
    REQUEST = SweepRequest(("fig6", "fig9", "fig13"), instructions=5_000)

    @staticmethod
    def counts(result):
        stats = result.stats
        assert stats.planned == len(stats.points)
        return stats.planned, stats.executed, stats.reused

    def test_inline_and_executor_paths_count_distinct_points(self):
        # fig9 replays fig6's points and every figure looks up shared alone
        # runs again: the stats count each distinct point once, whichever
        # path ran it.
        inline = sweep_experiments(self.REQUEST, store=InMemoryResultStore())
        executed = sweep_experiments(
            self.REQUEST, store=InMemoryResultStore(), executor=SerialExecutor()
        )
        assert self.counts(inline) == self.counts(executed)
        planned, ran, reused = self.counts(inline)
        assert ran == planned and reused == 0
        assert inline.stats.points.keys() == executed.stats.points.keys()

    def test_warm_rerun_reuses_each_point_once(self):
        store = InMemoryResultStore()
        cold = sweep_experiments(self.REQUEST, store=store)
        with isolated_bus() as bus:
            events = bus.subscribe()
            warm = sweep_experiments(self.REQUEST, store=store)
            replays = 0
            while not events.empty():
                replays += events.get_nowait()["kind"] == "point.replay"
        assert self.counts(warm) == (cold.stats.planned, 0, cold.stats.planned)
        assert warm.stats.reused == replays

    def test_warm_rerun_is_one_pass_and_starts_no_pool(self, monkeypatch, pool_above_break_even):
        store = InMemoryResultStore()
        cold = sweep_experiments(self.REQUEST, store=store)
        figure_runs = collections.Counter()
        run_figure = sweep_module._run_figure

        def counting_run_figure(module, kwargs):
            figure_runs[module.__name__] += 1
            return run_figure(module, kwargs)

        def no_pool(executor, units, store):
            raise AssertionError(f"a warm sweep started a pool for {len(units)} points")

        monkeypatch.setattr(sweep_module, "_run_figure", counting_run_figure)
        monkeypatch.setattr(ProcessPoolExecutor, "execute", no_pool)
        warm = sweep_experiments(self.REQUEST, store=store)
        assert warm.stats.executed == 0
        assert list(figure_runs.values()) == [1] * len(self.REQUEST.experiments)
        assert export(warm) == export(cold)

    def test_probe_asks_the_store_once_per_distinct_key(self):
        class CountingStore(InMemoryResultStore):
            def __init__(self):
                super().__init__()
                self.asked = collections.Counter()

            def get(self, key):
                self.asked[key] += 1
                return super().get(key)

        store = CountingStore()
        cold = sweep_experiments(self.REQUEST, store=store)
        # The probe misses each point once; the replay then finds them all.
        assert store.misses == cold.stats.planned
        store.asked.clear()
        warm = sweep_experiments(self.REQUEST, store=store)
        assert store.asked == dict.fromkeys(warm.stats.points, 1)

    def test_warm_replay_parses_each_entry_once(self, tmp_path, monkeypatch):
        request = SweepRequest(("fig5",), instructions=1_500)
        writer = ResultCache(tmp_path)
        cold = sweep_experiments(request, store=writer)
        loads = collections.Counter()
        real_load = json.load

        def counting_load(handle, *args, **kwargs):
            loads[os.path.basename(getattr(handle, "name", ""))] += 1
            return real_load(handle, *args, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        warm = sweep_experiments(request, store=ResultCache(tmp_path))
        monkeypatch.undo()
        entries = {f"{key}.json" for key in warm.stats.points}
        assert warm.stats.reused == len(entries) > 0
        assert {name: loads[name] for name in entries} == dict.fromkeys(entries, 1)
        # Provenance names the cold run, read back from disk by a new
        # instance or remembered by the instance that wrote the entries.
        for rerun in (warm, sweep_experiments(request, store=writer)):
            assert all(
                point["state"] == "replayed" and point["run"] == cold.stats.run_id
                for point in rerun.stats.points.values()
            )


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

        assert main(["fig5", "--target", "process:0", "--no-cache"]) == 2

    def test_json_to_stdout_is_pipeable(self, capsys):
        from repro.__main__ import main

        code = main(["fig5", "--instructions", "2000", "--no-cache", "--json", "-"])
        assert code == 0
        captured = capsys.readouterr()
        # stdout must hold nothing but the JSON document (tables go to stderr).
        payload = json.loads(captured.out)
        assert payload["fig5"]["figure"] == "5"
        assert "Figure 5" in captured.err

    def test_target_local_manifest_records_serial(self, tmp_path, capsys):
        from repro.__main__ import main

        # `--target local` runs serially in this process, with no executor.
        code = main(
            ["fig5", "--instructions", "2000", "--target", "local",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        assert "simulation points" in captured.err
        [manifest] = list_manifests(tmp_path / "cache")
        assert manifest["executor"] == "serial"

    def test_target_local_manifest_records_the_pool_it_chose(
        self, tmp_path, capsys, pool_above_break_even
    ):
        from repro.__main__ import main

        code = main(
            ["fig5", "--instructions", "2000", "--target", "local",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out
        [manifest] = list_manifests(tmp_path / "cache")
        assert (manifest["executor"], manifest["jobs"]) == ("process", 2)

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
    def test_request_sweep_returns_result_with_stats(self):
        from repro.orchestration import SweepResult

        request = SweepRequest(experiments=("fig6",), instructions=1500)
        result = sweep_experiments(request, store=InMemoryResultStore())
        assert isinstance(result, SweepResult)
        assert result.request is request
        assert result.stats.planned > 0
        assert list(result) == ["fig6"]
        assert result["fig6"] == fig6.run(cache=AloneRunCache(), instructions=1500)

    def test_request_owned_kwargs_cannot_be_overridden(self):
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

    def test_jobs_option_is_gone(self, capsys):
        from repro.__main__ import main

        # `--target` is the only routing option.
        with pytest.raises(SystemExit) as exited:
            main(["fig5", "--target", "local", "--jobs", "2", "--no-cache"])
        assert exited.value.code == 2

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
