"""Tests for deterministic checkpoint/restore (:mod:`repro.sim.checkpoint`).

The fuzz harness (:mod:`tests.test_engine_fuzz`) proves the broad
property — checkpoint at a random cycle, restore, finish, bit-identical
on both engines across hundreds of random systems.  This module pins
the format contract and the corners:

* snapshot → restore → snapshot carries the same content digest (the
  bytes are a pure function of kernel structure);
* version and schema mismatches are rejected, corrupt/truncated files
  are deleted-and-resimulated (mirroring ``ResultCache.get``);
* the event engine resumes bit-identically from pauses landing inside a
  batched serve window and inside a deferred stall/quiet skip;
* a checkpoint taken under one engine finishes under the other;
* the runner's checkpoint policy resumes an interrupted run from the
  store, and warmup prefixes are shared across ``engine``/``max_cycles``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DRStrangeConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.address import AddressMapping
from repro.sim import checkpoint
from repro.sim.config import ENGINE_EVENT, ENGINE_TICK, SimulationConfig
from repro.sim.runner import CheckpointPolicy, checkpointing, simulate_traces
from repro.sim.system import System
from repro.workloads.rng_benchmark import generate_rng_trace
from repro.workloads.spec import ApplicationSpec, RNGBenchmarkSpec
from repro.workloads.synthetic import generate_application_trace

ENGINES = (ENGINE_TICK, ENGINE_EVENT)


def make_config(engine: str = ENGINE_EVENT, **overrides) -> SimulationConfig:
    defaults = dict(
        design="dr-strange",
        drstrange=DRStrangeConfig(predictor="simple", buffer_entries=16),
        max_cycles=50_000,
    )
    defaults.update(overrides)
    return SimulationConfig(engine=engine, **defaults)


def make_traces(config: SimulationConfig, instructions: int = 800, seed: int = 3):
    mapping = AddressMapping(config.organization)
    rng_spec = RNGBenchmarkSpec("ckpt-rng", throughput_mbps=2560.0)
    app_spec = ApplicationSpec("ckpt-app", mpki=8.0, row_locality=0.5, write_fraction=0.25)
    return [
        generate_rng_trace(rng_spec, instructions, seed=seed, mapping=mapping),
        generate_application_trace(
            app_spec, instructions, seed=seed + 1, mapping=mapping, row_offset=4096
        ),
    ]


def paused_system(config: SimulationConfig, stop_at: int, traces=None) -> System:
    system = System(traces if traces is not None else make_traces(config), config)
    system.advance(stop_at=stop_at)
    return system


def finish(system: System) -> dict:
    while not system.advance():
        pass
    return dataclasses.asdict(system.finalize())


# ----------------------------------------------------------------- format


class TestFormat:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_digest_survives_restore(self, engine):
        """snapshot(restore(snapshot(sys))) carries the same content digest."""
        config = make_config(engine)
        data = checkpoint.snapshot(paused_system(config, stop_at=2_000))
        restored = checkpoint.restore(data)
        assert checkpoint.content_digest(checkpoint.snapshot(restored)) == (
            checkpoint.content_digest(data)
        )

    def test_digest_records_no_host_wall_time(self):
        """The same paused state digests the same however long the host
        took to reach it, so digests agree across processes."""
        system = paused_system(make_config(), stop_at=1_000)
        first = checkpoint.content_digest(checkpoint.snapshot(system))
        system._elapsed_seconds += 1.0
        assert checkpoint.content_digest(checkpoint.snapshot(system)) == first

    def test_snapshot_carries_kernel_state_only(self):
        # Nothing bulky rides along with the kernel: the 2-core fixture
        # snapshots to a few KiB fresh, mid-run and once its run has
        # played out (it ends before cycle 2,000).
        config = make_config()
        assert len(checkpoint.snapshot(System(make_traces(config), config))) < 16 * 1024
        for stop_at in (1_000, 2_000):
            assert len(checkpoint.snapshot(paused_system(config, stop_at))) < 16 * 1024

    def test_describe_reports_metadata_without_kernel(self):
        config = make_config()
        system = paused_system(config, stop_at=1_500)
        meta = checkpoint.describe(checkpoint.snapshot(system))
        assert meta["format"] == checkpoint.CHECKPOINT_VERSION
        assert meta["cycle"] == system.cycle
        assert meta["engine"] == config.engine
        assert meta["design"] == config.design
        assert meta["traces"] == [trace.name for trace in system.traces]
        assert meta["kernel_bytes"] > 0
        assert "kernel" not in meta

    def test_version_mismatch_rejected(self):
        data = bytearray(checkpoint.snapshot(paused_system(make_config(), 1_000)))
        data[len(checkpoint._MAGIC)] = checkpoint.CHECKPOINT_VERSION + 1
        with pytest.raises(checkpoint.CheckpointVersionError):
            checkpoint.restore(bytes(data))

    def test_bad_magic_and_truncation_are_corrupt(self):
        data = checkpoint.snapshot(paused_system(make_config(), 1_000))
        with pytest.raises(checkpoint.CheckpointCorruptError):
            checkpoint.restore(b"NOT-A-CKPT" + data[10:])
        with pytest.raises(checkpoint.CheckpointCorruptError):
            checkpoint.restore(data[:20])

    def test_flipped_payload_byte_fails_integrity(self):
        data = bytearray(checkpoint.snapshot(paused_system(make_config(), 1_000)))
        data[-1] ^= 0xFF
        with pytest.raises(checkpoint.CheckpointCorruptError):
            checkpoint.restore(bytes(data))

    def test_trace_mismatch_rejected(self):
        config = make_config()
        data = checkpoint.snapshot(paused_system(config, 1_000))
        other = [Trace([TraceEntry(bubbles=5, address=64)], name="other")]
        with pytest.raises(checkpoint.CheckpointMismatchError):
            checkpoint.restore(data, traces=other)

    def test_foreign_config_rejected(self):
        config = make_config()
        traces = make_traces(config)
        data = checkpoint.snapshot(paused_system(config, 1_000, traces=traces))
        foreign = dataclasses.replace(config, design="rng-oblivious")
        with pytest.raises(checkpoint.CheckpointMismatchError):
            checkpoint.restore(data, traces=traces, config=foreign)

    def test_prefix_key_ignores_engine_and_max_cycles_only(self):
        config = make_config(ENGINE_EVENT, max_cycles=50_000)
        traces = make_traces(config)
        key = checkpoint.prefix_key(traces, config)
        assert key == checkpoint.prefix_key(
            traces, dataclasses.replace(config, engine=ENGINE_TICK, max_cycles=9_999)
        )
        assert key != checkpoint.prefix_key(
            traces, dataclasses.replace(config, design="rng-oblivious")
        )


# ----------------------------------------------------------------- files


class TestFiles:
    def test_load_mirrors_result_cache_get_semantics(self, tmp_path):
        """Corrupt files: deleted and resimulated.  Version skew: a
        non-destructive miss (the file may belong to another build)."""
        config = make_config()
        system = paused_system(config, 1_000)
        path = tmp_path / "a.ckpt"
        data = checkpoint.save(path, system)

        # Happy path round-trips.
        assert checkpoint.load(path).cycle == system.cycle

        # Truncated file: deleted, miss.
        path.write_bytes(data[: len(data) // 2])
        assert checkpoint.load(path) is None
        assert not path.exists()

        # Garbage: deleted, miss.
        path.write_bytes(b"garbage")
        assert checkpoint.load(path) is None
        assert not path.exists()

        # Version skew: miss, file left in place.
        stale = bytearray(data)
        stale[len(checkpoint._MAGIC)] = checkpoint.CHECKPOINT_VERSION + 1
        path.write_bytes(bytes(stale))
        assert checkpoint.load(path) is None
        assert path.exists()

        # Missing file: miss.
        assert checkpoint.load(tmp_path / "missing.ckpt") is None

    def test_store_resumes_and_prunes(self, checkpoint_store):
        config = make_config()
        traces = make_traces(config)
        early = paused_system(config, 500, traces=traces)
        late = paused_system(config, 1_500, traces=traces)
        early_path = checkpoint_store.put(traces, config, early)
        late_path = checkpoint_store.put(traces, config, late)
        # Only the latest cycle per prefix survives.
        assert not early_path.exists()
        assert late_path.exists()
        resumed = checkpoint_store.resume(traces, config)
        assert resumed is not None and resumed.cycle == late.cycle
        assert checkpoint_store.hits == 1

    def test_store_corruption_resimulates(self, checkpoint_store):
        config = make_config()
        traces = make_traces(config)
        path = checkpoint_store.put(traces, config, paused_system(config, 2_000, traces=traces))
        path.write_bytes(b"REPRO-CKPT garbage")
        assert checkpoint_store.resume(traces, config) is None
        assert not path.exists()  # deleted: the next run resimulates cleanly

    def test_store_skips_checkpoints_past_the_cycle_limit(self, checkpoint_store):
        config = make_config()
        traces = make_traces(config)
        checkpoint_store.put(traces, config, paused_system(config, 1_500, traces=traces))
        capped = dataclasses.replace(config, max_cycles=1_000)
        assert checkpoint_store.resume(traces, capped) is None


# ----------------------------------------------------------------- resume identity


class TestResumeIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_resume_finishes_bit_identical(self, engine):
        config = make_config(engine)
        traces = make_traces(config)
        straight = dataclasses.asdict(System(list(traces), config).run())
        stop_at = straight["total_cycles"] // 2
        data = checkpoint.snapshot(paused_system(config, stop_at, traces=list(traces)))
        assert finish(checkpoint.restore(data)) == straight

    @pytest.mark.parametrize("direction", [(ENGINE_EVENT, ENGINE_TICK), (ENGINE_TICK, ENGINE_EVENT)])
    def test_cross_engine_resume(self, direction):
        """A snapshot taken under one engine finishes under the other."""
        src, dst = direction
        config_src = make_config(src)
        config_dst = dataclasses.replace(config_src, engine=dst)
        traces = make_traces(config_src)
        straight = dataclasses.asdict(System(list(traces), config_dst).run())
        stop_at = straight["total_cycles"] // 2
        data = checkpoint.snapshot(paused_system(config_src, stop_at, traces=list(traces)))
        resumed = checkpoint.restore(data, traces=list(traces), config=config_dst)
        assert resumed.config.engine == dst
        assert finish(resumed) == straight

    def test_event_engine_mid_serve_window_pauses(self):
        """Pauses landing inside the event engine's batched serve windows
        (buffer-fed RNG demand) resume bit-identically.  A dense stride
        of pause points across the buffer-serving phase of the run
        guarantees several land mid-window."""
        config = make_config(ENGINE_EVENT)
        traces = make_traces(config, instructions=400)
        straight = dataclasses.asdict(System(list(traces), config).run())
        total = straight["total_cycles"]
        for stop_at in range(97, total, max(1, total // 12)):
            data = checkpoint.snapshot(paused_system(config, stop_at, traces=list(traces)))
            assert finish(checkpoint.restore(data)) == straight, f"pause at {stop_at}"

    def test_event_engine_mid_deferred_skip_pauses(self):
        """Pauses landing inside a deferred stall/quiet skip (single core,
        kilocycle bubble stretches the event engine jumps over) must
        materialise the deferred segments exactly at the pause cycle."""
        entries = []
        for index in range(40):
            entries.append(TraceEntry(bubbles=1_000, address=(index % 7) * 8192))
        trace = Trace(entries, name="bubbly", metadata={"seed": 0})
        config = SimulationConfig(engine=ENGINE_EVENT, design="rng-oblivious", max_cycles=200_000)
        straight = dataclasses.asdict(System([trace], config).run())
        total = straight["total_cycles"]
        # Stride prime-offset pause points: most land mid-skip.
        for stop_at in range(513, total, max(1, total // 10)):
            data = checkpoint.snapshot(paused_system(config, stop_at, traces=[trace]))
            assert finish(checkpoint.restore(data)) == straight, f"pause at {stop_at}"

    def test_pause_past_the_end_is_harmless(self):
        config = make_config()
        traces = make_traces(config)
        straight = dataclasses.asdict(System(list(traces), config).run())
        system = System(list(traces), config)
        assert system.advance(stop_at=10**9)  # finishes before the pause
        data = checkpoint.snapshot(system)
        assert finish(checkpoint.restore(data)) == straight


# ----------------------------------------------------------------- runner policy


class TestRunnerPolicy:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(store=object(), interval=0)

    def test_checkpointed_run_matches_straight_run(self, checkpoint_store):
        config = make_config()
        traces = make_traces(config)
        straight = dataclasses.asdict(simulate_traces(list(traces), config))
        with checkpointing(checkpoint_store, interval=400):
            checkpointed = dataclasses.asdict(simulate_traces(list(traces), config))
        assert checkpointed == straight
        assert checkpoint_store.stats()["entries"] > 0

    def test_second_run_resumes_from_latest_checkpoint(self, checkpoint_store):
        config = make_config()
        traces = make_traces(config)
        with checkpointing(checkpoint_store, interval=400):
            first = dataclasses.asdict(simulate_traces(list(traces), config))
            hits_before = checkpoint_store.hits
            second = dataclasses.asdict(simulate_traces(list(traces), config))
        assert second == first
        assert checkpoint_store.hits > hits_before  # resumed, not restarted

    def test_warmup_prefix_shared_across_engine_and_limit(self, checkpoint_store):
        """A checkpoint written under one sweep point warms another that
        differs only in engine and max_cycles — and stays bit-identical."""
        config_a = make_config(ENGINE_EVENT, max_cycles=50_000)
        traces = make_traces(config_a)
        config_b = dataclasses.replace(config_a, engine=ENGINE_TICK, max_cycles=49_999)
        straight_b = dataclasses.asdict(simulate_traces(list(traces), config_b))
        with checkpointing(checkpoint_store, interval=400):
            simulate_traces(list(traces), config_a)
            hits_before = checkpoint_store.hits
            resumed_b = dataclasses.asdict(simulate_traces(list(traces), config_b))
        assert resumed_b == straight_b
        assert checkpoint_store.hits > hits_before
