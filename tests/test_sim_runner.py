"""Tests for the experiment runner (alone-run cache, workload evaluation)."""

import pytest

from repro.controller.config import ControllerConfig
from repro.sim.config import baseline_config, drstrange_config
from repro.sim.runner import AloneRunCache, compare_designs, run_single_application, run_workload
from repro.workloads.mixes import build_traces
from repro.workloads.spec import ApplicationSpec, RNGBenchmarkSpec, WorkloadMix


@pytest.fixture(scope="module")
def mix():
    app = ApplicationSpec("runner-app", mpki=8.0, row_locality=0.5)
    rng = RNGBenchmarkSpec("runner-rng", throughput_mbps=5120.0)
    return WorkloadMix(name="runner-mix", slots=[app, rng])


@pytest.fixture(scope="module")
def cache():
    return AloneRunCache()


INSTRUCTIONS = 10_000


class TestAloneRunCache:
    def test_cache_hits_on_repeated_lookup(self, mix, cache):
        traces = build_traces(mix, INSTRUCTIONS, seed=0)
        config = baseline_config()
        first, _ = cache.get(traces[0], config)
        misses = cache.misses
        second, _ = cache.get(traces[0], config)
        assert cache.misses == misses
        assert cache.hits >= 1
        assert first is second

    def test_different_trace_misses(self, mix, cache):
        traces = build_traces(mix, INSTRUCTIONS, seed=0)
        config = baseline_config()
        cache.get(traces[0], config)
        misses = cache.misses
        cache.get(traces[1], config)
        assert cache.misses == misses + 1

    def test_clear(self):
        cache = AloneRunCache()
        assert len(cache) == 0
        cache.clear()
        assert cache.hits == 0

    @pytest.mark.parametrize(
        "config",
        [
            baseline_config(controller=ControllerConfig(issue_lookahead=0)),
            baseline_config(max_cycles=800),
        ],
        ids=["issue-lookahead", "max-cycles"],
    )
    def test_never_serves_another_configs_alone_run(self, config):
        # A cache shared with the default baseline must give exactly what
        # a private cache gives: the alone runs differ under ``config``.
        heavy = WorkloadMix(
            name="heavy-mix",
            slots=[
                ApplicationSpec("heavy-app", mpki=20.0, row_locality=0.5),
                RNGBenchmarkSpec("heavy-rng", throughput_mbps=5120.0),
            ],
        )
        shared = AloneRunCache()
        run_workload(heavy, baseline_config(), instructions=5_000, cache=shared)
        served = run_workload(heavy, config, instructions=5_000, cache=shared)
        private = run_workload(heavy, config, instructions=5_000, cache=AloneRunCache())
        assert [slot.slowdown for slot in served.slots] == [
            slot.slowdown for slot in private.slots
        ]


class TestRunWorkload:
    def test_evaluation_structure(self, mix, cache):
        evaluation = run_workload(mix, baseline_config(), instructions=INSTRUCTIONS, cache=cache)
        assert len(evaluation.slots) == 2
        assert evaluation.non_rng_slots[0].name == "runner-app"
        assert evaluation.rng_slots[0].name == "runner-rng"
        assert evaluation.unfairness >= 1.0
        assert evaluation.non_rng_slowdown > 0
        assert evaluation.rng_slowdown > 0

    def test_sharing_causes_slowdown_on_baseline(self, mix, cache):
        evaluation = run_workload(mix, baseline_config(), instructions=INSTRUCTIONS, cache=cache)
        assert evaluation.non_rng_slowdown > 1.0

    def test_weighted_speedup_bounds(self, mix, cache):
        evaluation = run_workload(mix, baseline_config(), instructions=INSTRUCTIONS, cache=cache)
        assert 0.0 < evaluation.non_rng_normalized_weighted_speedup <= 1.5

    def test_compare_designs_uses_same_traces(self, mix, cache):
        results = compare_designs(
            mix,
            {"base": baseline_config(), "drs": drstrange_config()},
            instructions=INSTRUCTIONS,
            cache=cache,
        )
        assert set(results) == {"base", "drs"}
        assert results["base"].result.rng_requests > 0

    def test_run_single_application(self, mix, cache):
        traces = build_traces(mix, INSTRUCTIONS, seed=0)
        core, result = run_single_application(traces[0], baseline_config(), cache=cache)
        assert core.instructions >= INSTRUCTIONS
        assert result.total_cycles >= core.cycles


class TestScopedOverrides:
    """The engine/backend overrides are thread-scoped; the scoped
    installers must restore the previous value even when the body raises
    (an unscoped install used to leak a failing sweep's override into
    every subsequent in-process simulation), and an override in one
    thread must never leak into another (concurrent service tenants and
    in-process workers share the module)."""

    def test_engine_override_restores_on_exception(self):
        from repro.sim import runner

        assert runner._SCOPE.engine is None
        with pytest.raises(RuntimeError, match="boom"):
            with runner.engine_override("tick"):
                assert runner._SCOPE.engine == "tick"
                raise RuntimeError("boom")
        assert runner._SCOPE.engine is None

    def test_engine_override_restores_outer_override(self):
        from repro.sim import runner

        with runner.engine_override("tick"):
            with runner.engine_override("event"):
                assert runner._SCOPE.engine == "event"
            assert runner._SCOPE.engine == "tick"
        assert runner._SCOPE.engine is None

    def test_simulation_backend_restores_on_exception(self):
        from repro.sim import runner

        def backend(traces, config):  # pragma: no cover - never invoked
            raise AssertionError("unused")

        assert runner._SCOPE.backend is None
        with pytest.raises(RuntimeError, match="boom"):
            with runner.simulation_backend(backend):
                assert runner._SCOPE.backend is backend
                raise RuntimeError("boom")
        assert runner._SCOPE.backend is None

    def test_overrides_are_thread_local(self):
        import threading

        from repro.sim import runner

        installed = threading.Event()
        release = threading.Event()
        seen = {}

        def other_thread():
            seen["engine"] = runner._SCOPE.engine
            seen["backend"] = runner._SCOPE.backend
            with runner.engine_override("event"):
                installed.set()
                release.wait(timeout=5)

        def backend(traces, config):  # pragma: no cover - never invoked
            raise AssertionError("unused")

        with runner.engine_override("tick"), runner.simulation_backend(backend):
            worker = threading.Thread(target=other_thread)
            worker.start()
            assert installed.wait(timeout=5)
            # The other thread saw pristine defaults, not this thread's
            # overrides — and its own override is invisible here.
            assert seen == {"engine": None, "backend": None}
            assert runner._SCOPE.engine == "tick"
            release.set()
            worker.join(timeout=5)
        assert runner._SCOPE.engine is None

    def test_failing_backend_mid_run_restores_previous_backend(self):
        """End to end: a backend that raises while serving a simulation
        must not stay installed at the choke point."""
        from repro.cpu.trace import Trace, TraceEntry
        from repro.sim import runner

        calls = []

        def exploding_backend(traces, config):
            calls.append(1)
            raise RuntimeError("backend failure mid-sweep")

        exploding_backend.provides_real_results = False

        trace = Trace([TraceEntry(bubbles=10)], name="scoped-backend")
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with runner.simulation_backend(exploding_backend):
                runner.simulate_traces([trace], baseline_config())
        assert calls, "the failing backend was never exercised"
        assert runner._SCOPE.backend is None
        # Direct execution works again after the failed run.
        result = runner.simulate_traces([trace], baseline_config())
        assert result.total_cycles > 0
