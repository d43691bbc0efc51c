"""Tests for the simulation configuration."""

import pytest

from repro.core.config import DRStrangeConfig
from repro.sim.config import (
    DESIGN_DRSTRANGE,
    DESIGN_GREEDY_IDLE,
    DESIGN_RNG_OBLIVIOUS,
    ENGINES,
    PRIORITY_RNG_HIGH,
    SimulationConfig,
    baseline_config,
    drstrange_config,
    greedy_config,
)
from repro.trng import DRaNGe, ParametricTRNG, QUACTRNG


class TestConstruction:
    def test_default_is_drstrange_table1(self):
        config = SimulationConfig()
        assert config.design == DESIGN_DRSTRANGE
        assert config.scheduler == "fr-fcfs+cap"
        assert config.drstrange.buffer_entries == 16
        assert config.organization.channels == 4

    def test_factories(self):
        assert baseline_config().design == DESIGN_RNG_OBLIVIOUS
        assert greedy_config().design == DESIGN_GREEDY_IDLE
        assert drstrange_config().design == DESIGN_DRSTRANGE

    def test_invalid_design_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(design="not-a-design")

    def test_invalid_priority_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(priority_mode="whatever")

    def test_engines_are_event_and_tick(self):
        from repro.__main__ import main

        assert ENGINES == ("event", "tick")
        with pytest.raises(ValueError):
            SimulationConfig(engine="compiled")
        # The CLI derives its --engine choices from the same registry.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", "--engine", "compiled", "--no-cache"])
        assert excinfo.value.code == 2

    def test_drstrange_config_validation(self):
        with pytest.raises(ValueError):
            DRStrangeConfig(predictor="magic")
        with pytest.raises(ValueError):
            DRStrangeConfig(buffer_entries=-1)
        with pytest.raises(ValueError):
            DRStrangeConfig(rl_learning_rate=2.0)


class TestDerived:
    def test_make_trng_by_name(self):
        assert isinstance(baseline_config().make_trng(), DRaNGe)
        assert isinstance(baseline_config(trng_name="quac-trng").make_trng(), QUACTRNG)
        parametric = baseline_config(trng_name="parametric", trng_throughput_mbps=800.0).make_trng()
        assert isinstance(parametric, ParametricTRNG)

    def test_parametric_requires_throughput(self):
        with pytest.raises(ValueError):
            baseline_config(trng_name="parametric").make_trng()

    def test_uses_flags(self):
        assert not baseline_config().uses_rng_aware_scheduler
        assert not baseline_config().uses_buffer
        assert greedy_config().uses_buffer
        assert drstrange_config().uses_rng_aware_scheduler
        no_buffer = drstrange_config(drstrange=DRStrangeConfig(buffer_entries=0))
        assert not no_buffer.uses_buffer
        assert no_buffer.uses_rng_aware_scheduler

    def test_alone_run_config_is_baseline(self):
        alone = drstrange_config().alone_run_config()
        assert alone.design == DESIGN_RNG_OBLIVIOUS
        assert alone.scheduler == "fr-fcfs+cap"
        assert alone.trng_name == "d-range"
        # The baseline reads no DR-STRaNGe knob, so configs that differ
        # only there share one alone run (and one result-store key).
        tuned = drstrange_config(
            drstrange=DRStrangeConfig(buffer_entries=4, predictor="rl", stall_limit=50)
        )
        assert tuned.alone_run_config() == alone

    def test_cache_key_distinguishes_trng(self):
        # The alone-run cache keys on the alone config: another TRNG is
        # another alone run.
        assert (
            drstrange_config().alone_run_config()
            != drstrange_config(trng_name="quac-trng").alone_run_config()
        )

    def test_cache_key_ignores_design(self):
        # Configs that differ only in design, DR-STRaNGe knobs, scheduler
        # or priority share one alone run (and one alone-cache entry).
        alone = drstrange_config().alone_run_config()
        variants = [
            greedy_config(),
            baseline_config(),
            drstrange_config(drstrange=DRStrangeConfig(buffer_entries=4, predictor="rl")),
            drstrange_config(scheduler="bliss"),
            drstrange_config(priority_mode=PRIORITY_RNG_HIGH),
        ]
        for config in variants:
            assert config.alone_run_config() == alone
            assert hash(config.alone_run_config()) == hash(alone)

    def test_buffer_capacity_bits(self):
        assert DRStrangeConfig(buffer_entries=16, bits_per_entry=64).buffer_capacity_bits == 1024
