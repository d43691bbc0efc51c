"""Tests for the DRAM TRNG mechanism models."""

import pytest

from repro.trng import DRaNGe, ParametricTRNG, QUACTRNG, make_trng


class TestDRaNGe:
    def test_throughput_matches_paper(self):
        assert DRaNGe().throughput_mbps == pytest.approx(563.0)

    def test_batch_yields_one_bit_per_bank(self):
        trng = DRaNGe()
        assert trng.bits_per_batch(8) == 8
        assert trng.bits_per_batch(16) == 16

    def test_batch_latency_is_period_threshold(self):
        assert DRaNGe().batch_latency_cycles == 40

    def test_64bit_demand_latency_close_to_198_cycles(self):
        trng = DRaNGe()
        latency = trng.demand_latency_cycles(16, num_channels=4)
        assert 180 <= latency <= 220

    def test_demand_latency_monotonic_in_bits(self):
        trng = DRaNGe()
        assert trng.demand_latency_cycles(32, 4) > trng.demand_latency_cycles(16, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DRaNGe(throughput_mbps=0)
        with pytest.raises(ValueError):
            DRaNGe(batch_latency_cycles=0)
        with pytest.raises(ValueError):
            DRaNGe().bits_per_batch(0)
        with pytest.raises(ValueError):
            DRaNGe().demand_latency_cycles(0, 4)


class TestQUACTRNG:
    def test_higher_throughput_than_drange(self):
        assert QUACTRNG().throughput_mbps > DRaNGe().throughput_mbps

    def test_higher_64bit_latency_than_drange(self):
        quac_latency = QUACTRNG().demand_latency_cycles(16, 4)
        drange_latency = DRaNGe().demand_latency_cycles(16, 4)
        assert quac_latency > drange_latency

    def test_bigger_fill_batches_than_drange(self):
        assert QUACTRNG().bits_per_batch(8) > DRaNGe().bits_per_batch(8)


class TestParametricTRNG:
    def test_fill_batch_scales_with_throughput(self):
        low = ParametricTRNG(throughput_mbps=200.0)
        high = ParametricTRNG(throughput_mbps=6400.0)
        assert high.bits_per_batch(8) > low.bits_per_batch(8)

    def test_demand_latency_decreases_then_saturates(self):
        throughputs = [200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0]
        latencies = [
            ParametricTRNG(throughput_mbps=t).demand_latency_cycles(16, 4) for t in throughputs
        ]
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))
        # Saturation: the last doubling of throughput changes latency by < 10%.
        assert latencies[-2] - latencies[-1] <= 0.1 * latencies[-2]

    def test_name_with_throughput(self):
        assert "3200" in ParametricTRNG(throughput_mbps=3200.0).name_with_throughput


class TestSharedBehaviour:
    def test_per_channel_rate_positive(self):
        for trng in (DRaNGe(), QUACTRNG(), ParametricTRNG(800.0)):
            assert trng.per_channel_bits_per_cycle(4) > 0


class TestFactory:
    def test_make_trng_names(self):
        assert isinstance(make_trng("d-range"), DRaNGe)
        assert isinstance(make_trng("quac-trng"), QUACTRNG)
        assert isinstance(make_trng("parametric", throughput_mbps=800.0), ParametricTRNG)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_trng("unknown-trng")
