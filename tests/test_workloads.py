"""Tests for workload specifications, suites, generators and mixes."""

import numpy as np
import pytest

from repro.dram.address import AddressMapping
from repro.dram.timing import DRAMOrganization
from repro.workloads import (
    ALL_APPLICATIONS,
    PAPER_FIGURE_APPS,
    ApplicationSpec,
    RNGBenchmarkSpec,
    WorkloadMix,
    application,
    applications_by_category,
    build_traces,
    dual_core_mixes,
    four_core_group_mixes,
    generate_application_trace,
    generate_rng_trace,
    generate_streaming_trace,
    motivation_mixes,
    multi_core_group_mixes,
    representative_subset,
    standard_rng_benchmark,
)
from repro.workloads.draws import pcg64_draws


class TestApplicationSpec:
    def test_categories(self):
        assert ApplicationSpec("a", mpki=0.5).category == "L"
        assert ApplicationSpec("b", mpki=5.0).category == "M"
        assert ApplicationSpec("c", mpki=25.0).category == "H"

    def test_validation(self):
        with pytest.raises(ValueError):
            ApplicationSpec("a", mpki=-1)
        with pytest.raises(ValueError):
            ApplicationSpec("a", mpki=1, row_locality=1.5)
        with pytest.raises(ValueError):
            ApplicationSpec("a", mpki=1, footprint_rows=0)


class TestRNGBenchmarkSpec:
    def test_gap_scales_inversely_with_throughput(self):
        low = RNGBenchmarkSpec("low", throughput_mbps=640.0)
        high = RNGBenchmarkSpec("high", throughput_mbps=5120.0)
        assert low.instructions_between_requests == 8 * high.instructions_between_requests

    def test_is_rng_category(self):
        spec = standard_rng_benchmark(5120.0)
        assert spec.is_rng
        assert spec.category == "S"

    def test_validation(self):
        with pytest.raises(ValueError):
            RNGBenchmarkSpec("x", throughput_mbps=0)
        with pytest.raises(ValueError):
            RNGBenchmarkSpec("x", throughput_mbps=100, burst_length=0)


class TestSuites:
    def test_roster_size(self):
        assert len(ALL_APPLICATIONS) == 43
        assert len(PAPER_FIGURE_APPS) == 23

    def test_unique_names(self):
        names = [app.name for app in ALL_APPLICATIONS]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert application("mcf").category == "H"
        with pytest.raises(KeyError):
            application("not-a-benchmark")

    def test_all_categories_populated(self):
        groups = applications_by_category()
        assert all(groups[c] for c in ("L", "M", "H"))
        assert sum(len(v) for v in groups.values()) == len(ALL_APPLICATIONS)

    def test_representative_subset(self):
        subset = representative_subset(6)
        assert len(subset) == 6
        categories = {app.category for app in subset}
        assert len(categories) >= 2

    def test_representative_subset_bounds(self):
        assert len(representative_subset(100)) == len(PAPER_FIGURE_APPS)
        with pytest.raises(ValueError):
            representative_subset(0)


class TestSyntheticTraces:
    def test_mpki_approximately_matches_spec(self):
        spec = ApplicationSpec("t", mpki=10.0, row_locality=0.5)
        trace = generate_application_trace(spec, 50_000, seed=0)
        assert trace.mpki == pytest.approx(10.0, rel=0.35)

    def test_deterministic_given_seed(self):
        spec = ApplicationSpec("t", mpki=5.0)
        a = generate_application_trace(spec, 5_000, seed=3)
        b = generate_application_trace(spec, 5_000, seed=3)
        assert a.entries == b.entries

    def test_different_seeds_differ(self):
        spec = ApplicationSpec("t", mpki=5.0)
        a = generate_application_trace(spec, 5_000, seed=1)
        b = generate_application_trace(spec, 5_000, seed=2)
        assert a.entries != b.entries

    def test_zero_mpki_is_compute_only(self):
        spec = ApplicationSpec("t", mpki=0.0)
        trace = generate_application_trace(spec, 1_000)
        assert trace.memory_reads == 0
        assert trace.total_instructions == 1_000

    def test_row_offset_shifts_rows(self):
        spec = ApplicationSpec("t", mpki=20.0, row_locality=0.0, footprint_rows=16)
        mapping = AddressMapping(DRAMOrganization())
        trace = generate_application_trace(spec, 2_000, seed=0, mapping=mapping, row_offset=1000)
        rows = {mapping.decode(e.address).row for e in trace.entries if e.address is not None}
        assert all(1000 <= row < 1016 for row in rows)

    def test_write_fraction_produces_writes(self):
        spec = ApplicationSpec("t", mpki=20.0, write_fraction=0.5)
        trace = generate_application_trace(spec, 20_000, seed=0)
        assert trace.memory_writes > 0
        assert trace.memory_writes < trace.memory_reads

    def test_streaming_trace_is_sequential(self):
        mapping = AddressMapping(DRAMOrganization())
        trace = generate_streaming_trace("stream", 5_000, mapping=mapping)
        addresses = [e.address for e in trace.entries if e.address is not None]
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {mapping.block_size}

    def test_invalid_instructions(self):
        with pytest.raises(ValueError):
            generate_application_trace(ApplicationSpec("t", mpki=1.0), 0)


class TestRNGTraces:
    def test_requests_arrive_in_bursts(self):
        spec = RNGBenchmarkSpec("r", throughput_mbps=5120.0, burst_length=4)
        trace = generate_rng_trace(spec, 60_000, seed=0)
        assert trace.rng_requests >= 4
        assert trace.rng_requests % 4 == 0

    def test_average_request_rate_matches_throughput(self):
        spec = RNGBenchmarkSpec("r", throughput_mbps=5120.0)
        trace = generate_rng_trace(spec, 100_000, seed=0)
        expected = 100_000 / spec.instructions_between_requests
        assert trace.rng_requests == pytest.approx(expected, rel=0.25)

    def test_lower_throughput_means_fewer_requests(self):
        high = generate_rng_trace(RNGBenchmarkSpec("h", throughput_mbps=5120.0), 100_000, seed=0)
        low = generate_rng_trace(RNGBenchmarkSpec("l", throughput_mbps=640.0), 100_000, seed=0)
        assert low.rng_requests < high.rng_requests


class TestPCG64Draws:
    """The trace generators' draws are numpy's own numbers, in numpy's order."""

    BOUNDS = (1, 2, 3, 7, 128, 65536, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32)
    GEOMETRIC_P = (0.9, 0.5, 1 / 3, 0.2, 0.01, 1e-4)

    def test_matches_numpy_generator(self):
        """Random call sequences mixing ``integers`` at every bound (the
        ``2**31 + 1`` bound rejects about half its words), ``random`` and
        numpy's own ``geometric`` on one generator."""
        script = np.random.default_rng(2024)
        for seed in range(200):
            reference = np.random.default_rng(seed)
            drawn = np.random.default_rng(seed)
            integers, random = pcg64_draws(drawn)
            for _ in range(500):
                kind = script.integers(3)
                if kind == 0:
                    high = self.BOUNDS[script.integers(len(self.BOUNDS))]
                    value = integers(high)
                    assert type(value) is int and value == reference.integers(high), (seed, high)
                elif kind == 1:
                    assert random() == reference.random(), seed
                else:
                    p = self.GEOMETRIC_P[script.integers(len(self.GEOMETRIC_P))]
                    assert drawn.geometric(p) == reference.geometric(p), (seed, p)
            # Both consumed the same 64-bit outputs.
            assert drawn.bit_generator.random_raw() == reference.bit_generator.random_raw()

    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1])
    def test_rejects_bounds_outside_its_range(self, high):
        integers, _ = pcg64_draws(np.random.default_rng(0))
        with pytest.raises(ValueError):
            integers(high)
        if high <= 0:
            with pytest.raises(ValueError):
                np.random.default_rng(0).integers(high)

    def test_takes_numpy_integers_and_rejects_what_it_cannot_reproduce(self):
        integers, _ = pcg64_draws(np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for high in (np.int64(1), np.int64(7), np.uint32(2**31 + 1)):
            assert integers(high) == reference.integers(high)
        with pytest.raises(TypeError):
            integers(3.0)
        with pytest.raises(TypeError):
            pcg64_draws(np.random.Generator(np.random.MT19937(0)))


class TestWorkloadMixes:
    def test_dual_core_mixes_structure(self):
        mixes = dual_core_mixes()
        assert len(mixes) == len(PAPER_FIGURE_APPS)
        for mix in mixes:
            assert mix.num_cores == 2
            assert mix.rng_slots == [1]
            assert mix.non_rng_slots == [0]

    def test_motivation_mixes_count(self):
        mixes = motivation_mixes()
        assert len(mixes) == 4 * len(ALL_APPLICATIONS)

    def test_four_core_groups(self):
        groups = four_core_group_mixes(workloads_per_group=3, seed=1)
        assert set(groups) == {"LLLS", "LLHS", "LHHS", "HHHS"}
        for label, mixes in groups.items():
            assert len(mixes) == 3
            for mix in mixes:
                assert mix.num_cores == 4
                assert mix.category_signature == label

    def test_multi_core_groups(self):
        groups = multi_core_group_mixes(8, workloads_per_group=2, seed=0)
        assert set(groups) == {"L", "M", "H"}
        for label, mixes in groups.items():
            for mix in mixes:
                assert mix.num_cores == 8
                assert len(mix.rng_slots) == 1

    def test_build_traces_matches_mix(self):
        mix = dual_core_mixes()[0]
        traces = build_traces(mix, 5_000, seed=0)
        assert len(traces) == 2
        assert traces[0].rng_requests == 0
        assert traces[1].rng_requests > 0

    def test_workload_mix_validation(self):
        with pytest.raises(ValueError):
            WorkloadMix(name="empty", slots=[])
