"""Tests for trace records, including save/load round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace, TraceEntry, merge_traces


class TestTraceEntry:
    def test_instruction_count(self):
        assert TraceEntry(bubbles=5).instruction_count == 5
        assert TraceEntry(bubbles=5, address=64).instruction_count == 6
        assert TraceEntry(bubbles=5, address=64, rng_bits=64).instruction_count == 7

    def test_flags(self):
        assert TraceEntry(address=0).has_memory_read
        assert not TraceEntry(bubbles=1).has_memory_read
        assert TraceEntry(rng_bits=64).has_rng_request

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEntry(bubbles=-1)
        with pytest.raises(ValueError):
            TraceEntry(rng_bits=-1)
        with pytest.raises(ValueError):
            TraceEntry(address=-5)


class TestTrace:
    def test_requires_entries(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_aggregate_counts(self):
        trace = Trace(
            [
                TraceEntry(bubbles=10, address=64, write_address=128),
                TraceEntry(bubbles=5),
                TraceEntry(bubbles=0, rng_bits=64),
            ],
            name="t",
        )
        assert trace.total_instructions == 17
        assert trace.memory_reads == 1
        assert trace.memory_writes == 1
        assert trace.rng_requests == 1

    def test_mpki(self):
        trace = Trace([TraceEntry(bubbles=999, address=0)])
        assert trace.mpki == pytest.approx(1.0)

    def test_indexing_and_iteration(self):
        entries = [TraceEntry(bubbles=i) for i in range(1, 4)]
        trace = Trace(entries)
        assert trace[1] is entries[1]
        assert list(trace) == entries
        assert len(trace) == 3

    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace(
            [
                TraceEntry(bubbles=3, address=640, write_address=128),
                TraceEntry(bubbles=0, rng_bits=64),
                TraceEntry(bubbles=7),
            ],
            name="roundtrip",
        )
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "trace"
        assert loaded.entries == trace.entries

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 X 12\n")
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_merge_traces(self):
        a = Trace([TraceEntry(bubbles=1)], name="a")
        b = Trace([TraceEntry(bubbles=2)], name="b")
        merged = merge_traces([a, b], name="ab")
        assert merged.total_instructions == 3
        assert merged.name == "ab"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**20)),
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**20)),
            st.sampled_from([0, 64]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_save_load_roundtrip_property(tmp_path_factory, raw_entries):
    entries = [
        TraceEntry(bubbles=b, address=a, write_address=w, rng_bits=g)
        for b, a, w, g in raw_entries
    ]
    trace = Trace(entries, name="prop")
    path = tmp_path_factory.mktemp("traces") / "prop.txt"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.entries == entries


ADVERSARIAL_ENTRIES = [
    TraceEntry(bubbles=0, address=64),                       # zero-bubble read
    TraceEntry(bubbles=0, write_address=128),                # write-only
    TraceEntry(bubbles=0, rng_bits=64),                      # rng-only
    TraceEntry(bubbles=0, address=0, write_address=0),       # address zero
    TraceEntry(bubbles=7, address=192, write_address=256, rng_bits=8),
    TraceEntry(bubbles=1_000_000),                           # bubble flood
]


class TestTraceColumns:
    def test_columns_mirror_entries(self):
        trace = Trace(ADVERSARIAL_ENTRIES, name="adv")
        columns = trace.columns()
        assert len(columns) == len(trace.entries)
        for index, entry in enumerate(trace.entries):
            assert columns.bubbles[index] == entry.bubbles
            expected_read = -1 if entry.address is None else entry.address
            assert columns.read_addresses[index] == expected_read
            expected_write = -1 if entry.write_address is None else entry.write_address
            assert columns.write_addresses[index] == expected_write
            assert columns.rng_bits[index] == entry.rng_bits

    def test_columns_are_cached_per_trace(self):
        trace = Trace(ADVERSARIAL_ENTRIES)
        assert trace.columns() is trace.columns()

    def test_columns_recompile_when_entries_grow(self):
        trace = Trace([TraceEntry(bubbles=1)])
        first = trace.columns()
        trace.entries.append(TraceEntry(bubbles=2, address=64))
        recompiled = trace.columns()
        assert recompiled is not first
        assert len(recompiled) == 2
        assert recompiled.read_addresses[1] == 64

    def test_counts_and_digest_recompute_when_entries_grow(self):
        trace = Trace([TraceEntry(bubbles=1)])
        counts = (trace.total_instructions, trace.memory_reads, trace.memory_writes)
        digest = trace.entries_digest()
        assert counts == (1, 0, 0) and trace.rng_requests == 0
        trace.entries.append(TraceEntry(bubbles=2, address=64, write_address=128, rng_bits=8))
        assert trace.total_instructions == 5
        assert (trace.memory_reads, trace.memory_writes, trace.rng_requests) == (1, 1, 1)
        assert trace.entries_digest() != digest
        assert trace.entries_digest() == Trace(list(trace.entries)).entries_digest()

    def test_columns_recompile_on_same_length_replacement(self):
        trace = Trace([TraceEntry(bubbles=1), TraceEntry(bubbles=2)])
        first = trace.columns()
        trace.entries[0] = TraceEntry(bubbles=9, address=128)
        recompiled = trace.columns()
        assert recompiled is not first
        assert recompiled.bubbles[0] == 9
        assert recompiled.read_addresses[0] == 128

    def test_text_roundtrip_compiles_identically(self):
        trace = Trace(ADVERSARIAL_ENTRIES, name="adv", metadata={"seed": 3})
        rebuilt = Trace.parse(trace.format(), name=trace.name, metadata=trace.metadata)
        assert rebuilt.entries == trace.entries
        assert rebuilt.name == trace.name
        assert rebuilt.metadata == trace.metadata
        assert rebuilt.columns() == trace.columns()

    def test_parse_reports_source_location(self):
        with pytest.raises(ValueError, match=r"<string>:2"):
            Trace.parse("3\nnot a line\n")
