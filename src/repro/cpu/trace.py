"""Instruction traces consumed by the trace-driven core model.

A trace is a sequence of :class:`TraceEntry` records.  Each entry
represents a small group of instructions, in the same spirit as
Ramulator's CPU trace format:

* ``bubbles`` non-memory instructions that execute without accessing
  main memory (they still occupy instruction-window slots and issue
  bandwidth),
* optionally one last-level-cache-missing memory **read** at ``address``,
* optionally one **writeback** to ``write_address`` (dirty eviction
  triggered by the read),
* optionally one blocking 64-bit **RNG request** (``rng_bits > 0``).

Traces are either generated synthetically (:mod:`repro.workloads`) or
loaded from a simple text format (one entry per line:
``bubbles [R <addr>] [W <addr>] [G <bits>]``).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceEntry:
    """One trace record: bubbles plus at most one read, write and RNG request."""

    bubbles: int = 0
    address: Optional[int] = None
    write_address: Optional[int] = None
    rng_bits: int = 0

    def __post_init__(self) -> None:
        if self.bubbles < 0:
            raise ValueError("bubbles must be non-negative")
        if self.rng_bits < 0:
            raise ValueError("rng_bits must be non-negative")
        if self.address is not None and self.address < 0:
            raise ValueError("address must be non-negative")
        if self.write_address is not None and self.write_address < 0:
            raise ValueError("write_address must be non-negative")

    @property
    def instruction_count(self) -> int:
        """Number of instructions this entry represents."""
        count = self.bubbles
        if self.address is not None:
            count += 1
        if self.rng_bits > 0:
            count += 1
        return count

    @property
    def has_memory_read(self) -> bool:
        return self.address is not None

    @property
    def has_rng_request(self) -> bool:
        return self.rng_bits > 0


class TraceColumns:
    """A trace precompiled into flat parallel columns (the replay kernel).

    The per-cycle core model replays its trace millions of times per
    simulation; going through :class:`TraceEntry` objects costs one
    attribute load (plus two *property calls*) per field per entry
    visit.  ``TraceColumns`` flattens the entry list once into four
    stdlib ``array('q')`` columns — machine-word signed integers, no
    numpy dependency — indexed by entry position:

    * ``bubbles[i]`` — non-memory instructions of entry ``i``,
    * ``read_addresses[i]`` — the LLC-missing read address, ``-1`` if
      the entry has no read,
    * ``write_addresses[i]`` — the writeback address, ``-1`` if none,
    * ``rng_bits[i]`` — requested random bits, ``0`` if none.

    :class:`~repro.cpu.core.Core` replays these columns with pure index
    arithmetic; both simulation engines share that replay path, so the
    compiled form cannot introduce an engine divergence by construction.

    Memory footprint: ``4 * 8 = 32`` bytes per trace entry (the columns
    are shared by every core replaying the same :class:`Trace` object
    within a process, including all alone-run replays).
    """

    __slots__ = ("bubbles", "read_addresses", "write_addresses", "rng_bits")

    def __init__(self, entries: Sequence[TraceEntry]) -> None:
        self.bubbles = array("q", [entry.bubbles for entry in entries])
        self.read_addresses = array(
            "q", [-1 if entry.address is None else entry.address for entry in entries]
        )
        self.write_addresses = array(
            "q",
            [-1 if entry.write_address is None else entry.write_address for entry in entries],
        )
        self.rng_bits = array("q", [entry.rng_bits for entry in entries])

    def __len__(self) -> int:
        return len(self.bubbles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (
            self.bubbles == other.bubbles
            and self.read_addresses == other.read_addresses
            and self.write_addresses == other.write_addresses
            and self.rng_bits == other.rng_bits
        )


class _EntryDerived:
    """Values derived from one snapshot of a trace's entry list.

    Each is computed at its first use and kept until the entry list
    changes (see :meth:`Trace._derived`).
    """

    __slots__ = ("entries", "columns", "digest", "counts")

    def __init__(self, entries: Tuple[TraceEntry, ...]) -> None:
        self.entries = entries
        self.columns: Optional[TraceColumns] = None
        self.digest: Optional[str] = None
        #: ``(instructions, reads, writes, rng_requests)``.
        self.counts: Optional[Tuple[int, int, int, int]] = None


class Trace:
    """An ordered collection of trace entries with a name and metadata."""

    def __init__(
        self,
        entries: Sequence[TraceEntry],
        name: str = "trace",
        metadata: Optional[dict] = None,
    ) -> None:
        self.entries: List[TraceEntry] = list(entries)
        if not self.entries:
            raise ValueError("a trace must contain at least one entry")
        self.name = name
        self.metadata = dict(metadata or {})
        self._entry_derived: Optional[_EntryDerived] = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]

    def _derived(self) -> _EntryDerived:
        """The cached values of the current entry list.

        One guard covers every cached value (columns, digest, counts): an
        identity snapshot of the entry list, so appending, removing or
        replacing entries all trigger a recompute (entries themselves are
        frozen, so element mutation is impossible).  The guard is a tuple
        compare over object identities — O(entries) pointer compares per
        call, far cheaper than any of the values it guards.  ``name`` and
        ``metadata`` are not guarded, so nothing derived from them is
        cached.
        """
        entries = tuple(self.entries)
        derived = self._entry_derived
        if derived is None or entries != derived.entries:
            derived = self._entry_derived = _EntryDerived(entries)
        return derived

    def _counts(self) -> Tuple[int, int, int, int]:
        derived = self._derived()
        counts = derived.counts
        if counts is None:
            bubbles = reads = writes = rng_requests = 0
            for entry in derived.entries:
                bubbles += entry.bubbles
                if entry.address is not None:
                    reads += 1
                if entry.write_address is not None:
                    writes += 1
                if entry.rng_bits > 0:
                    rng_requests += 1
            counts = derived.counts = (bubbles + reads + rng_requests, reads, writes, rng_requests)
        return counts

    @property
    def total_instructions(self) -> int:
        """Total number of instructions represented by the trace."""
        return self._counts()[0]

    @property
    def memory_reads(self) -> int:
        """Number of LLC-missing reads in the trace."""
        return self._counts()[1]

    @property
    def memory_writes(self) -> int:
        """Number of writebacks in the trace."""
        return self._counts()[2]

    @property
    def rng_requests(self) -> int:
        """Number of RNG requests in the trace."""
        return self._counts()[3]

    @property
    def mpki(self) -> float:
        """Misses (reads) per kilo-instruction of this trace."""
        instructions = self.total_instructions
        if not instructions:
            return 0.0
        return 1000.0 * self.memory_reads / instructions

    # -- precompilation -----------------------------------------------------------

    def columns(self) -> TraceColumns:
        """The trace precompiled into flat parallel arrays (cached).

        Compiled once per :class:`Trace` object at first use (simulation
        start) and shared by every core replaying it afterwards;
        recompiled after the entry list changes (see :meth:`_derived`).
        """
        derived = self._derived()
        columns = derived.columns
        if columns is None:
            columns = derived.columns = TraceColumns(derived.entries)
        return columns

    def entries_digest(self) -> str:
        """SHA-256 hex digest of the entry list (cached like :meth:`columns`).

        Each entry contributes ``b"<bubbles>,<read>,<write>,<rng_bits>;"``
        with ``-1`` for a missing address, so two traces share a digest
        exactly when their entry lists are equal.  Result-store keys embed
        this digest: changing the encoding invalidates every stored result.
        """
        derived = self._derived()
        digest = derived.digest
        if digest is None:
            hasher = hashlib.sha256()
            for entry in derived.entries:
                hasher.update(
                    b"%d,%d,%d,%d;"
                    % (
                        entry.bubbles,
                        -1 if entry.address is None else entry.address,
                        -1 if entry.write_address is None else entry.write_address,
                        entry.rng_bits,
                    )
                )
            digest = derived.digest = hasher.hexdigest()
        return digest

    # -- serialisation ------------------------------------------------------------

    def format(self) -> str:
        """Render the trace in the simple text format (see :meth:`parse`)."""
        lines = [f"# trace {self.name}"]
        for entry in self.entries:
            parts = [str(entry.bubbles)]
            if entry.address is not None:
                parts += ["R", str(entry.address)]
            if entry.write_address is not None:
                parts += ["W", str(entry.write_address)]
            if entry.rng_bits:
                parts += ["G", str(entry.rng_bits)]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(
        cls,
        text: str,
        name: str = "trace",
        metadata: Optional[dict] = None,
        source: str = "<string>",
    ) -> "Trace":
        """Parse the text format produced by :meth:`format`.

        The text format carries only the entry list; ``name`` and
        ``metadata`` must be supplied by the caller (or by
        :meth:`load`, which derives the name from the file stem).
        """
        entries: List[TraceEntry] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(cls._parse_line(line, source, line_number))
        return cls(entries, name=name, metadata=metadata)

    def save(self, path: str | Path) -> None:
        """Write the trace in the simple text format."""
        Path(path).write_text(self.format(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, name: Optional[str] = None) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        path = Path(path)
        return cls.parse(
            path.read_text(encoding="utf-8"), name=name or path.stem, source=str(path)
        )

    @staticmethod
    def _parse_line(line: str, source, line_number: int) -> TraceEntry:
        tokens = line.split()
        try:
            bubbles = int(tokens[0])
            address = None
            write_address = None
            rng_bits = 0
            index = 1
            while index < len(tokens):
                tag = tokens[index]
                value = int(tokens[index + 1])
                if tag == "R":
                    address = value
                elif tag == "W":
                    write_address = value
                elif tag == "G":
                    rng_bits = value
                else:
                    raise ValueError(f"unknown tag {tag!r}")
                index += 2
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{source}:{line_number}: malformed trace line {line!r}") from exc
        return TraceEntry(
            bubbles=bubbles, address=address, write_address=write_address, rng_bits=rng_bits
        )


def merge_traces(traces: Iterable[Trace], name: str = "merged") -> Trace:
    """Concatenate several traces into one (used to build phase behaviour)."""
    entries: List[TraceEntry] = []
    for trace in traces:
        entries.extend(trace.entries)
    return Trace(entries, name=name)
