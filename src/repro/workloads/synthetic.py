"""Synthetic trace generation for non-RNG applications.

The paper drives its evaluation with SimPoint traces of SPEC CPU2006,
TPC, STREAM, MediaBench and YCSB applications.  Those traces are not
redistributable, so this reproduction generates synthetic traces whose
*memory behaviour* matches each application's published characteristics:
misses per kilo-instruction (MPKI), row-buffer locality and write
fraction.  The controller-level phenomena the paper studies (queueing,
row-hit scheduling, bank conflicts, idle-period structure) depend only on
these properties, which is why the substitution preserves the evaluation's
shape (see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cpu.trace import Trace, TraceEntry
from ..dram.address import AddressMapping
from ..dram.timing import DRAMOrganization
from .draws import pcg64_draws
from .memo import memoized_in_pass
from .spec import ApplicationSpec


@memoized_in_pass
def generate_application_trace(
    spec: ApplicationSpec,
    num_instructions: int,
    seed: int = 0,
    mapping: Optional[AddressMapping] = None,
    row_offset: int = 0,
) -> Trace:
    """Generate a synthetic trace for a non-RNG application.

    Parameters
    ----------
    spec:
        The application specification (MPKI, locality, write fraction).
    num_instructions:
        Approximate number of instructions the trace should contain.
    seed:
        Seed of the deterministic generator (same spec + seed = same trace).
    mapping:
        Address mapping used to encode DRAM coordinates into addresses.
    row_offset:
        Offset added to every row index, so that different cores of a
        multi-programmed mix touch disjoint rows (they still share
        channels and banks, which is where interference happens).

    Inside a sweep pass (see :mod:`repro.workloads.memo`) a repeated call
    returns the trace the pass already generated for the same arguments;
    the caller must treat it as read-only.

    The trace's content depends on two numpy streams.  Every uniform
    draw comes from PCG64's raw output (through
    :func:`~repro.workloads.draws.pcg64_draws`), which NEP 19 keeps
    stable across numpy versions.  The miss gaps come from
    ``Generator.geometric``, whose stream numpy may change between
    versions.
    """
    if num_instructions <= 0:
        raise ValueError("num_instructions must be positive")
    mapping = mapping or AddressMapping(DRAMOrganization())
    organization = mapping.organization
    rng = np.random.default_rng(seed)

    entries: list[TraceEntry] = []
    instructions = 0

    if spec.mpki <= 0:
        # A purely compute-bound application: one big bubble block.
        return Trace(
            [TraceEntry(bubbles=num_instructions)],
            name=spec.name,
            metadata={"spec": spec.name, "mpki": 0.0},
        )

    mean_gap = max(0.0, 1000.0 / spec.mpki - 1.0)

    # Real applications alternate between memory-intensive and compute
    # bound phases; the phase factor scales the miss gap up or down every
    # few thousand instructions.  Phases produce the bursty DRAM traffic
    # (and the mix of short and long idle periods) that the idleness
    # predictors and the random number buffer are designed around.
    phase_factors = (0.4, 1.0, 2.5)
    phase_length = max(500, num_instructions // 12)
    integers, random = pcg64_draws(rng)
    phase_factor = phase_factors[integers(len(phase_factors))]
    next_phase_change = phase_length

    # Address-generation state: current channel/bank/row/column.
    channels = organization.channels
    banks = organization.banks_per_rank
    columns = organization.columns_per_row
    max_row = organization.rows_per_bank
    channel = integers(channels)
    bank = integers(banks)
    row = row_offset % max_row
    column = 0

    footprint_rows = spec.footprint_rows
    row_locality = spec.row_locality
    write_fraction = spec.write_fraction
    geometric = rng.geometric
    encode = mapping.encode
    append = entries.append

    while instructions < num_instructions:
        if instructions >= next_phase_change:
            phase_factor = phase_factors[integers(len(phase_factors))]
            next_phase_change = instructions + phase_length
        effective_gap = mean_gap * phase_factor
        if effective_gap > 0:
            bubbles = int(geometric(1.0 / (effective_gap + 1.0)) - 1)
        else:
            bubbles = 0

        # Next miss address: stay in the open row with probability
        # ``row_locality``, otherwise jump to a random row/bank/channel.
        if random() < row_locality:
            column = (column + 1) % columns
        else:
            channel = integers(channels)
            bank = integers(banks)
            row = (row_offset + integers(footprint_rows)) % max_row
            column = integers(columns)
        address = encode(channel, bank, row, column)

        write_address = None
        if random() < write_fraction:
            # Dirty eviction of another block in the application footprint
            # (drawn in this order: row, channel, bank, column).
            evict_row = (row_offset + integers(footprint_rows)) % max_row
            write_address = encode(
                integers(channels), integers(banks), evict_row, integers(columns)
            )

        append(TraceEntry(bubbles=bubbles, address=address, write_address=write_address))
        instructions += bubbles + 1

    return Trace(
        entries,
        name=spec.name,
        metadata={
            "spec": spec.name,
            "mpki": spec.mpki,
            "row_locality": spec.row_locality,
            "row_offset": row_offset,
            "seed": seed,
        },
    )


def generate_streaming_trace(
    name: str,
    num_instructions: int,
    bytes_per_instruction: float = 1.0,
    mapping: Optional[AddressMapping] = None,
    row_offset: int = 0,
) -> Trace:
    """Generate a perfectly sequential streaming trace (STREAM-like).

    Useful for stress tests and for the highest-locality corner of the
    workload space: every miss is the next cache block of a long
    sequential sweep, so row-buffer hit rates approach 1.
    """
    if num_instructions <= 0:
        raise ValueError("num_instructions must be positive")
    if bytes_per_instruction <= 0:
        raise ValueError("bytes_per_instruction must be positive")
    mapping = mapping or AddressMapping(DRAMOrganization())
    block = mapping.block_size
    instructions_per_miss = max(1, int(round(block / bytes_per_instruction)))

    entries: list[TraceEntry] = []
    instructions = 0
    block_index = 0
    base = mapping.encode(channel=0, bank=0, row=row_offset, column=0)
    while instructions < num_instructions:
        address = base + block_index * block
        entries.append(TraceEntry(bubbles=instructions_per_miss - 1, address=address))
        instructions += instructions_per_miss
        block_index += 1
    return Trace(entries, name=name, metadata={"spec": name, "streaming": True})
