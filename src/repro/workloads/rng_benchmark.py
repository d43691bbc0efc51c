"""Synthetic RNG benchmark traces.

The paper evaluates synthetic RNG applications whose required RNG
throughput is controlled by the number of instructions between two 64-bit
random number requests (Section 7).  The benchmarks are not memory
intensive in terms of regular requests but their RNG requests read from
all banks across all channels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cpu.trace import Trace, TraceEntry
from ..dram.address import AddressMapping
from ..dram.timing import DRAMOrganization
from .draws import pcg64_draws
from .memo import memoized_in_pass
from .spec import RNGBenchmarkSpec


@memoized_in_pass
def generate_rng_trace(
    spec: RNGBenchmarkSpec,
    num_instructions: int,
    seed: int = 0,
    mapping: Optional[AddressMapping] = None,
    row_offset: int = 0,
) -> Trace:
    """Generate the trace of a synthetic RNG benchmark.

    The trace issues bursts of ``spec.burst_length`` back-to-back 64-bit
    RNG requests, separated by compute phases sized so that the average
    required RNG throughput matches ``spec.throughput_mbps``; a light
    stream of regular memory reads (``spec.mpki``) is sprinkled into the
    compute phases.

    Inside a sweep pass (see :mod:`repro.workloads.memo`) a repeated call
    returns the trace the pass already generated for the same arguments;
    the caller must treat it as read-only.

    The trace's content depends only on PCG64's raw output stream (drawn
    through :func:`~repro.workloads.draws.pcg64_draws`), which NEP 19
    keeps stable across numpy versions.
    """
    if num_instructions <= 0:
        raise ValueError("num_instructions must be positive")
    mapping = mapping or AddressMapping(DRAMOrganization())
    organization = mapping.organization
    rng = np.random.default_rng(seed)

    burst = spec.burst_length
    bits = spec.bits_per_request
    gap = spec.instructions_between_requests * burst
    reads_per_gap = spec.mpki * gap / 1000.0

    entries: list[TraceEntry] = []
    instructions = 0
    read_accumulator = 0.0
    channels = organization.channels
    banks = organization.banks_per_rank
    columns = organization.columns_per_row
    max_row = organization.rows_per_bank
    integers, _ = pcg64_draws(rng)
    encode = mapping.encode
    append = entries.append

    while instructions < num_instructions:
        # Compute phase between two bursts, with occasional regular reads
        # sprinkled in proportionally to the benchmark's MPKI.
        remaining = gap
        read_accumulator += reads_per_gap
        reads_this_gap = int(read_accumulator)
        read_accumulator -= reads_this_gap

        if reads_this_gap > 0:
            per_read_gap = max(0, remaining // (reads_this_gap + 1) - 1)
            for _ in range(reads_this_gap):
                # Drawn in this order: channel, bank, row, column.
                address = encode(
                    integers(channels),
                    integers(banks),
                    (row_offset + integers(64)) % max_row,
                    integers(columns),
                )
                append(TraceEntry(bubbles=per_read_gap, address=address))
                instructions += per_read_gap + 1
                remaining -= per_read_gap + 1

        bubbles = max(0, remaining - burst)
        append(TraceEntry(bubbles=bubbles, rng_bits=bits))
        instructions += bubbles + 1
        for _ in range(burst - 1):
            append(TraceEntry(bubbles=0, rng_bits=bits))
            instructions += 1

    return Trace(
        entries,
        name=spec.name,
        metadata={
            "spec": spec.name,
            "throughput_mbps": spec.throughput_mbps,
            "instructions_between_requests": gap,
            "seed": seed,
        },
    )
