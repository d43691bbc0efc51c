"""QUAC-TRNG latency/throughput model.

QUAC-TRNG (Olgun et al., ISCA 2021) issues carefully timed
ACT-PRE-ACT command sequences that activate four rows simultaneously
(quadruple activation); the resulting charge sharing makes a large
fraction of the cells in the open segment sense random values, which are
then whitened with SHA-256.

Compared to D-RaNGe the mechanism yields far more random bits per
operation (higher sustained throughput, ~3.44 Gb/s in the paper's
configuration) but a single 64-bit number takes longer to produce because
an entire quadruple-activation + SHA-256 pass must complete before any
output bits are available (Section 8.7 notes QUAC-TRNG's higher 64-bit
latency).
"""

from __future__ import annotations

from .base import DRAMTRNGModel


class QUACTRNG(DRAMTRNGModel):
    """Quadruple-activation DRAM TRNG."""

    name = "quac-trng"

    def __init__(
        self,
        throughput_mbps: float = 3440.0,
        batch_latency_cycles: int = 56,
        bits_per_batch_per_channel: int = 60,
        demand_base_latency_cycles: int = 300,
    ) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput_mbps must be positive")
        if batch_latency_cycles <= 0:
            raise ValueError("batch_latency_cycles must be positive")
        if bits_per_batch_per_channel <= 0:
            raise ValueError("bits_per_batch_per_channel must be positive")
        if demand_base_latency_cycles <= 0:
            raise ValueError("demand_base_latency_cycles must be positive")
        self._throughput_mbps = throughput_mbps
        self._batch_latency_cycles = batch_latency_cycles
        self._bits_per_batch = bits_per_batch_per_channel
        self._demand_base_latency = demand_base_latency_cycles

    @property
    def throughput_mbps(self) -> float:
        return self._throughput_mbps

    @property
    def batch_latency_cycles(self) -> int:
        return self._batch_latency_cycles

    def bits_per_batch(self, banks_per_channel: int) -> int:
        if banks_per_channel <= 0:
            raise ValueError("banks_per_channel must be positive")
        # QUAC-TRNG operates on DRAM segments rather than individual banks;
        # the per-batch yield scales with how many banks participate but is
        # dominated by the per-segment yield.
        scale = banks_per_channel / 8.0
        return max(1, int(round(self._bits_per_batch * scale)))

    @property
    def demand_base_latency_cycles(self) -> int:
        return self._demand_base_latency
