"""D-RaNGe latency/throughput model.

D-RaNGe (Kim et al., HPCA 2019) generates random numbers by reading
reserved DRAM rows with a deliberately reduced tRCD: cells that are
vulnerable to the reduced activation latency (RNG cells) sense a random
value.  One reduced-latency read per bank yields a small number of random
bits, and all banks of a channel can be used in parallel.

Calibration (matching the paper's evaluation setup, Section 7):

* an 8-bit batch using all 8 banks of one idle channel takes ~40 bus
  cycles (the paper's ``PeriodThreshold``),
* a full on-demand 64-bit number, using all channels in parallel, takes
  ~198 memory cycles on average (the Figure 5 threshold line),
* the sustained aggregate throughput is ~563 Mb/s (Section 3).
"""

from __future__ import annotations

from .base import DRAMTRNGModel


class DRaNGe(DRAMTRNGModel):
    """Timing-failure (reduced tRCD) DRAM TRNG."""

    name = "d-range"

    def __init__(
        self,
        throughput_mbps: float = 563.0,
        batch_latency_cycles: int = 40,
        bits_per_bank_per_batch: int = 1,
        demand_base_latency_cycles: int = 110,
    ) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput_mbps must be positive")
        if batch_latency_cycles <= 0:
            raise ValueError("batch_latency_cycles must be positive")
        if bits_per_bank_per_batch <= 0:
            raise ValueError("bits_per_bank_per_batch must be positive")
        if demand_base_latency_cycles <= 0:
            raise ValueError("demand_base_latency_cycles must be positive")
        self._throughput_mbps = throughput_mbps
        self._batch_latency_cycles = batch_latency_cycles
        self._bits_per_bank = bits_per_bank_per_batch
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
        return self._bits_per_bank * banks_per_channel

    @property
    def demand_base_latency_cycles(self) -> int:
        return self._demand_base_latency
