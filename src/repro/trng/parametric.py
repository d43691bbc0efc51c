"""Parametric TRNG model for throughput-sensitivity studies (Figure 2).

Figure 2 of the paper sweeps the TRNG throughput from 200 Mb/s to
6.4 Gb/s while keeping D-RaNGe's (low) latency for every design, to
isolate the effect of throughput.  :class:`ParametricTRNG` reproduces
that: its demand latency is D-RaNGe's unless the requested throughput is
so low that the throughput bound dominates, and the buffer-filling batch
yield scales with the configured throughput.
"""

from __future__ import annotations

from .base import DRAMTRNGModel


class ParametricTRNG(DRAMTRNGModel):
    """A TRNG whose aggregate throughput is a free parameter."""

    name = "parametric-trng"

    def __init__(
        self,
        throughput_mbps: float,
        batch_latency_cycles: int = 40,
        demand_base_latency_cycles: int = 110,
        num_channels: int = 4,
        bus_mhz: float = 800.0,
    ) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput_mbps must be positive")
        if batch_latency_cycles <= 0:
            raise ValueError("batch_latency_cycles must be positive")
        if demand_base_latency_cycles <= 0:
            raise ValueError("demand_base_latency_cycles must be positive")
        self._throughput_mbps = throughput_mbps
        self._batch_latency_cycles = batch_latency_cycles
        self._demand_base_latency = demand_base_latency_cycles
        self._num_channels = num_channels
        self._bus_mhz = bus_mhz

    @property
    def throughput_mbps(self) -> float:
        return self._throughput_mbps

    @property
    def batch_latency_cycles(self) -> int:
        return self._batch_latency_cycles

    def bits_per_batch(self, banks_per_channel: int) -> int:
        if banks_per_channel <= 0:
            raise ValueError("banks_per_channel must be positive")
        rate = self.per_channel_bits_per_cycle(self._num_channels, self._bus_mhz)
        bits = int(round(rate * self._batch_latency_cycles))
        return max(1, bits)

    @property
    def demand_base_latency_cycles(self) -> int:
        return self._demand_base_latency

    @property
    def name_with_throughput(self) -> str:
        """Name including the configured throughput, for result labelling."""
        return f"{self.name}-{self._throughput_mbps:.0f}mbps"
