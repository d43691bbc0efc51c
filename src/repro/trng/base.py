"""Abstract interface of a DRAM-based TRNG mechanism.

DR-STRaNGe is mechanism-independent: the system design only needs to know

* how many random bits one *batch* yields when a single channel's banks
  are used in parallel during an idle period (the buffer-filling path),
* how long such a batch occupies the channel,
* how long generating ``n`` bits on demand takes when the memory
  controller dedicates channels to RNG (the demand path), and
* the aggregate random-number throughput the mechanism sustains.

Concrete mechanisms (:class:`~repro.trng.drange.DRaNGe`,
:class:`~repro.trng.quac.QUACTRNG`, and the parametric sweep model used
for Figure 2) provide these numbers.  The paper's evaluation never
depends on a random bit *value*, so no model produces one.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class DRAMTRNGModel(ABC):
    """Latency/throughput model of a DRAM-based TRNG mechanism."""

    #: Human-readable mechanism name.
    name: str = "abstract-trng"

    # -- mechanism characteristics -------------------------------------------------

    @property
    @abstractmethod
    def throughput_mbps(self) -> float:
        """Aggregate sustained throughput (Mb/s) using all channels."""

    @property
    @abstractmethod
    def batch_latency_cycles(self) -> int:
        """Bus cycles one buffer-filling batch occupies a single channel."""

    @abstractmethod
    def bits_per_batch(self, banks_per_channel: int) -> int:
        """Random bits one batch yields using ``banks_per_channel`` banks."""

    @property
    @abstractmethod
    def demand_base_latency_cycles(self) -> int:
        """Fixed per-channel command-sequence overhead of on-demand generation.

        Paid once per demand operation on every participating channel,
        independent of how many bits that channel contributes.  The
        on-demand path is latency-optimised rather than throughput-
        optimised, which is why it is less efficient per bit than the
        batched buffer-filling path.
        """

    # -- derived latencies ----------------------------------------------------------

    def per_channel_bits_per_cycle(self, num_channels: int, bus_mhz: float = 800.0) -> float:
        """Sustained bits per bus cycle one channel can produce."""
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        bits_per_second = self.throughput_mbps * 1e6 / num_channels
        cycles_per_second = bus_mhz * 1e6
        return bits_per_second / cycles_per_second

    def demand_latency_cycles(
        self,
        bits: int,
        num_channels: int,
        banks_per_channel: int = 8,
        bus_mhz: float = 800.0,
    ) -> int:
        """Cycles one channel is occupied to generate ``bits`` bits on demand.

        The demand path splits an application-level random number across
        ``num_channels`` channels working in parallel (Section 3: "the
        system uses all memory channels in parallel to achieve the minimum
        RNG latency").  Each channel pays the mechanism's fixed
        command-sequence overhead plus the time to produce its ``bits``
        share at the mechanism's sustained per-channel rate.  With the
        default D-RaNGe parameters a 64-bit number split across four
        channels takes ~200 bus cycles, matching the ~198-cycle figure the
        paper reports (Section 5.1).
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        rate = self.per_channel_bits_per_cycle(num_channels, bus_mhz)
        throughput_cycles = int(math.ceil(bits / rate)) if rate > 0 else 0
        return self.demand_base_latency_cycles + throughput_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(throughput={self.throughput_mbps:.0f} Mb/s)"
