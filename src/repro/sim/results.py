"""Result records produced by simulations and the experiment runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..energy.drampower import EnergyBreakdown


@dataclass(frozen=True)
class CoreResult:
    """Per-core outcome of one simulation (statistics frozen at finish)."""

    core_id: int
    name: str
    is_rng: bool
    instructions: int
    cycles: int
    memory_stall_cycles: int
    rng_stall_cycles: int
    reads: int
    writes: int
    rng_requests: int
    average_read_latency: float
    average_rng_latency: float

    @property
    def ipc(self) -> float:
        """Instructions per bus cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mcpi(self) -> float:
        """Memory stall cycles per instruction."""
        return self.memory_stall_cycles / self.instructions if self.instructions else 0.0


@dataclass(frozen=True)
class ChannelResult:
    """Per-channel outcome of one simulation."""

    channel_id: int
    busy_cycles: int
    idle_cycles: int
    rng_mode_cycles: int
    served_reads: int
    served_writes: int
    served_rng_demand: int
    rng_fill_batches: int
    rng_fill_bits: int
    mode_switches: int
    idle_periods: List[int] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.busy_cycles + self.idle_cycles + self.rng_mode_cycles

    @property
    def utilization(self) -> float:
        total = self.total_cycles
        if not total:
            return 0.0
        return (self.busy_cycles + self.rng_mode_cycles) / total


@dataclass(frozen=True)
class SimulationResult:
    """Complete outcome of one system simulation."""

    design: str
    total_cycles: int
    cores: List[CoreResult]
    channels: List[ChannelResult]
    buffer_serve_rate: float
    buffer_serves: int
    rng_requests: int
    predictor_accuracy: Optional[float]
    predictor_predictions: int
    energy: EnergyBreakdown
    memory_busy_cycles: int
    scheduler_stats: Dict[str, int] = field(default_factory=dict)

    # -- convenience accessors -----------------------------------------------------

    def core(self, core_id: int) -> CoreResult:
        return self.cores[core_id]

    @property
    def rng_cores(self) -> List[CoreResult]:
        return [core for core in self.cores if core.is_rng]

    @property
    def non_rng_cores(self) -> List[CoreResult]:
        return [core for core in self.cores if not core.is_rng]

    @property
    def all_idle_periods(self) -> List[int]:
        periods: List[int] = []
        for channel in self.channels:
            periods.extend(channel.idle_periods)
        return periods
