"""Simulation configuration (the paper's Table 1 plus design selection)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..controller.config import ControllerConfig
from ..core.config import DRStrangeConfig
from ..cpu.core import CoreConfig
from ..dram.timing import DRAMOrganization, DRAMTiming
from ..trng import DRAMTRNGModel, make_trng
from .engine import ENGINE_REGISTRY, EventEngine, TickEngine

#: System design points evaluated by the paper.
DESIGN_RNG_OBLIVIOUS = "rng-oblivious"
DESIGN_GREEDY_IDLE = "greedy-idle"
DESIGN_DRSTRANGE = "dr-strange"

DESIGNS = (DESIGN_RNG_OBLIVIOUS, DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE)

#: Application priority assignments (Section 8.5).
PRIORITY_EQUAL = "equal"
PRIORITY_RNG_HIGH = "rng-high"
PRIORITY_NON_RNG_HIGH = "non-rng-high"

PRIORITY_MODES = (PRIORITY_EQUAL, PRIORITY_RNG_HIGH, PRIORITY_NON_RNG_HIGH)

#: Simulation engines (see :mod:`repro.sim.engine`).  Both engines produce
#: bit-identical :class:`~repro.sim.results.SimulationResult`s; the event
#: engine skips over cycles in which no component can change state.  The
#: registry in :mod:`repro.sim.engine` is the single source of truth, so
#: config validation can never drift from what ``make_engine`` accepts.
ENGINE_EVENT = EventEngine.name
ENGINE_TICK = TickEngine.name

ENGINES = tuple(ENGINE_REGISTRY)


def engine_help() -> str:
    """Registry-derived ``--engine`` help text (CLI, worker and submit paths).

    Built from each engine's ``name``/``blurb`` so the help can never
    drift from :data:`~repro.sim.engine.ENGINE_REGISTRY`.
    """
    choices = ", ".join(
        f"'{name}' ({cls.blurb})" for name, cls in ENGINE_REGISTRY.items()
    )
    return f"simulation engine: {choices}; results are bit-identical either way"


@dataclass(frozen=True)
class SimulationConfig:
    """Complete configuration of one simulation.

    The defaults reproduce the paper's evaluated DR-STRaNGe system
    (Table 1): DDR3-1600 with 4 channels, FR-FCFS with a column cap of 16
    as the within-queue scheduler, the D-RaNGe TRNG, a 16-entry random
    number buffer, the simple idleness predictor with a low-utilisation
    threshold of 4, and equal application priorities.
    """

    design: str = DESIGN_DRSTRANGE
    scheduler: str = "fr-fcfs+cap"
    scheduler_cap: int = 16
    trng_name: str = "d-range"
    trng_throughput_mbps: Optional[float] = None
    priority_mode: str = PRIORITY_EQUAL
    drstrange: DRStrangeConfig = field(default_factory=DRStrangeConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    organization: DRAMOrganization = field(default_factory=DRAMOrganization)
    #: Hard simulation length limit (bus cycles) as a runaway guard.
    max_cycles: int = 5_000_000
    #: Simulation engine: ``"event"`` (cycle-skipping) or ``"tick"`` (the
    #: reference cycle-by-cycle loop).  Results are bit-identical, so the
    #: engine is excluded from all result-cache keys.
    engine: str = ENGINE_EVENT

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.priority_mode not in PRIORITY_MODES:
            raise ValueError(
                f"priority_mode must be one of {PRIORITY_MODES}, got {self.priority_mode!r}"
            )
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")

    # -- derived objects -----------------------------------------------------------

    def make_trng(self) -> DRAMTRNGModel:
        """Instantiate the configured TRNG mechanism model."""
        kwargs = {}
        if self.trng_name == "parametric":
            if self.trng_throughput_mbps is None:
                raise ValueError("parametric TRNG requires trng_throughput_mbps")
            kwargs["throughput_mbps"] = self.trng_throughput_mbps
            kwargs["num_channels"] = self.organization.channels
            kwargs["bus_mhz"] = self.timing.bus_frequency_mhz
        elif self.trng_throughput_mbps is not None:
            kwargs["throughput_mbps"] = self.trng_throughput_mbps
        return make_trng(self.trng_name, **kwargs)

    @property
    def uses_rng_aware_scheduler(self) -> bool:
        """Whether the design separates RNG requests into their own queue."""
        return self.design in (DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE)

    @property
    def uses_buffer(self) -> bool:
        """Whether the design has a random number buffer."""
        return self.design in (DESIGN_GREEDY_IDLE, DESIGN_DRSTRANGE) and self.drstrange.has_buffer

    def alone_run_config(self) -> "SimulationConfig":
        """Configuration of the single-core baseline used for "alone" runs.

        Per-application slowdowns are always measured against the
        application running alone on the RNG-oblivious baseline system
        with the same TRNG mechanism (Section 7).  That design builds no
        buffer, predictor or RNG-aware queue, so it reads no
        :class:`DRStrangeConfig` field; resetting it gives configs that
        differ only there one alone run, and one result-store key.
        """
        return replace(
            self,
            design=DESIGN_RNG_OBLIVIOUS,
            scheduler="fr-fcfs+cap",
            priority_mode=PRIORITY_EQUAL,
            drstrange=DRStrangeConfig(),
        )


def baseline_config(**overrides) -> SimulationConfig:
    """The RNG-oblivious baseline system configuration."""
    return SimulationConfig(design=DESIGN_RNG_OBLIVIOUS, **overrides)


def greedy_config(**overrides) -> SimulationConfig:
    """The Greedy Idle design configuration."""
    return SimulationConfig(design=DESIGN_GREEDY_IDLE, **overrides)


def drstrange_config(**overrides) -> SimulationConfig:
    """The full DR-STRaNGe design configuration (paper defaults)."""
    return SimulationConfig(design=DESIGN_DRSTRANGE, **overrides)
