"""System assembly and the simulation loop.

A :class:`System` wires together the substrate (DRAM channels, channel
controllers, trace-driven cores) and the configured design (RNG-oblivious
baseline, Greedy Idle, or DR-STRaNGe with its buffer, idleness predictors
and RNG-aware scheduler) and runs the cycle-level simulation until every
core has retired its target instruction count.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..controller.memory_controller import BaselineQueuePolicy, ChannelController
from ..controller.request import Request, RequestType
from ..core.fill_policies import DRStrangeFillPolicy, GreedyIdleFillPolicy
from ..core.idleness_predictor import IdlenessPredictor, SimpleIdlenessPredictor
from ..core.rl_predictor import QLearningIdlenessPredictor
from ..core.rng_buffer import RandomNumberBuffer
from ..core.rng_scheduler import ApplicationRegistry, RNGAwareQueuePolicy
from ..core.rng_subsystem import RNGSubsystem
from ..cpu.processor import Processor
from ..cpu.trace import Trace
from ..dram.dram_system import DRAMSystem
from ..energy.drampower import DRAMEnergyModel
from ..sched import BLISS, FRFCFS, FRFCFSCap, MemoryScheduler
from .config import (
    DESIGN_DRSTRANGE,
    DESIGN_GREEDY_IDLE,
    PRIORITY_NON_RNG_HIGH,
    PRIORITY_RNG_HIGH,
    SimulationConfig,
)
from .engine import make_engine
from .results import ChannelResult, CoreResult, SimulationResult


class _PredictorIdleListener:
    """Feeds observed idle periods into a channel's idleness predictor.

    A class (not a closure) so a mid-run :class:`System` stays
    serialisable by :mod:`repro.sim.checkpoint` — listeners live on the
    controllers for the whole run.
    """

    __slots__ = ("predictor",)

    def __init__(self, predictor: IdlenessPredictor) -> None:
        self.predictor = predictor

    def __call__(self, channel_id: int, length: int, last_address: int) -> None:
        self.predictor.observe_idle_period(length, last_address)


class System:
    """A fully assembled simulated system."""

    def __init__(self, traces: Sequence[Trace], config: Optional[SimulationConfig] = None) -> None:
        if not traces:
            raise ValueError("a system needs at least one trace")
        self.config = config or SimulationConfig()
        self.traces = list(traces)
        self.cycle = 0
        self.hit_cycle_limit = False

        cfg = self.config
        self.trng = cfg.make_trng()
        self.dram = DRAMSystem(cfg.timing, cfg.organization)

        # Application registry: priorities + RNG-application marking.
        priorities = self._derive_priorities()
        self.registry = ApplicationRegistry(priorities)

        # Random number buffer and per-channel idleness predictors.
        self.buffer: Optional[RandomNumberBuffer] = None
        if cfg.uses_buffer:
            self.buffer = RandomNumberBuffer(
                cfg.drstrange.buffer_entries, cfg.drstrange.bits_per_entry
            )
        self.predictors: Dict[int, IdlenessPredictor] = {}
        if cfg.design == DESIGN_DRSTRANGE and cfg.drstrange.predictor != "none" and self.buffer:
            for channel_id in range(self.dram.num_channels):
                self.predictors[channel_id] = self._make_predictor()

        # Channel controllers with the design-specific policies.
        self.controllers: List[ChannelController] = []
        self.queue_policies: List = []
        fill_policy = self._make_fill_policy()
        self.fill_policy = fill_policy
        for channel in self.dram.channels:
            queue_policy = self._make_queue_policy()
            self.queue_policies.append(queue_policy)
            controller = ChannelController(
                channel=channel,
                dram=self.dram,
                scheduler=self._make_scheduler(),
                config=cfg.controller,
                trng=self.trng,
                queue_policy=queue_policy,
                fill_policy=fill_policy,
                separate_rng_queue=cfg.uses_rng_aware_scheduler,
            )
            predictor = self.predictors.get(channel.channel_id)
            if predictor is not None:
                controller.add_idle_period_listener(_PredictorIdleListener(predictor))
            self.controllers.append(controller)

        # RNG subsystem and processor.
        self.rng_subsystem = RNGSubsystem(
            self.controllers,
            self.registry,
            buffer=self.buffer,
            buffer_serve_latency=cfg.drstrange.buffer_serve_latency,
            new_request_id=self._new_request_id,
        )
        self.processor = Processor(
            self.traces,
            send_read=self._send_read,
            send_write=self._send_write,
            send_rng=self._send_rng,
            core_config=cfg.core,
            priorities=[priorities[core_id] for core_id in range(len(self.traces))],
        )

        # Hot request-lifecycle state (see _send_read/_send_write):
        # decoded DRAM coordinates cached per distinct address (traces
        # wrap, so every address decodes once per run instead of once per
        # access), one request free-list arena per core (requests recycle
        # after their terminal completion instead of allocating one
        # object per memory access), and each core's shared read-
        # completion callback resolved once.  Request ids number every
        # request this system creates (reads, writes, RNG shares) in
        # creation order — BLISS tie-breaks on them — from a plain int,
        # so a snapshot's bytes depend on this system alone.
        self._next_request_id = 0
        self._decode_cache: Dict[int, object] = {}
        self._request_pools: List[list] = [[] for _ in self.traces]
        self._read_callbacks = [core._on_read_complete for core in self.processor.cores]
        self._priorities = [priorities[core_id] for core_id in range(len(self.traces))]

        self.energy_model = DRAMEnergyModel(num_channels=self.dram.num_channels)

        # Segment accounting: a run may execute as several engine
        # segments (periodic checkpointing pauses the engine between
        # them, possibly across processes after a restore), so wall time
        # and engine counters accumulate here until finalize().
        self._elapsed_seconds = 0.0
        self._engine_metrics: Dict[str, int] = {}

    # ------------------------------------------------------------------ wiring

    def _derive_priorities(self) -> Dict[int, int]:
        mode = self.config.priority_mode
        priorities: Dict[int, int] = {}
        for core_id, trace in enumerate(self.traces):
            is_rng = trace.rng_requests > 0
            if mode == PRIORITY_RNG_HIGH:
                priorities[core_id] = 1 if is_rng else 0
            elif mode == PRIORITY_NON_RNG_HIGH:
                priorities[core_id] = 0 if is_rng else 1
            else:
                priorities[core_id] = 0
        return priorities

    def _make_scheduler(self) -> MemoryScheduler:
        name = self.config.scheduler.lower()
        if name in ("fr-fcfs", "frfcfs"):
            return FRFCFS()
        if name in ("fr-fcfs+cap", "frfcfs+cap", "frfcfs-cap"):
            return FRFCFSCap(cap=self.config.scheduler_cap)
        if name == "bliss":
            return BLISS()
        raise ValueError(f"unknown scheduler {self.config.scheduler!r}")

    def _make_predictor(self) -> IdlenessPredictor:
        ds = self.config.drstrange
        if ds.predictor == "simple":
            return SimpleIdlenessPredictor(
                period_threshold=ds.period_threshold,
                table_entries=ds.predictor_table_entries,
                block_size=self.config.organization.bytes_per_column,
            )
        if ds.predictor == "rl":
            return QLearningIdlenessPredictor(
                period_threshold=ds.period_threshold,
                learning_rate=ds.rl_learning_rate,
                history_bits=ds.rl_history_bits,
                block_size=self.config.organization.bytes_per_column,
            )
        raise ValueError(f"unknown predictor {ds.predictor!r}")

    def _make_queue_policy(self):
        if self.config.uses_rng_aware_scheduler:
            return RNGAwareQueuePolicy(self.registry, stall_limit=self.config.drstrange.stall_limit)
        return BaselineQueuePolicy()

    def _make_fill_policy(self):
        cfg = self.config
        if self.buffer is None:
            return None
        if cfg.design == DESIGN_GREEDY_IDLE:
            return GreedyIdleFillPolicy(
                self.buffer,
                period_threshold=cfg.drstrange.period_threshold,
                bits_per_batch=self.trng.bits_per_batch(cfg.organization.banks_per_rank),
            )
        if cfg.design == DESIGN_DRSTRANGE:
            return DRStrangeFillPolicy(
                self.buffer,
                predictors=self.predictors,
                low_utilization_threshold=cfg.drstrange.low_utilization_threshold,
            )
        return None

    # ------------------------------------------------------------------ core callbacks

    def _new_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        return request_id

    def _send_read(self, address: int, core_id: int, slot) -> bool:
        cache = self._decode_cache
        decoded = cache.get(address)
        if decoded is None:
            decoded = self.dram.mapping.decode(address)
            cache[address] = decoded
        request_id = self._new_request_id()
        pool = self._request_pools[core_id]
        if pool:
            request = pool.pop().reuse(
                RequestType.READ,
                address,
                self.cycle,
                self._read_callbacks[core_id],
                decoded,
                slot,
                request_id,
            )
        else:
            request = Request(
                type=RequestType.READ,
                core_id=core_id,
                address=address,
                arrival_cycle=self.cycle,
                priority=self._priorities[core_id],
                callback=self._read_callbacks[core_id],
                decoded=decoded,
                request_id=request_id,
                window_slot=slot,
                pool=pool,
            )
        if self.controllers[decoded.channel].enqueue(request):
            return True
        # Rejected (queue full): the request never left our hands, so it
        # goes straight back to the arena and the core retries next cycle.
        pool.append(request)
        return False

    def _send_write(self, address: int, core_id: int) -> bool:
        cache = self._decode_cache
        decoded = cache.get(address)
        if decoded is None:
            decoded = self.dram.mapping.decode(address)
            cache[address] = decoded
        request_id = self._new_request_id()
        pool = self._request_pools[core_id]
        if pool:
            request = pool.pop().reuse(
                RequestType.WRITE, address, self.cycle, None, decoded, None, request_id
            )
        else:
            request = Request(
                type=RequestType.WRITE,
                core_id=core_id,
                address=address,
                arrival_cycle=self.cycle,
                priority=self._priorities[core_id],
                decoded=decoded,
                request_id=request_id,
                pool=pool,
            )
        if self.controllers[decoded.channel].enqueue(request):
            return True
        pool.append(request)
        return False

    def _send_rng(self, bits: int, core_id: int, callback) -> None:
        self.rng_subsystem.request_random(bits, core_id, callback)

    # ------------------------------------------------------------------ simulation

    def run(self) -> SimulationResult:
        """Run the simulation to completion and return its results.

        The loop itself lives in :mod:`repro.sim.engine`: the ``"event"``
        engine (default) skips straight to the next cycle at which any
        component can change state, the ``"tick"`` engine is the
        cycle-by-cycle reference.  Both produce bit-identical results.
        """
        self.advance()
        return self.finalize()

    def advance(self, stop_at: Optional[int] = None) -> bool:
        """Advance the simulation from its current cycle.

        Runs the configured engine until every core finishes, the cycle
        limit is hit, or — when ``stop_at`` is given — exactly cycle
        ``stop_at``, whichever comes first.  Returns ``True`` once the
        simulation is over (finished or cycle-limited); a ``False``
        return means the run paused at ``stop_at`` and the system is in
        a checkpointable state bit-identical to an uninterrupted run at
        that cycle (see :mod:`repro.sim.checkpoint`).
        """
        engine = make_engine(self.config.engine)
        if telemetry.profiling():
            engine.enable_profile()
        start = perf_counter()
        cycle = engine.run(self, stop_at=stop_at)
        self._elapsed_seconds += perf_counter() - start
        # Kept for instrumentation-minded callers (tests inspect the
        # engine's serve-window counters after a run).
        self.last_engine = engine

        self.cycle = cycle
        metrics = self._engine_metrics
        for name, value in engine.metrics().items():
            metrics[name] = metrics.get(name, 0) + value
        return self.processor.all_finished or self.hit_cycle_limit

    def finalize(self) -> SimulationResult:
        """Close trailing statistics and build the result (run once)."""
        cycle = self.cycle
        for controller in self.controllers:
            controller.flush_idle_period()
        telemetry.record_simulation(
            self.config.engine, cycle, self._elapsed_seconds, dict(self._engine_metrics)
        )
        return self._build_result(cycle)

    # ------------------------------------------------------------------ results

    def _build_result(self, total_cycles: int) -> SimulationResult:
        cores: List[CoreResult] = []
        for core in self.processor.cores:
            stats = core.result_stats()
            cycles = core.finish_cycle if core.finish_cycle is not None else total_cycles
            cores.append(
                CoreResult(
                    core_id=core.core_id,
                    name=core.trace.name,
                    is_rng=core.is_rng_application,
                    instructions=stats.instructions,
                    cycles=max(1, cycles),
                    memory_stall_cycles=stats.memory_stall_cycles,
                    rng_stall_cycles=stats.rng_stall_cycles,
                    reads=stats.reads_issued,
                    writes=stats.writes_issued,
                    rng_requests=stats.rng_requests,
                    average_read_latency=stats.average_read_latency,
                    average_rng_latency=stats.average_rng_latency,
                )
            )

        channels: List[ChannelResult] = []
        for controller in self.controllers:
            stats = controller.stats
            channels.append(
                ChannelResult(
                    channel_id=controller.channel_id,
                    busy_cycles=stats.busy_cycles,
                    idle_cycles=stats.idle_cycles,
                    rng_mode_cycles=stats.rng_mode_cycles,
                    served_reads=stats.served_reads,
                    served_writes=stats.served_writes,
                    served_rng_demand=stats.served_rng_demand,
                    rng_fill_batches=stats.rng_fill_batches,
                    rng_fill_bits=stats.rng_fill_bits,
                    mode_switches=stats.mode_switches,
                    idle_periods=list(stats.idle_periods),
                )
            )

        predictor_accuracy: Optional[float] = None
        predictor_predictions = 0
        if self.predictors:
            correct = 0
            for predictor in self.predictors.values():
                stats = predictor.stats
                correct += stats.true_positives + stats.true_negatives
                predictor_predictions += stats.predictions
            predictor_accuracy = correct / predictor_predictions if predictor_predictions else 0.0

        bank_stats = self.dram.channels[0].bank_stats()
        for channel in self.dram.channels[1:]:
            bank_stats.merge(channel.bank_stats())
        channel_stats = self.dram.total_stats()
        energy = self.energy_model.energy(bank_stats, channel_stats, total_cycles)

        scheduler_stats: Dict[str, int] = {}
        for policy in self.queue_policies:
            if isinstance(policy, RNGAwareQueuePolicy):
                scheduler_stats["rng_queue_choices"] = scheduler_stats.get(
                    "rng_queue_choices", 0
                ) + policy.stats.rng_queue_choices
                scheduler_stats["regular_queue_choices"] = scheduler_stats.get(
                    "regular_queue_choices", 0
                ) + policy.stats.regular_queue_choices
                scheduler_stats["starvation_interventions"] = scheduler_stats.get(
                    "starvation_interventions", 0
                ) + policy.stats.starvation_interventions

        rng_stats = self.rng_subsystem.stats
        memory_busy = sum(c.busy_cycles + c.rng_mode_cycles for c in channels)

        return SimulationResult(
            design=self.config.design,
            total_cycles=total_cycles,
            cores=cores,
            channels=channels,
            buffer_serve_rate=rng_stats.buffer_serve_rate,
            buffer_serves=rng_stats.buffer_serves,
            rng_requests=rng_stats.requests,
            predictor_accuracy=predictor_accuracy,
            predictor_predictions=predictor_predictions,
            energy=energy,
            memory_busy_cycles=memory_busy,
            scheduler_stats=scheduler_stats,
        )


def simulate(traces: Sequence[Trace], config: Optional[SimulationConfig] = None) -> SimulationResult:
    """Convenience wrapper: build a :class:`System` and run it."""
    return System(traces, config).run()
