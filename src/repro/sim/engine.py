"""Simulation engines: the reference tick loop and the cycle-skipping loop.

The simulator originally advanced one DRAM bus cycle at a time, ticking
every channel controller, the RNG subsystem and every core — even across
the long idle stretches the paper's whole design exploits (Figures 5, 15
and 18 are dominated by idleness).  The :class:`EventEngine` removes that
cost without changing a single result bit:

* every component exposes ``next_event_cycle(now)`` — a lower bound on
  the first cycle at which ticking it is **not** a pure counter update
  (``now`` = "must tick normally", ``None`` = "no self-generated events"),
* the engine advances the clock directly to the minimum of those bounds,
  asking each component to ``skip_cycles(now, target)`` — a closed-form
  replay of the skipped ticks (idle/busy/RNG-mode counters, occupancy
  samples, stall cycles, bubble retirement),
* whenever any component cannot bound its next event the engine falls
  back to single-stepping, reusing the exact tick code path.

Because skipped ticks are by construction state-preserving modulo those
linear counters, both engines produce **bit-identical**
:class:`~repro.sim.results.SimulationResult`s for every design; cached
results therefore stay valid and the engine choice is excluded from all
result-cache keys (see :mod:`repro.orchestration.keys`).

Select the engine with ``SimulationConfig.engine`` (default ``"event"``;
``"tick"`` is kept as the executable reference the equivalence tests
compare against) or ``python -m repro --engine``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..controller.memory_controller import ExecutionMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .system import System


class EngineProfile:
    """Opt-in phase profiling for one engine run (``--profile-engine``).

    Counts where the engine's dispatch loop actually spends its
    iterations:

    * ``serve_window_len`` / ``window_break`` — power-of-two histogram
      of batched-serve window lengths and the distribution of which
      bound ended each window (a waking completion, the RNG subsystem,
      the minimum read latency, the cycle limit, a serve-side event),
    * ``skip_len`` — histogram of full-jump lengths,
    * ``dispatch_iterations`` / ``single_steps`` / ``mixed_step_cycles``
      / ``serve_batches`` / ``controller_ticks`` — how often each
      dispatch path ran (``controller_ticks`` counts real
      :meth:`ChannelController.tick` calls, i.e. scheduler selects).

    Strictly observe-only: the profile never feeds a scheduling or
    skipping decision, and every hook is behind ``profile is not None``
    so the default (unprofiled) hot path pays one predicted branch.
    Exported as ``engine.profile.*`` counters through
    :meth:`TickEngine.metrics` / :meth:`EventEngine.metrics`, folded
    into run manifests and rendered by ``repro trace profile``.
    """

    __slots__ = (
        "dispatch_iterations",
        "single_steps",
        "mixed_step_cycles",
        "serve_batches",
        "controller_ticks",
        "serve_window_len",
        "skip_len",
        "window_break",
    )

    #: Histogram ceiling: everything at or past this lands in ``4096+``.
    BUCKET_CAP = 4096

    def __init__(self) -> None:
        self.dispatch_iterations = 0
        self.single_steps = 0
        self.mixed_step_cycles = 0
        self.serve_batches = 0
        self.controller_ticks = 0
        self.serve_window_len: dict = {}
        self.skip_len: dict = {}
        self.window_break: dict = {}

    @staticmethod
    def bucket(value: int) -> str:
        """Power-of-two bucket label for a cycle count."""
        if value <= 1:
            return "1"
        if value >= EngineProfile.BUCKET_CAP:
            return f"{EngineProfile.BUCKET_CAP}+"
        return str(1 << (value - 1).bit_length())

    def add_window(self, length: int, cause: str) -> None:
        label = self.bucket(length)
        self.serve_window_len[label] = self.serve_window_len.get(label, 0) + 1
        self.window_break[cause] = self.window_break.get(cause, 0) + 1

    def add_skip(self, length: int) -> None:
        label = self.bucket(length)
        self.skip_len[label] = self.skip_len.get(label, 0) + 1

    def metrics(self) -> dict:
        """The profile as flat ``engine.profile.*`` counters (zeros
        omitted, so an unprofiled-looking run stays unprofiled-looking)."""
        out = {
            "engine.profile.dispatch_iterations": self.dispatch_iterations,
            "engine.profile.single_steps": self.single_steps,
            "engine.profile.mixed_step_cycles": self.mixed_step_cycles,
            "engine.profile.serve_batches": self.serve_batches,
            "engine.profile.controller_ticks": self.controller_ticks,
        }
        for label, count in self.serve_window_len.items():
            out[f"engine.profile.serve_window_len.{label}"] = count
        for label, count in self.skip_len.items():
            out[f"engine.profile.skip_len.{label}"] = count
        for cause, count in self.window_break.items():
            out[f"engine.profile.window_break.{cause}"] = count
        return {name: value for name, value in out.items() if value}


class TickEngine:
    """The reference engine: tick every component once per bus cycle."""

    name = "tick"
    #: One-line description surfaced by registry-derived CLI help text.
    blurb = "cycle-by-cycle reference"

    def __init__(self) -> None:
        self.profile = None

    def enable_profile(self) -> EngineProfile:
        if self.profile is None:
            self.profile = EngineProfile()
        return self.profile

    def metrics(self) -> dict:
        """Engine counters to export as telemetry (profile only; the
        reference loop has no fast paths to count)."""
        return self.profile.metrics() if self.profile is not None else {}

    def run(self, system: "System", stop_at: "int | None" = None) -> int:
        """Advance ``system`` from its current cycle; return the final cycle.

        ``stop_at`` pauses the run at exactly that cycle (checkpointing);
        the loop starts from ``system.cycle`` so a paused run resumes
        where it left off.  Only reaching ``max_cycles`` sets
        ``hit_cycle_limit``.
        """
        controllers = system.controllers
        processor = system.processor
        rng_subsystem = system.rng_subsystem
        max_cycles = system.config.max_cycles
        limit = max_cycles if stop_at is None else min(stop_at, max_cycles)

        cycle = start_cycle = system.cycle
        while not processor.all_finished:
            if cycle >= limit:
                if cycle >= max_cycles:
                    system.hit_cycle_limit = True
                break
            system.cycle = cycle
            for controller in controllers:
                controller.tick(cycle)
            rng_subsystem.tick(cycle)
            processor.tick(cycle)
            cycle += 1
        profile = self.profile
        if profile is not None:
            # Every cycle is one dispatch iteration of one single-step
            # path that ticks every controller — closed form, so the
            # reference loop itself stays hook-free.
            ticked = cycle - start_cycle
            profile.dispatch_iterations += ticked
            profile.single_steps += ticked
            profile.controller_ticks += ticked * len(controllers)
        return cycle


class EventEngine:
    """Cycle-skipping engine: jump straight to the next possible event.

    Two mechanisms remove per-cycle work, both exploiting that a *quiet*
    tick (one whose only effect is a constant per-cycle counter delta) is
    exactly equivalent to a one-cycle ``skip_cycles``:

    * **Jumping.**  When every component is quiet past the current cycle,
      the clock advances straight to the earliest bound and the skipped
      ticks are replayed in closed form.
    * **Selective stepping.**  When some component must tick, only the
      active components run the real tick path; quiet ones take the cheap
      one-cycle skip.  Causality within a cycle is preserved by keeping
      the reference order (controllers, RNG subsystem, processor) and by
      deciding each core's activity *after* the memory side has ticked —
      a completion fired by a controller this cycle makes the waiting
      core active this cycle, exactly as in the tick engine.
    * **Batched serving.**  Dense workloads defeat both mechanisms: with
      deep read queues the controllers issue nearly every cycle, so the
      engine degenerates into per-cycle dispatch.  But whenever *every*
      core is window-stalled and the RNG subsystem is quiet, no request
      can arrive at any controller until a completion re-activates a
      core — each controller's serve decisions over that stretch depend
      only on its own state.  The engine detects such windows, bounds
      them by every event that could couple components again (a waking
      completion, a scheduler event such as a BLISS clearing boundary, an
      RNG-buffer state change, the earliest cycle a read issued inside
      the window could complete), and drains each controller through
      :meth:`~repro.controller.memory_controller.ChannelController.serve_batch`
      in a single call per window instead of one engine iteration per
      cycle.  ``serve_windows`` / ``serve_window_cycles`` on the engine
      instance count how often the fast path engaged.
    """

    name = "event"
    blurb = "cycle-skipping, default"

    def __init__(self) -> None:
        #: Batched-serve instrumentation: windows drained and cycles
        #: covered by them.  Tests use these to assert the fast path
        #: engaged (dense workloads) or was correctly broken by
        #: mid-window events.
        self.serve_windows = 0
        self.serve_window_cycles = 0
        #: Opt-in phase profiling; ``None`` keeps every hook to one
        #: predicted branch (see :class:`EngineProfile`).
        self.profile = None

    def enable_profile(self) -> EngineProfile:
        if self.profile is None:
            self.profile = EngineProfile()
        return self.profile

    def metrics(self) -> dict:
        """Engine counters to export as telemetry, keyed by metric name."""
        out = {
            "engine.serve_windows": self.serve_windows,
            "engine.serve_window_cycles": self.serve_window_cycles,
        }
        if self.profile is not None:
            out.update(self.profile.metrics())
        return out

    def run(self, system: "System", stop_at: "int | None" = None) -> int:
        """Advance ``system`` from its current cycle; return the final cycle.

        ``stop_at`` pauses the run at exactly that cycle (checkpointing).
        The pause epilogue is the same as the completion epilogue: every
        deferred quiet segment is materialised at the pause cycle, so the
        paused system's state is bit-identical to the reference engine's
        at that cycle and a resumed run continues exactly.  Only reaching
        ``max_cycles`` sets ``hit_cycle_limit``.
        """
        controllers = system.controllers
        processor = system.processor
        cores = processor.cores
        rng_subsystem = system.rng_subsystem
        max_cycles = system.config.max_cycles
        limit = max_cycles if stop_at is None else min(stop_at, max_cycles)

        controller_range = list(enumerate(controllers))
        core_range = list(enumerate(cores))
        controller_bounds = [0] * len(controllers)
        # Stall deferral: a core whose instruction window is full behind an
        # outstanding request can neither act nor finish until a completion
        # callback flips its head slot, so its per-cycle stall bookkeeping
        # is deferred entirely — ``stalled_since[i]`` records the first
        # deferred cycle, and the engine watches the head slot directly
        # (cores are engine-intimate by design) to wake it.
        stalled_since = [None] * len(cores)
        # Streaming deferral: a *quiet* core (pure bubble streaming until
        # its event bound) evolves deterministically as long as no memory
        # tick fires a completion into its window, so instead of one
        # ``skip_cycles`` call per cycle, the engine records the start of
        # the quiet stretch (``quiet_since[i]``) and the core's cached
        # absolute event bound (``core_bound_cache[i]``, ``-1`` invalid),
        # and materialises the whole stretch in one call right before the
        # core must tick, before any memory step (completions may change
        # its window), or at the end of the run.
        quiet_since = [None] * len(cores)
        core_bound_cache = [-1] * len(cores)
        # ``stalled_count`` mirrors the number of non-None entries so the
        # batched-serve pre-flight's "every core is stalled" test is O(1).
        stalled_count = 0
        num_cores = len(cores)
        # Floor on the cycles between issuing a read inside a serve window
        # and its completion; windows never exceed it, so completions of
        # reads issued inside a window always land outside it.
        min_read_completion = controllers[0].channel.min_read_completion_distance(
            controllers[0].config.backend_latency
        )
        # The shared random number buffer (if the design has one): its
        # version counter is one of the signals that end a mixed stretch.
        shared_buffer = system.buffer
        # The engine reads component internals (cached bounds, deferred
        # segment markers, window heads) to keep the hot loop free of
        # redundant calls; every such read mirrors a documented invariant
        # of the component's next_event_cycle / skip_cycles contract.
        unfinished = processor._unfinished
        profile = self.profile
        cycle = system.cycle
        while True:
            if profile is not None:
                profile.dispatch_iterations += 1
            while unfinished and unfinished[-1].finish_cycle is not None:
                unfinished.pop()
            if not unfinished:
                # The last finish may have been *materialised for the
                # current, not-yet-processed cycle*: the mixed-stretch
                # re-examination closes a quiet core's stretch through
                # ``cycle`` itself when its event bound is the next cycle
                # (so a finish inside it reaches this check), and every
                # other exit path leaves ``cycle`` already past the
                # finish.  The reference engine still runs that final
                # cycle, so the clock must advance past the last finish
                # before the epilogue closes the deferred memory-side
                # segments — which provably cover the gap: the stretch
                # only materialises while the memory side is quiet past
                # it, so the skipped cycle extends each open segment
                # with its established classification.
                for core in cores:
                    finish = core.finish_cycle
                    if finish is not None and finish >= cycle:
                        cycle = finish + 1
                break
            if cycle >= limit:
                if cycle >= max_cycles:
                    system.hit_cycle_limit = True
                break

            # Memory-side horizon: the earliest cycle a controller or the
            # RNG subsystem may change state.  ``None`` = unbounded-quiet.
            # The shared-buffer version is read once per iteration (every
            # controller's fill decision consults the same buffer).
            target = limit
            memory_active = False
            buffer_version = None if shared_buffer is None else shared_buffer.version
            for index, controller in controller_range:
                if controller._bound_cache_valid and (
                    buffer_version is None
                    or controller._fill_buffer is None
                    or controller._fill_buffer_version == buffer_version
                ):
                    bound = controller._bound_cache
                else:
                    bound = controller.next_event_cycle(cycle)
                controller_bounds[index] = bound
                if bound is None:
                    continue
                if bound <= cycle:
                    memory_active = True
                elif bound < target:
                    target = bound
            # RNG-subsystem bound, inlined from
            # RNGSubsystem.next_event_cycle (keep in sync): a pending
            # retry forces normal ticking, else the deferred heap head is
            # the earliest event.
            if rng_subsystem._retry_queue:
                rng_bound = cycle
            elif rng_subsystem._deferred:
                head = rng_subsystem._deferred[0][0]
                rng_bound = cycle if head <= cycle else head
            else:
                rng_bound = None
            if rng_bound is not None:
                if rng_bound <= cycle:
                    memory_active = True
                elif rng_bound < target:
                    target = rng_bound

            step = cycle + 1
            if not memory_active:
                # Nothing on the memory side ticks this cycle: no
                # completion can fire, so stalled cores stay stalled,
                # quiet cores' cached bounds stay exact, and a full jump
                # may be possible.
                cores_active = False
                for index, core in core_range:
                    if stalled_since[index] is not None:
                        continue
                    bound = core_bound_cache[index]
                    if bound == -1:
                        since = quiet_since[index]
                        if since is not None:
                            core.skip_cycles(since, cycle)
                            quiet_since[index] = None
                        bound = core.next_event_cycle(cycle)
                        if bound is None:
                            # Newly stalled: defer its bookkeeping from here.
                            stalled_since[index] = cycle
                            stalled_count += 1
                            continue
                        core_bound_cache[index] = bound
                    if bound <= cycle:
                        cores_active = True
                    elif bound == step:
                        # The core's event is next cycle: materialise the
                        # stretch through this cycle now, so a finish
                        # inside it is visible to the loop-top check of
                        # the next iteration (the engine must stop at the
                        # exact cycle the last core finishes).  The
                        # deferral marker moves to ``step`` (an empty
                        # stretch) so a re-examination of the same cycle
                        # cannot account it twice.
                        since = quiet_since[index]
                        core.skip_cycles(cycle if since is None else since, step)
                        quiet_since[index] = step
                        target = step
                    else:
                        if bound < target:
                            target = bound
                        if quiet_since[index] is None:
                            quiet_since[index] = cycle
                if not cores_active and target > step:
                    # Full jump: quiet cores stay deferred — their
                    # stretches extend through the jump for free — except
                    # those whose event is exactly the jump target, which
                    # materialise now for the same loop-top reason.
                    for index, controller in controller_range:
                        if controller._skip_kind is None:
                            controller.skip_cycles(cycle, target)
                    # = RNGSubsystem.skip_cycles(cycle, target); keep in sync.
                    rng_subsystem.now = target - 1
                    for index, core in core_range:
                        if core_bound_cache[index] == target and quiet_since[index] is not None:
                            core.skip_cycles(quiet_since[index], target)
                            quiet_since[index] = None
                    if profile is not None:
                        profile.add_skip(target - cycle)
                    cycle = target
                    continue
                # Mixed stretch with a quiet memory side: step the active
                # cores cycle by cycle *without re-running the memory
                # prologue*.  The memory side provably stays quiet until
                # ``target`` unless a core's tick perturbs it, and every
                # perturbation is observable: an enqueue invalidates that
                # controller's bound cache, a buffer serve bumps the
                # shared buffer version, and an RNG request grows the
                # subsystem's deferred heap or retry queue.  The stretch
                # breaks on the first such signal (or a finish of the
                # watched tail core) and falls back to the full loop.
                deferred_len = len(rng_subsystem._deferred)
                buffer_version = -1 if shared_buffer is None else shared_buffer.version
                stretch_start = cycle
                while True:
                    system.cycle = system.dram.now = rng_subsystem.now = cycle
                    for index, controller in controller_range:
                        if controller._skip_kind is None:
                            controller.skip_cycles(cycle, step)
                    for index, core in core_range:
                        bound = core_bound_cache[index]
                        if bound == -1 or bound > cycle:
                            continue
                        since = quiet_since[index]
                        if since is not None:
                            core.skip_cycles(since, cycle)
                            quiet_since[index] = None
                        core.tick(cycle)
                        core_bound_cache[index] = -1
                    cycle = step
                    step = cycle + 1
                    if unfinished[-1].finish_cycle is not None:
                        break
                    if cycle >= target:
                        break
                    if (
                        (shared_buffer is not None and shared_buffer.version != buffer_version)
                        or len(rng_subsystem._deferred) != deferred_len
                        or rng_subsystem._retry_queue
                    ):
                        break
                    dirty = False
                    for index, controller in controller_range:
                        if not controller._bound_cache_valid:
                            dirty = True
                            break
                    if dirty:
                        break
                    # Re-examine the cores for the next cycle (same rules
                    # as the prologue's core pass).
                    cores_active = False
                    for index, core in core_range:
                        if stalled_since[index] is not None:
                            continue
                        bound = core_bound_cache[index]
                        if bound == -1:
                            since = quiet_since[index]
                            if since is not None:
                                core.skip_cycles(since, cycle)
                                quiet_since[index] = None
                            bound = core.next_event_cycle(cycle)
                            if bound is None:
                                stalled_since[index] = cycle
                                stalled_count += 1
                                continue
                            core_bound_cache[index] = bound
                        if bound <= cycle:
                            cores_active = True
                        elif bound == step:
                            since = quiet_since[index]
                            core.skip_cycles(cycle if since is None else since, step)
                            quiet_since[index] = step
                        elif quiet_since[index] is None:
                            quiet_since[index] = cycle
                    if not cores_active:
                        break
                if profile is not None:
                    profile.mixed_step_cycles += cycle - stretch_start
                continue

            # Batched-serve fast path: with every core window-stalled and
            # the RNG subsystem quiet, no request can arrive at any
            # controller, so each controller's serve decisions are a pure
            # function of its own state until an event re-couples the
            # components.  Resolve the whole window in one engine
            # iteration instead of one per cycle.
            if stalled_count == num_cores and (rng_bound is None or rng_bound > cycle):
                # Horizon: the minimum-completion ceiling, the RNG
                # subsystem's next event, the cycle limit, and — the
                # common binding constraint in dense workloads — the
                # earliest *waking* completion: a stalled core's window
                # head re-activates it the cycle it completes.  Serving
                # controllers' own future serve points are deliberately
                # *not* horizon events; serve_batch resolves them.
                window_end = cycle + min_read_completion
                if rng_bound is not None and rng_bound < window_end:
                    window_end = rng_bound
                if limit < window_end:
                    window_end = limit
                # A waking completion at cycle ``c`` does not end the
                # window at ``c``: in the reference order the controllers
                # tick *before* the cores, so every serve decision at
                # ``c`` precedes the woken core's enqueues.  The window
                # extends through ``c`` and the engine runs the woken
                # cores' ticks at ``c`` itself below — saving the whole
                # per-cycle dispatch the wake would otherwise cost.
                # (A stalled core's window head is its oldest outstanding
                # slot, ``_undone_fifo[0]``.)
                for core in cores:
                    ready = core._undone_fifo[0].ready_at
                    if ready is not None and ready < window_end:
                        window_end = ready + 1
                if window_end > step:
                    window_end = self._serve_window_end(
                        cycle, window_end, controller_range, controller_bounds
                    )
                if window_end > step:
                    for index, controller in controller_range:
                        if controller.mode is ExecutionMode.REGULAR and (
                            controller.read_queue._entries or controller.write_queue._entries
                        ):
                            controller.serve_batch(cycle, window_end)
                        elif controller._skip_kind is None:
                            controller.skip_cycles(cycle, window_end)
                    # = RNGSubsystem.skip_cycles(cycle, window_end); keep in sync.
                    rng_subsystem.now = window_end - 1
                    self.serve_windows += 1
                    self.serve_window_cycles += window_end - cycle
                    if profile is not None:
                        # Cause-of-break attribution, re-derived from the
                        # bounds (first match wins on ties, in horizon
                        # order): the cycle limit, the RNG subsystem's
                        # next event, the minimum-read-latency ceiling, a
                        # waking completion, else a serve-side event from
                        # ``_serve_window_end``.
                        if window_end == limit:
                            cause = "cycle_limit"
                        elif rng_bound is not None and window_end == rng_bound:
                            cause = "rng"
                        elif window_end == cycle + min_read_completion:
                            cause = "read_completion"
                        else:
                            cause = "serve_bound"
                            for core in cores:
                                ready = core._undone_fifo[0].ready_at
                                if ready is not None and ready + 1 == window_end:
                                    cause = "wake"
                                    break
                        profile.serve_batches += 1
                        profile.add_window(window_end - cycle, cause)
                    # Wake pass at the window's last cycle: completions
                    # fired inside the window may have flipped stalled
                    # heads; those cores tick now, exactly as the
                    # reference would after the memory side at this
                    # cycle.  Their enqueues land after every in-window
                    # serve decision, preserving arrival order.
                    wake_cycle = window_end - 1
                    system.cycle = system.dram.now = wake_cycle
                    for index, core in core_range:
                        if stalled_since[index] is None or not core._undone_fifo[0].done:
                            continue
                        core.catch_up_stall(stalled_since[index], wake_cycle)
                        stalled_since[index] = None
                        stalled_count -= 1
                        bound = core.next_event_cycle(wake_cycle)
                        if bound is None:
                            stalled_since[index] = wake_cycle
                            stalled_count += 1
                        elif bound <= wake_cycle:
                            core.tick(wake_cycle)
                        elif bound == window_end:
                            core.skip_cycles(wake_cycle, window_end)
                        else:
                            core_bound_cache[index] = bound
                            quiet_since[index] = wake_cycle
                    cycle = window_end
                    continue

            # Single step with memory activity: tick the active memory
            # components, one-cycle-skip the quiet ones (identical by the
            # definition of quietness), then decide each core *after* the
            # memory side has ticked — a completion fired above wakes the
            # waiting core this very cycle, exactly as in the tick engine.
            # Quiet cores' deferred stretches materialise first: the
            # completions about to fire may change their windows, which
            # would reclassify cycles that already went by.
            system.cycle = system.dram.now = cycle
            if profile is not None:
                profile.single_steps += 1
                for index, controller in controller_range:
                    bound = controller_bounds[index]
                    if bound is not None and bound <= cycle:
                        profile.controller_ticks += 1
            for index, core in core_range:
                since = quiet_since[index]
                if since is not None:
                    core.skip_cycles(since, cycle)
                    quiet_since[index] = None
                core_bound_cache[index] = -1
            for index, controller in controller_range:
                bound = controller_bounds[index]
                if bound is not None and bound <= cycle:
                    controller.tick(cycle)
                elif controller._skip_kind is None:
                    controller.skip_cycles(cycle, step)
            if rng_bound is not None and rng_bound <= cycle:
                rng_subsystem.tick(cycle)
            else:
                rng_subsystem.now = cycle
            for index, core in core_range:
                since = stalled_since[index]
                if since is not None:
                    # A stalled window only unblocks when a completion
                    # marks its head slot done; until then the core has
                    # no tick effects beyond the deferred stall counters.
                    if not core._undone_fifo[0].done:
                        continue
                    core.catch_up_stall(since, cycle)
                    stalled_since[index] = None
                    stalled_count -= 1
                bound = core.next_event_cycle(cycle)
                if bound is None:
                    stalled_since[index] = cycle
                    stalled_count += 1
                elif bound <= cycle:
                    core.tick(cycle)
                elif bound == step:
                    # Event next cycle: materialise immediately so a
                    # finish this cycle reaches the loop-top check.
                    core.skip_cycles(cycle, step)
                else:
                    core_bound_cache[index] = bound
                    quiet_since[index] = cycle
            cycle = step

        # Close every deferred quiet segment at the final cycle count
        # (simulation finished or hit the cycle limit) so the statistics
        # the result builder reads are complete.
        system.dram.now = cycle
        for controller in controllers:
            controller.catch_up(cycle)
        for index, core in enumerate(cores):
            since = stalled_since[index]
            if since is not None:
                core.catch_up_stall(since, cycle)
            since = quiet_since[index]
            if since is not None:
                core.skip_cycles(since, cycle)
        return cycle

    def _serve_window_end(self, cycle, limit, controller_range, controller_bounds):
        """Bound a batched-serve window starting at ``cycle``, or reject it.

        Called with every core window-stalled, the RNG subsystem quiet
        past ``limit``, and ``limit`` already capped by the earliest
        waking completion (a stalled core's window head re-activates its
        core the cycle it completes; completions of reads that are still
        queued land at least a full minimum read latency after they
        issue, past any window formed now).  Returns the first cycle
        per-cycle dispatch must resume at — ``<= cycle + 1`` rejects the
        window.  Per controller:

        * a *server* (Regular Execution Mode with queued regular work) is
          checked for events ``serve_batch`` cannot replay: a queued
          RNG-type request (serving it switches modes), a scheduler event
          in the window (BLISS clearing boundary), a write-only backlog
          whose last issue could end the busy streak mid-window, and a
          fill-policy low-utilisation hazard at the window start (later
          serve points observe a busy bus, see
          :meth:`DRStrangeFillPolicy.serve_window_hazard
          <repro.core.fill_policies.DRStrangeFillPolicy.serve_window_hazard>`);
        * every other controller is quiet until its cached event bound
          (RNG-mode segment end, in-flight completion, idle fill event),
          which simply caps the window; a non-serving controller that is
          active *now* (a completion or fill decision due this cycle)
          rejects it.
        """
        end = limit
        for index, controller in controller_range:
            if controller.mode is ExecutionMode.REGULAR and (
                controller.read_queue._entries or controller.write_queue._entries
            ):
                read_queue = controller.read_queue
                if read_queue.rng_pending:
                    return 0
                rng_queue = controller.rng_queue
                if rng_queue is not None and rng_queue._entries:
                    return 0
                probe = controller._scheduler_event_probe
                if probe is not None:
                    event = probe(cycle)
                    if event is not None:
                        if event <= cycle:
                            return 0
                        if event < end:
                            end = event
                if not read_queue._entries:
                    # Write-only backlog: no read issued inside the window
                    # pins the busy streak, so it may lapse once the last
                    # write has issued and the in-flight reads drained.
                    floor = cycle + len(controller.write_queue._entries)
                    inflight = controller._inflight
                    if inflight:
                        last_completion = max(entry[0] for entry in inflight)
                        if last_completion > floor:
                            floor = last_completion
                    if floor < end:
                        end = floor
                fill = controller.fill_policy
                if fill is not None and fill.serve_window_hazard(controller, cycle):
                    return 0
            else:
                bound = controller_bounds[index]
                if bound is None:
                    continue
                if bound <= cycle:
                    return 0
                if bound < end:
                    end = bound
        return end


#: Engine registry, keyed by ``SimulationConfig.engine``.  The single
#: source of truth for valid engine names: ``SimulationConfig`` derives
#: its validation tuple from it, as do the CLI ``--engine`` choices and
#: the distributed submit/worker paths.
ENGINE_REGISTRY = {
    EventEngine.name: EventEngine,
    TickEngine.name: TickEngine,
}


def make_engine(name: str):
    """Instantiate the engine registered under ``name``."""
    try:
        return ENGINE_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known engines: {', '.join(sorted(ENGINE_REGISTRY))}"
        ) from None
