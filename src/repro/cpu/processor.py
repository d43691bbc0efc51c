"""Multi-core processor: a collection of trace-driven cores."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .core import Core, CoreConfig
from .trace import Trace


class Processor:
    """Owns the cores of a multi-programmed simulation.

    The processor is *finished* when every core has retired its target
    instruction count.  Cores that finish early keep executing (wrapping
    their traces) so the remaining cores continue to see interference,
    following the standard multi-programmed workload methodology used by
    the paper (Section 7).
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        send_read: Callable[[int, int, object], bool],
        send_write: Callable[[int, int], bool],
        send_rng: Callable[[int, int, Callable], None],
        core_config: Optional[CoreConfig] = None,
        target_instructions: Optional[int] = None,
        priorities: Optional[Sequence[int]] = None,
    ) -> None:
        if not traces:
            raise ValueError("a processor needs at least one trace")
        self.core_config = core_config or CoreConfig()
        if priorities is not None and len(priorities) != len(traces):
            raise ValueError("priorities must have one entry per trace")
        self.cores: List[Core] = []
        for core_id, trace in enumerate(traces):
            priority = priorities[core_id] if priorities is not None else 0
            target = target_instructions or trace.total_instructions
            self.cores.append(
                Core(
                    core_id=core_id,
                    trace=trace,
                    send_read=send_read,
                    send_write=send_write,
                    send_rng=send_rng,
                    config=self.core_config,
                    target_instructions=target,
                    priority=priority,
                )
            )

        # Cores not yet finished, maintained as a shrinking list so the
        # per-iteration ``all_finished`` check is amortised O(1) instead
        # of scanning every core every cycle.  Order is irrelevant: only
        # emptiness matters, so finished cores are popped from the tail
        # as they surface there.
        self._unfinished: List[Core] = list(self.cores)

    def __len__(self) -> int:
        return len(self.cores)

    def __iter__(self):
        return iter(self.cores)

    def tick(self, now: int) -> None:
        """Advance every core by one bus cycle."""
        for core in self.cores:
            core.tick(now)

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest next-event bound over all cores (``None`` = all stalled)."""
        bound: Optional[int] = None
        for core in self.cores:
            core_bound = core.next_event_cycle(now)
            if core_bound is None:
                continue
            if core_bound <= now:
                return now
            if bound is None or core_bound < bound:
                bound = core_bound
        return bound

    def skip_cycles(self, now: int, target: int) -> None:
        """Apply the quiet ticks for cycles ``[now, target)`` on every core."""
        for core in self.cores:
            core.skip_cycles(now, target)

    @property
    def all_finished(self) -> bool:
        unfinished = self._unfinished
        while unfinished and unfinished[-1].finish_cycle is not None:
            unfinished.pop()
        return not unfinished

    @property
    def finish_cycle(self) -> int:
        """Cycle at which the last core finished (0 if still running)."""
        if not self.all_finished:
            return 0
        return max(core.finish_cycle for core in self.cores)

    def rng_cores(self) -> List[Core]:
        """Cores whose traces contain RNG requests."""
        return [core for core in self.cores if core.is_rng_application]

    def non_rng_cores(self) -> List[Core]:
        """Cores whose traces contain no RNG requests."""
        return [core for core in self.cores if not core.is_rng_application]
