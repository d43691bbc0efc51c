"""The public sweep API: one frozen request object as the single currency.

The request is a *value* — hashable, serialisable, validated once at
the edge — that travels unchanged from the CLI through
:func:`~repro.orchestration.sweep.sweep_experiments`, the daemon
protocol and run manifests.  Where the points execute is not part of
it: that is the ``--target`` spec.

* :class:`SweepRequest` — frozen, normalised description of a sweep
  (which figures, at what scale, on which engine, with what service
  priority).
* :class:`SweepResult` — the figure-label → data-dict mapping plus the
  request and orchestration stats that produced it.
* :func:`parse_target` — the one parser for the ``--target`` execution
  spec (``local``, ``process[:N]``, ``HOST:PORT``) shared by every CLI
  verb.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..sim.config import ENGINES

#: Service priorities, ordered best-first.  ``interactive`` jobs are
#: favoured by the tenant scheduler; ``batch`` jobs (the 43-app
#: ``--full`` sweeps) yield under contention.
PRIORITIES = ("interactive", "batch")


def _normalize_experiments(experiments) -> Tuple[str, ...]:
    if isinstance(experiments, str):
        experiments = (experiments,)
    try:
        normalized = tuple(str(item).strip().lower() for item in experiments)
    except TypeError:
        raise TypeError(
            f"experiments must be a string or an iterable of strings, got {experiments!r}"
        ) from None
    if not normalized or any(not item for item in normalized):
        raise ValueError("experiments must name at least one non-empty experiment")
    return normalized


@dataclass(frozen=True)
class SweepRequest:
    """Everything needed to run (or submit) one sweep, as a frozen value.

    ``experiments`` accepts a single id or any iterable of ids and is
    normalised to a lowercase tuple; ``instructions``/``full`` scale the
    roster exactly like the CLI flags of the same names; ``engine``
    forces every simulation of the sweep onto one engine (results are
    engine-independent, so this never changes cache keys); ``priority``
    and ``tags`` only matter to the service scheduler and manifests.
    """

    experiments: Tuple[str, ...]
    instructions: Optional[int] = None
    full: bool = False
    engine: Optional[str] = None
    priority: str = "interactive"
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", _normalize_experiments(self.experiments))
        if self.instructions is not None:
            instructions = int(self.instructions)
            if instructions <= 0:
                raise ValueError(f"instructions must be positive, got {instructions}")
            object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "full", bool(self.full))
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {self.priority!r}")
        object.__setattr__(self, "tags", tuple(str(tag) for tag in self.tags))

    def run_kwargs(self) -> Dict:
        """The experiment-module kwargs this request implies.

        Only set fields appear, so experiments keep their own defaults
        (and :func:`~repro.orchestration.sweep.filter_run_kwargs` drops
        whatever a given figure does not accept).
        """
        kwargs: Dict = {}
        if self.instructions is not None:
            kwargs["instructions"] = self.instructions
        if self.full:
            kwargs["full"] = True
        return kwargs

    def to_wire(self) -> Dict:
        """JSON-safe payload for the submit protocol and manifests."""
        payload: Dict = {"experiments": list(self.experiments)}
        if self.instructions is not None:
            payload["instructions"] = self.instructions
        if self.full:
            payload["full"] = True
        if self.engine is not None:
            payload["engine"] = self.engine
        if self.priority != "interactive":
            payload["priority"] = self.priority
        if self.tags:
            payload["tags"] = list(self.tags)
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping) -> "SweepRequest":
        """Tolerant decode: unknown keys are ignored, missing keys default
        (:meth:`to_wire` omits every field left at its default)."""
        if not isinstance(payload, Mapping):
            raise TypeError(f"request payload must be a mapping, got {type(payload).__name__}")
        return cls(
            experiments=tuple(payload.get("experiments", ())),
            instructions=payload.get("instructions"),
            full=bool(payload.get("full", False)),
            engine=payload.get("engine"),
            priority=payload.get("priority", "interactive"),
            tags=tuple(payload.get("tags", ())),
        )


@dataclass
class SweepStats:
    """Bookkeeping of one sweep (for reporting).

    ``planned`` counts the distinct points the sweep's figures read;
    ``executed`` those simulated this run and ``reused`` those the store
    already held.
    """

    planned: int = 0
    executed: int = 0
    reused: int = 0
    #: Wall time of the whole sweep (probe + execute + replay), seconds.
    elapsed: float = 0.0
    #: Causal id of this run (shared by its manifest, journal and the
    #: cache entries it wrote).
    run_id: Optional[str] = None
    #: Per-point provenance: key → ``{"state": "simulated"|"replayed",
    #: "figure": ..., "run": <originating run id>}``.  ``simulated``
    #: means this run executed the point; ``replayed`` means the store
    #: already held it (``run`` then names the run that wrote it, when
    #: the entry recorded one).
    points: Dict[str, Dict] = field(default_factory=dict)
    #: The executor that simulated the missing points (the caller's, or
    #: the one a local sweep chose) and its worker processes.
    executor: str = "serial"
    jobs: int = 1


@dataclass
class SweepResult(Mapping):
    """Outcome of one sweep: data dicts plus the request and stats.

    Behaves as a read-only mapping of figure label → data dict.
    """

    request: SweepRequest
    data: Dict[str, Dict] = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)

    def __getitem__(self, label: str) -> Dict:
        return self.data[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ExecutionTarget:
    """Parsed ``--target`` spec: where a sweep's points should execute."""

    kind: str  # "local" | "process" | "service"
    jobs: int = 1
    address: Optional[Tuple[str, int]] = None


def parse_target(text: str) -> ExecutionTarget:
    """Parse an execution target spec.

    * ``local`` — serial, in this process.
    * ``process`` or ``process:N`` — local process pool (N defaults to
      the machine's CPU count, resolved by the executor).
    * ``HOST:PORT`` — submit to a running sweep service.
    """
    spec = str(text).strip()
    lowered = spec.lower()
    if lowered == "local":
        return ExecutionTarget(kind="local", jobs=1)
    if lowered == "process" or lowered.startswith("process:"):
        _, _, count = lowered.partition(":")
        if not count:
            return ExecutionTarget(kind="process", jobs=0)
        try:
            jobs = int(count)
        except ValueError:
            raise ValueError(f"invalid process count in target {text!r}") from None
        if jobs < 1:
            raise ValueError(f"process count must be >= 1 in target {text!r}")
        return ExecutionTarget(kind="process", jobs=jobs)
    host, sep, port_text = spec.rpartition(":")
    if sep and host:
        try:
            port = int(port_text)
        except ValueError:
            port = None
        if port is not None and 0 < port < 65536:
            return ExecutionTarget(kind="service", address=(host, port))
    raise ValueError(
        f"invalid target {text!r}: expected 'local', 'process[:N]' or 'HOST:PORT'"
    )
