"""Persistent, content-addressed result cache.

Simulation results are stored one JSON file per simulation point under
``<cache_dir>/<key[:2]>/<key>.json`` (a git-object-style fan-out so no
single directory grows unboundedly).  Keys come from
:mod:`repro.orchestration.keys`; values are complete
:class:`~repro.sim.results.SimulationResult` records.

JSON round-trips Python floats exactly (``json`` serialises the shortest
repr that parses back to the same IEEE-754 double), so a result read
back from the cache is bit-identical to the freshly simulated one —
the property the serial-vs-parallel equivalence guarantee rests on.

Writes are atomic (temp file + ``os.replace``) so concurrent CLI
invocations sharing one cache directory can never observe a torn entry.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from .. import telemetry
from ..telemetry.manifest import MANIFEST_DIR
from ..cpu.trace import Trace
from ..energy.drampower import EnergyBreakdown
from ..sim import checkpoint as checkpoint_format
from ..sim.config import SimulationConfig
from ..sim.results import ChannelResult, CoreResult, SimulationResult
from ..sim.runner import AloneRunCache
from .keys import SCHEMA_VERSION, point_key

# ----------------------------------------------------------------- serialisation


def _record(record) -> Dict:
    """``dataclasses.asdict(record)`` for a flat result record, whose fields
    hold scalars and lists of scalars, without ``asdict``'s per-value deep
    copy (a list is still copied)."""
    fields = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        fields[field.name] = list(value) if isinstance(value, list) else value
    return fields


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialise a :class:`SimulationResult` to JSON-compatible data."""
    return {
        "design": result.design,
        "total_cycles": result.total_cycles,
        "cores": [_record(core) for core in result.cores],
        "channels": [_record(channel) for channel in result.channels],
        "buffer_serve_rate": result.buffer_serve_rate,
        "buffer_serves": result.buffer_serves,
        "rng_requests": result.rng_requests,
        "predictor_accuracy": result.predictor_accuracy,
        "predictor_predictions": result.predictor_predictions,
        "energy": _record(result.energy),
        "memory_busy_cycles": result.memory_busy_cycles,
        "scheduler_stats": dict(result.scheduler_stats),
    }


def result_from_dict(payload: Dict) -> SimulationResult:
    """Reconstruct a :class:`SimulationResult` from :func:`result_to_dict`."""
    return SimulationResult(
        design=payload["design"],
        total_cycles=payload["total_cycles"],
        cores=[CoreResult(**core) for core in payload["cores"]],
        channels=[ChannelResult(**channel) for channel in payload["channels"]],
        buffer_serve_rate=payload["buffer_serve_rate"],
        buffer_serves=payload["buffer_serves"],
        rng_requests=payload["rng_requests"],
        predictor_accuracy=payload["predictor_accuracy"],
        predictor_predictions=payload["predictor_predictions"],
        energy=EnergyBreakdown(**payload["energy"]),
        memory_busy_cycles=payload["memory_busy_cycles"],
        scheduler_stats=dict(payload["scheduler_stats"]),
    )


def _atomic_write_json(path: str | os.PathLike, payload: Dict) -> int:
    """Write ``payload`` as JSON via temp file + ``os.replace`` so no
    concurrent reader (or interrupted writer) can observe a torn file.

    Returns the bytes written.  ``json.dumps`` encodes in one call of the
    C encoder, where ``json.dump`` on a handle runs the pure-Python one;
    both give the same text.
    """
    data = json.dumps(payload).encode("utf-8")
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(data)


# ----------------------------------------------------------------- disk store


class ResultCache:
    """Content-addressed on-disk store of simulation results.

    A small in-memory memo layer sits in front of the disk so a result
    is deserialised at most once per process.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        #: ``cache_dir`` ending in a separator: entry paths are joined on
        #: it as strings, without pathlib's per-call parsing.
        self._root = os.path.join(self.cache_dir, "")
        self.hits = 0
        self.misses = 0
        self._memo: Dict[str, SimulationResult] = {}
        #: Run id recorded in each memoised entry (``None`` when it names
        #: none), which a sweep reports as the entry's provenance.
        self.runs: Dict[str, Optional[str]] = {}
        #: Run id stamped into entries written while set (see
        #: :meth:`put`); the orchestrator scopes it around a sweep so
        #: every entry records which run produced it.
        self.run_context: Optional[str] = None

    def _path(self, key: str) -> str:
        return f"{self._root}{key[:2]}{os.sep}{key}.json"

    def _entry_snapshot(self) -> list[Path]:
        """A point-in-time, deduplicated listing of the on-disk entries.

        ``glob`` evaluates lazily: iterating it while the same run (or a
        concurrent worker) writes new entries can pick up files created
        after the listing started — and, on directory mutation, yield a
        path more than once — so counting directly off the iterator
        double-counts entries written during the run being reported on.
        Materialising the listing first makes every reader operate on one
        consistent snapshot.
        """
        if not self.cache_dir.is_dir():
            return []
        return sorted(set(self.cache_dir.glob("??/*.json")))

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or ``None`` on a miss."""
        memoized = self._memo.get(key)
        if memoized is not None:
            self.hits += 1
            telemetry.counter("cache.hits")
            return memoized
        path = self._path(key)
        # A *corrupt* entry (a worker killed mid-write on a non-atomic
        # filesystem, torn restore from a CI cache, hand edit) is a miss —
        # and the bad file is deleted so it cannot shadow the recomputed
        # entry or trip every later reader.  Two neighbouring cases stay
        # non-destructive misses: transient read errors (EMFILE, EIO, …)
        # say nothing about the content, and a schema-version mismatch is
        # a valid record from another code revision (the recompute
        # overwrites it under the same key anyway).
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise TypeError("entry is not a JSON object")
            if payload.get("schema") != SCHEMA_VERSION:
                self.misses += 1
                telemetry.counter("cache.misses")
                return None
            result = result_from_dict(payload["result"])
            run = payload.get("run")
        except OSError:
            self.misses += 1
            telemetry.counter("cache.misses")
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError):
            self.misses += 1
            telemetry.counter("cache.misses")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._memo[key] = result
        self.runs[key] = run if isinstance(run, str) else None
        self.hits += 1
        telemetry.counter("cache.hits")
        return result

    def put(self, key: str, result: SimulationResult, figure: Optional[str] = None) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins).

        ``figure`` is a purely informational label recorded *inside* the
        entry payload — it attributes the entry to the experiment that
        first produced it for ``repro cache`` breakdowns, without ever
        entering the content key (cross-figure dedup and key stability
        are preserved; an entry shared by several figures keeps its first
        writer's label).
        """
        self._memo[key] = result
        self.runs[key] = self.run_context
        payload = {"schema": SCHEMA_VERSION, "key": key, "result": result_to_dict(result)}
        if figure is not None:
            payload["figure"] = figure
        if self.run_context is not None:
            payload["run"] = self.run_context
        written = _atomic_write_json(self._path(key), payload)
        telemetry.counter("cache.puts")
        telemetry.counter("cache.put_bytes", written)

    def __len__(self) -> int:
        return len(self._entry_snapshot())

    def clear(self) -> None:
        """Remove every cached entry (leaves the directory in place).

        Run manifests under ``runs/`` are pruned too: a manifest
        describes a run whose entries this clear just deleted, so
        leaving them would have ``repro runs`` list runs that can no
        longer be replayed from this cache.
        """
        self._memo.clear()
        self.runs.clear()
        self.hits = 0
        self.misses = 0
        if self.cache_dir.is_dir():
            for entry in self._entry_snapshot():
                try:
                    entry.unlink()
                except OSError:
                    pass
            manifest_dir = self.cache_dir / MANIFEST_DIR
            if manifest_dir.is_dir():
                for manifest in sorted(manifest_dir.glob("*.json*")):
                    try:
                        manifest.unlink()
                    except OSError:
                        pass

    # ------------------------------------------------------------- statistics

    def stats(self) -> Dict:
        """Store-wide statistics plus this process's hit/miss counters.

        Counts are taken from one snapshot of the entry listing at read
        time (see :meth:`_entry_snapshot`), so entries written during the
        run being reported on are counted at most once.
        """
        entries = 0
        total_bytes = 0
        for entry in self._entry_snapshot():
            try:
                total_bytes += entry.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "entries": entries,
            "total_bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    #: Label under which entries with no recorded figure are reported.
    UNATTRIBUTED = "(unattributed)"

    def stats_by_figure(self) -> Dict[str, Dict]:
        """Entry counts/bytes broken down by the figure label each entry
        recorded at write time (see :meth:`put`).

        Entries written before figure attribution existed — or shared
        alone-run entries written outside any figure — fall under
        :data:`UNATTRIBUTED`.  Unreadable entries are skipped: this is a
        reporting surface, not a validity check.
        """
        breakdown: Dict[str, Dict] = {}
        for entry in self._entry_snapshot():
            try:
                size = entry.stat().st_size
                with entry.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            figure = payload.get("figure") if isinstance(payload, dict) else None
            label = figure if isinstance(figure, str) and figure else self.UNATTRIBUTED
            bucket = breakdown.setdefault(label, {"entries": 0, "total_bytes": 0})
            bucket["entries"] += 1
            bucket["total_bytes"] += size
        return breakdown


# ----------------------------------------------------------------- checkpoints

#: Subdirectory of a result-cache directory holding warmup checkpoints.
CHECKPOINT_DIR = "checkpoints"


class CheckpointStore:
    """Content-addressed store of warmup-prefix checkpoints.

    Layout mirrors :class:`ResultCache`'s fan-out, one directory per
    prefix: ``<dir>/<key[:2]>/<key>/<cycle>.ckpt`` where the key is
    :func:`repro.sim.checkpoint.prefix_key` — the configuration minus
    ``engine``/``max_cycles`` plus the trace fingerprints — so sweep
    points sharing a warmup resume from the same snapshots.  Each
    ``put`` keeps only the latest cycle per prefix (a resumed run never
    wants an older one, and pruning bounds disk growth).

    Load failures follow :meth:`ResultCache.get`: corrupt files are
    deleted by the format layer and the caller resimulates; version or
    fingerprint mismatches miss non-destructively.
    """

    SUFFIX = ".ckpt"

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _prefix_dir(self, key: str) -> Path:
        return self.directory / key[:2] / key

    def put(self, traces, config, system) -> Path:
        """Snapshot ``system`` under its warmup prefix; prune older cycles."""
        key = checkpoint_format.prefix_key(traces, config)
        prefix_dir = self._prefix_dir(key)
        path = prefix_dir / f"{system.cycle:016d}{self.SUFFIX}"
        checkpoint_format.save(path, system)
        telemetry.counter("checkpoint_store.puts")
        for sibling in prefix_dir.glob(f"*{self.SUFFIX}"):
            if sibling.name < path.name:
                try:
                    sibling.unlink()
                except OSError:
                    pass
        return path

    def resume(self, traces, config):
        """The restored :class:`~repro.sim.system.System` closest to the
        end of the run for this (traces, config-prefix), or ``None``.

        Only checkpoints at a cycle ``<= config.max_cycles`` are eligible
        (state at cycle ``C`` matches a straight run under any limit
        ``>= C``; past the limit it describes a run this config would
        never reach)."""
        key = checkpoint_format.prefix_key(traces, config)
        prefix_dir = self._prefix_dir(key)
        if not prefix_dir.is_dir():
            self.misses += 1
            telemetry.counter("checkpoint_store.misses")
            return None
        for path in sorted(prefix_dir.glob(f"*{self.SUFFIX}"), reverse=True):
            try:
                cycle = int(path.stem)
            except ValueError:
                continue
            if cycle > config.max_cycles:
                continue
            system = checkpoint_format.load(path, traces=traces, config=config)
            if system is not None:
                self.hits += 1
                telemetry.counter("checkpoint_store.hits")
                return system
        self.misses += 1
        telemetry.counter("checkpoint_store.misses")
        return None

    def entries(self) -> list[Dict]:
        """One record per stored checkpoint (for ``repro checkpoint list``)."""
        records: list[Dict] = []
        if not self.directory.is_dir():
            return records
        for path in sorted(self.directory.glob(f"??/*/*{self.SUFFIX}")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            try:
                cycle = int(path.stem)
            except ValueError:
                cycle = -1
            records.append(
                {"key": path.parent.name, "cycle": cycle, "bytes": size, "path": str(path)}
            )
        return records

    def clear(self) -> None:
        """Remove every stored checkpoint (leaves the directory in place)."""
        self.hits = 0
        self.misses = 0
        for record in self.entries():
            try:
                os.unlink(record["path"])
            except OSError:
                pass

    def stats(self) -> Dict:
        entries = self.entries()
        return {
            "entries": len(entries),
            "total_bytes": sum(record["bytes"] for record in entries),
            "hits": self.hits,
            "misses": self.misses,
        }


# ----------------------------------------------------------------- alone runs


class PersistentAloneRunCache(AloneRunCache):
    """An alone-run cache backed by a persistent :class:`ResultCache`.

    Alone runs are design-independent (always the RNG-oblivious
    single-core baseline), so they are the highest-value entries to keep
    across processes: every figure, benchmark session and CLI invocation
    re-uses them.
    """

    def __init__(self, store: ResultCache) -> None:
        super().__init__()
        self.store = store

    def _load(self, trace: Trace, alone_config: SimulationConfig) -> Optional[Tuple[CoreResult, SimulationResult]]:
        result = self.store.get(point_key([trace], alone_config))
        if result is None:
            return None
        return result.cores[0], result

    def _persist(self, trace: Trace, alone_config: SimulationConfig, result: SimulationResult) -> None:
        self.store.put(point_key([trace], alone_config), result)
