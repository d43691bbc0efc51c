"""Deterministic checkpoint/restore of a mid-run :class:`~repro.sim.system.System`.

Both simulation engines can pause at an exact cycle
(:meth:`System.advance(stop_at=...) <repro.sim.system.System.advance>`);
at a pause every deferred quiet segment is materialised, so the paused
kernel state — trace-replay counters, outstanding-slot FIFOs, request
arenas, queue slots, open-row mirrors, bank/channel timing state, TRNG
buffers, predictor/scheduler/BLISS state, deferred-skip bookkeeping — is
bit-identical to an uninterrupted run's state at that cycle.  This
module serialises that state so ``restore(snapshot(sys))`` resumes and
finishes bit-identical to never having stopped, on either engine.

Format (all stdlib):

* an outer container — magic, a format version byte, a SHA-256 integrity
  hash, then a zlib-compressed pickle of the container dict;
* the container holds metadata (cycle, engine, config as a plain dict,
  trace fingerprints, the warmup *prefix key*), the traces in their text
  wire form, and the **kernel**: a pickle of the whole ``System`` object
  graph in which every :class:`~repro.cpu.trace.Trace`, its compiled
  :class:`~repro.cpu.trace.TraceColumns` and the four column arrays are
  externalised by reference (``persistent_id``), so trace content is
  stored once and restored cores share the restored traces' arrays
  exactly as freshly built ones do;
* the **content digest** is the SHA-256 of the kernel bytes.  Pickling
  is structure-driven, so ``snapshot(restore(snapshot(sys)))`` carries
  the same digest — the round-trip property the checkpoint tests pin.
  The kernel records no host wall time (``System._elapsed_seconds`` is
  written as ``0.0``), so the same paused state gives the same digest in
  every process, and a restored run times only its own process.  The
  kernel holds no process-global state either: request ids and heap
  tie-breaks are plain ints of the system and its components, so the
  same point paused twice in one process snapshots to the same bytes.

File-level loading mirrors :meth:`ResultCache.get
<repro.orchestration.cache.ResultCache.get>` semantics: corrupt or
truncated files are deleted and the caller resimulates; a version/schema
mismatch or an unreadable file is a non-destructive miss.

The warmup *prefix key* content-addresses checkpoints by
(config-prefix, traces, –): the configuration fingerprint minus
``engine`` (the engines are bit-identical) and minus ``max_cycles`` (the
limit only matters once reached — state at cycle ``C`` is the same under
any limit ``>= C``), so sweep points sharing a warmup share checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..cpu.trace import Trace
from .config import SimulationConfig
from .system import System

#: Bump whenever the kernel's pickled shape changes incompatibly; stale
#: snapshots are rejected (and silently missed by :func:`load`).
CHECKPOINT_VERSION = 3

_MAGIC = b"REPRO-CKPT"
_HEADER = struct.Struct(">B")
_HASH_BYTES = 32
_PICKLE_PROTOCOL = 4  # fixed, so digests don't depend on interpreter defaults


class CheckpointError(Exception):
    """Base class for checkpoint failures."""


class CheckpointCorruptError(CheckpointError):
    """The data is damaged (bad magic, truncation, integrity-hash mismatch)."""


class CheckpointVersionError(CheckpointError):
    """The snapshot was written by an incompatible format version."""


class CheckpointMismatchError(CheckpointError):
    """The snapshot does not belong to the given traces/configuration."""


# ------------------------------------------------------------------ keys


def prefix_key(traces: Sequence[Trace], config: SimulationConfig) -> str:
    """Content-addressed key of a warmup prefix (config-prefix + traces).

    Excludes ``engine`` and ``max_cycles`` from the configuration (see
    module docstring), so configurations differing only in those share
    warmup checkpoints.
    """
    # Imported lazily: orchestration packages import the runner at
    # module scope, which would cycle back into this module.
    from ..orchestration.keys import (
        SCHEMA_VERSION,
        canonical_json,
        config_fingerprint,
        trace_fingerprint,
    )

    fields = config_fingerprint(config)
    fields.pop("max_cycles", None)
    payload = {
        "checkpoint": CHECKPOINT_VERSION,
        "schema": SCHEMA_VERSION,
        "config": fields,
        "traces": [trace_fingerprint(trace) for trace in traces],
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _trace_fingerprints(traces: Sequence[Trace]) -> List[Dict]:
    from ..orchestration.keys import trace_fingerprint

    return [trace_fingerprint(trace) for trace in traces]


# ------------------------------------------------------------------ kernel pickling


class _KernelPickler(pickle._Pickler):
    """Pickles the ``System`` graph with traces externalised by reference.

    Built on the pure-Python pickler for its ``memoize`` hook: strings
    are deliberately *not* memoised.  Whether two equal strings in the
    graph are one object or two depends on interpreter interning (e.g. a
    config value equal to a method name), and reduce-reconstructed
    objects synthesise fresh interned strings on restore — so memo
    references to strings would make the bytes depend on object identity
    history, breaking the snapshot→restore→snapshot digest equality this
    module guarantees.  Writing every string inline keeps the bytes a
    pure function of structure.  (Mutable objects keep full memo
    sharing; their identity graph is recorded in the stream and restored
    exactly, so they re-pickle deterministically.)
    """

    def __init__(self, file, external: Dict[int, Tuple]) -> None:
        super().__init__(file, protocol=_PICKLE_PROTOCOL)
        self._external = external

    def persistent_id(self, obj):  # noqa: D102 - pickle hook
        return self._external.get(id(obj))

    def memoize(self, obj):  # noqa: D102 - pickle hook
        if type(obj) is str:
            return
        super().memoize(obj)


class _KernelUnpickler(pickle.Unpickler):
    """Resolves externalised trace references against fresh traces."""

    def __init__(self, file, traces: Sequence[Trace]) -> None:
        super().__init__(file)
        self._traces = list(traces)
        self._columns = [trace.columns() for trace in self._traces]

    def persistent_load(self, pid):  # noqa: D102 - pickle hook
        kind = pid[0]
        if kind == "trace":
            return self._traces[pid[1]]
        if kind == "cols":
            return self._columns[pid[1]]
        if kind == "col":
            cols = self._columns[pid[1]]
            return (
                cols.bubbles,
                cols.read_addresses,
                cols.write_addresses,
                cols.rng_bits,
            )[pid[2]]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _external_index(traces: Sequence[Trace]) -> Dict[int, Tuple]:
    external: Dict[int, Tuple] = {}
    for index, trace in enumerate(traces):
        cols = trace.columns()
        external[id(trace)] = ("trace", index)
        external[id(cols)] = ("cols", index)
        external[id(cols.bubbles)] = ("col", index, 0)
        external[id(cols.read_addresses)] = ("col", index, 1)
        external[id(cols.write_addresses)] = ("col", index, 2)
        external[id(cols.rng_bits)] = ("col", index, 3)
    return external


def _dump_kernel(system: System) -> bytes:
    buffer = io.BytesIO()
    elapsed, system._elapsed_seconds = system._elapsed_seconds, 0.0
    try:
        _KernelPickler(buffer, _external_index(system.traces)).dump(system)
    finally:
        system._elapsed_seconds = elapsed
    return buffer.getvalue()


def _load_kernel(data: bytes, traces: Sequence[Trace]) -> System:
    return _KernelUnpickler(io.BytesIO(data), traces).load()


# ------------------------------------------------------------------ snapshot / restore


def snapshot(system: System) -> bytes:
    """Serialise ``system`` (paused or fresh) into checkpoint bytes."""
    kernel = _dump_kernel(system)
    container = {
        "format": CHECKPOINT_VERSION,
        "cycle": system.cycle,
        "engine": system.config.engine,
        "design": system.config.design,
        "digest": hashlib.sha256(kernel).hexdigest(),
        "prefix": prefix_key(system.traces, system.config),
        "config": dataclasses.asdict(system.config),
        "trace_fingerprints": _trace_fingerprints(system.traces),
        "traces": [
            {"name": trace.name, "metadata": dict(trace.metadata), "text": trace.format()}
            for trace in system.traces
        ],
        "kernel": kernel,
    }
    payload = zlib.compress(pickle.dumps(container, protocol=_PICKLE_PROTOCOL), 6)
    return (
        _MAGIC
        + _HEADER.pack(CHECKPOINT_VERSION)
        + hashlib.sha256(payload).digest()
        + payload
    )


def _read_container(data: bytes) -> Dict:
    head = len(_MAGIC) + _HEADER.size
    if len(data) < head + _HASH_BYTES:
        raise CheckpointCorruptError("checkpoint truncated")
    if data[: len(_MAGIC)] != _MAGIC:
        raise CheckpointCorruptError("not a checkpoint (bad magic)")
    (version,) = _HEADER.unpack_from(data, len(_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format v{version} != supported v{CHECKPOINT_VERSION}"
        )
    expected = data[head : head + _HASH_BYTES]
    payload = data[head + _HASH_BYTES :]
    if hashlib.sha256(payload).digest() != expected:
        raise CheckpointCorruptError("checkpoint integrity hash mismatch")
    try:
        container = pickle.loads(zlib.decompress(payload))
    except (pickle.UnpicklingError, zlib.error, EOFError, ValueError, TypeError) as exc:
        raise CheckpointCorruptError(f"checkpoint payload undecodable: {exc}") from exc
    if not isinstance(container, dict):
        raise CheckpointCorruptError("checkpoint payload is not a container")
    if container.get("format") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint schema {container.get('format')!r} != v{CHECKPOINT_VERSION}"
        )
    return container


def describe(data: bytes) -> Dict:
    """The container's metadata (everything except the kernel bytes)."""
    container = _read_container(data)
    meta = {key: value for key, value in container.items() if key not in ("kernel", "traces")}
    meta["traces"] = [trace["name"] for trace in container.get("traces", [])]
    meta["kernel_bytes"] = len(container.get("kernel", b""))
    return meta


def content_digest(data: bytes) -> str:
    """The snapshot's content digest (SHA-256 of the kernel bytes)."""
    return _read_container(data)["digest"]


def restore(
    data: bytes,
    traces: Optional[Sequence[Trace]] = None,
    config: Optional[SimulationConfig] = None,
) -> System:
    """Rebuild the paused :class:`System` from checkpoint bytes.

    ``traces`` reuses the caller's trace objects (validated against the
    snapshot's fingerprints) instead of re-parsing the stored wire form.
    ``config`` swaps in the caller's configuration — it must match the
    snapshot's warmup prefix, i.e. differ at most in ``engine`` and
    ``max_cycles`` — so a warmup checkpoint written under one sweep
    point resumes under another.
    """
    container = _read_container(data)
    if traces is None:
        restored = [
            Trace.parse(spec["text"], name=spec["name"], metadata=spec["metadata"])
            for spec in container["traces"]
        ]
    else:
        restored = list(traces)
        if _trace_fingerprints(restored) != container["trace_fingerprints"]:
            raise CheckpointMismatchError("supplied traces do not match the snapshot")
    try:
        system = _load_kernel(container["kernel"], restored)
    except (pickle.UnpicklingError, EOFError, IndexError, AttributeError) as exc:
        raise CheckpointCorruptError(f"checkpoint kernel undecodable: {exc}") from exc
    if not isinstance(system, System):
        raise CheckpointCorruptError("checkpoint kernel is not a System")
    if config is not None:
        if prefix_key(restored, config) != container["prefix"]:
            raise CheckpointMismatchError(
                "configuration does not share the snapshot's warmup prefix"
            )
        if system.cycle > config.max_cycles:
            raise CheckpointMismatchError(
                f"snapshot cycle {system.cycle} exceeds max_cycles {config.max_cycles}"
            )
        system.config = config
    telemetry.counter("checkpoint.restores")
    telemetry.emit(
        "checkpoint.restored",
        cycle=system.cycle,
        digest=container["digest"],
        engine=system.config.engine,
    )
    return system


# ------------------------------------------------------------------ files


def save(path, system: System, data: Optional[bytes] = None) -> bytes:
    """Atomically write a checkpoint of ``system`` to ``path``.

    Returns the written bytes (``data`` may pass in a snapshot already
    taken, avoiding a second serialisation).
    """
    if data is None:
        data = snapshot(system)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    telemetry.counter("checkpoint.saves")
    telemetry.emit(
        "checkpoint.saved", path=str(path), cycle=system.cycle, bytes=len(data)
    )
    return data


def load(
    path,
    traces: Optional[Sequence[Trace]] = None,
    config: Optional[SimulationConfig] = None,
) -> Optional[System]:
    """Load a checkpoint file; ``None`` means resimulate.

    Mirrors :meth:`ResultCache.get <repro.orchestration.cache.ResultCache.get>`:
    a corrupt or truncated file is deleted so the slot resimulates
    cleanly; version/schema mismatches and unreadable files miss without
    deleting (they may belong to another build of the code).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return restore(data, traces=traces, config=config)
    except CheckpointCorruptError:
        try:
            path.unlink()
        except OSError:
            pass
        telemetry.counter("checkpoint.corrupt")
        return None
    except CheckpointError:
        return None
