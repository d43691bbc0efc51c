"""Stable content-addressed keys for simulation points.

A *simulation point* is fully determined by the traces it executes and
the :class:`~repro.sim.config.SimulationConfig` it executes them under;
everything else (metrics, tables, figures) is derived arithmetic.  The
key of a point is the SHA-256 digest of a canonical JSON encoding of

* a schema version (bumped whenever the meaning of cached results
  changes, which invalidates every old cache entry at once),
* every field of the simulation configuration (including the nested
  controller/core/DRAM/DR-STRaNGe dataclasses), and
* the full content of every trace (name, metadata and the complete
  entry list — not just the generator parameters), so a change anywhere
  in trace generation changes the key.

Python's built-in ``hash`` is unsuitable because it is salted per
process; these keys must be stable across processes, CLI invocations
and machines.

A trace's entry digest is cached on the trace, and inside a sweep pass
(:mod:`repro.workloads.memo`) the canonical JSON of a config and of a
trace is computed once per object (a pass's traces are read-only);
:func:`point_key` joins those canonical fragments into exactly the
bytes ``canonical_json`` gives for the whole payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Sequence

from ..cpu.trace import Trace
from ..sim.config import SimulationConfig
from ..workloads.memo import per_object

#: Bump to invalidate all previously cached results (e.g. after a change
#: to the simulator that alters results without changing configs/traces).
SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: SimulationConfig) -> Dict:
    """Every *result-affecting* configuration field as a plain JSON dict.

    The simulation engine (``"event"`` vs ``"tick"``) is excluded: both
    engines produce bit-identical results (enforced by the equivalence
    test suite), so results cached under one engine stay valid — and are
    shared — under the other.
    """
    fields = _plain(config)
    fields.pop("engine", None)
    return fields


def _plain(value):
    """``dataclasses.asdict(value)`` for a config, without its deep copy.

    Nested dataclasses become dicts, as in ``asdict``; every other value
    is returned as is.  Config fields hold only immutable scalars and
    nested config dataclasses, which ``asdict``'s ``copy.deepcopy``
    returns unchanged anyway.
    """
    if hasattr(type(value), "__dataclass_fields__"):
        return {
            field.name: _plain(getattr(value, field.name)) for field in dataclasses.fields(value)
        }
    return value


def _config_json(config: SimulationConfig) -> str:
    return canonical_json(config_fingerprint(config))


def trace_fingerprint(trace: Trace) -> Dict:
    """Content digest of one trace (name, metadata, full entry list)."""
    return {
        "name": trace.name,
        "metadata": {str(k): trace.metadata[k] for k in sorted(trace.metadata, key=str)},
        "entries": trace.entries_digest(),
        "num_entries": len(trace.entries),
    }


def _trace_json(trace: Trace) -> str:
    return canonical_json(trace_fingerprint(trace))


def point_key(traces: Sequence[Trace], config: SimulationConfig) -> str:
    """Content-addressed key of one simulation point: the SHA-256 of
    ``canonical_json({"schema": ..., "config": ..., "traces": [...]})``."""
    text = '{"config":%s,"schema":%d,"traces":[%s]}' % (
        per_object(config, _config_json),
        SCHEMA_VERSION,
        ",".join([per_object(trace, _trace_json) for trace in traces]),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
