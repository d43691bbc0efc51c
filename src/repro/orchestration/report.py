"""Rendering and export of orchestrated experiment results.

The per-figure modules already know how to render their own tables
(``format_table``); this module stitches those tables into a sweep
report, adds orchestration bookkeeping (points simulated vs. reused
from cache), and exports the raw data dicts as JSON for downstream
tooling (plotting, regression tracking, dashboards).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

from .sweep import SweepStats, resolve_experiment


def format_experiment(label: str, data: Dict) -> str:
    """Render one experiment's table using its own formatter."""
    module = resolve_experiment(label)
    return module.format_table(data)


def format_sweep(results: Dict[str, Dict], stats: Optional[SweepStats] = None) -> str:
    """Render a multi-experiment sweep as one report."""
    sections = []
    for label, data in results.items():
        sections.append(f"=== {label} ===")
        sections.append(format_experiment(label, data))
        sections.append("")
    if stats is not None:
        sections.append(format_stats(stats))
    return "\n".join(sections).rstrip("\n")


def format_stats(stats: SweepStats) -> str:
    """One-line orchestration summary."""
    line = (
        f"[orchestration] simulation points: {stats.planned} "
        f"(executed {stats.executed}, cache-reused {stats.reused})"
    )
    elapsed = getattr(stats, "elapsed", 0.0)
    if elapsed > 0:
        line += f" in {elapsed:.1f}s"
        if stats.executed:
            line += f" ({stats.executed / elapsed:.2f} points/s)"
    return line


def _json_default(value):
    """Fallback encoder for the rare non-JSON value inside a data dict."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return str(value)


def canonical_data(results):
    """Round-trip ``results`` through JSON encoding, as the wire would.

    Byte-identity between local runs and service-fetched results hinges
    on this: ``sort_keys`` orders *int* dict keys numerically but their
    post-wire *string* forms lexicographically, so both paths must
    stringify keys the same way before the sorted dump.  A local export
    and one decoded from the daemon then serialise identically.
    """
    return json.loads(json.dumps(results, default=_json_default))


def dump_json(results, destination: str | Path) -> None:
    """Write the raw experiment data dicts as JSON (``-`` for stdout).

    Accepts any mapping of figure label → data dict (a plain dict, or a
    :class:`~repro.orchestration.request.SweepResult`); the payload is
    canonicalised (see :func:`canonical_data`) so exports are
    byte-identical whether results were computed locally or fetched
    from a sweep service.
    """
    results = canonical_data(dict(results))
    text = json.dumps(results, indent=2, sort_keys=True)
    if str(destination) == "-":
        sys.stdout.write(text + "\n")
        return
    path = Path(destination)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
