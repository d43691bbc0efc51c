"""Run manifests: one persisted summary per orchestrated sweep.

Every sweep that uses a persistent result cache writes a *run manifest*
— a small JSON document recording what ran (experiments, executor,
engine, argv), where (git revision, hostname), how long it took, the
orchestration stats (planned/executed/reused), cache accounting and the
merged telemetry snapshot — into ``<cache_dir>/runs/<run_id>.json``,
next to the content-addressed entries the run produced.

Manifests accumulate: rerunning the nightly sweep, a benchmark session
or a hand-driven figure leaves one file each, so BENCH-style performance
trajectories (points/sec, cache hit rate, per-figure wall time across
commits) fall out of ``repro runs`` without any extra infrastructure.

Like the result cache, writes are atomic and the format is plain JSON,
so manifests survive concurrent runs sharing one cache directory and
stay greppable/jq-able forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import snapshot as process_snapshot

#: Subdirectory of the cache holding manifests.  Lives outside the
#: ``??/`` entry fan-out, so the store's entry globs never see it.
MANIFEST_DIR = "runs"

#: Bumped on incompatible manifest layout changes.
MANIFEST_SCHEMA = 1


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def config_digest(experiments, kwargs: Optional[Dict] = None) -> str:
    """Stable digest of what the run was asked to do (not of the results)."""
    payload = json.dumps(
        {"experiments": list(experiments), "kwargs": kwargs or {}},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _runs_dir(cache_dir) -> Path:
    return Path(cache_dir) / MANIFEST_DIR


def new_run_id(experiments, kwargs: Optional[Dict] = None, started_at: Optional[float] = None) -> str:
    """A fresh run id: UTC stamp + config digest prefix + pid.

    Generated *before* the sweep starts (not at manifest-write time) so
    the same id threads through the event journal, cache entry
    provenance and the manifest — the causal key ``repro trace export``
    joins on.
    """
    started_at = time.time() if started_at is None else started_at
    digest = config_digest(list(experiments), kwargs)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started_at))
    # Microseconds keep back-to-back identical runs in one process (a
    # cold run and its warm replay in the same second) distinct.
    micros = int(round((started_at % 1.0) * 1e6)) % 1_000_000
    return f"{stamp}.{micros:06d}-{digest[:6]}-{os.getpid()}"


def write_manifest(
    cache_dir,
    *,
    experiments,
    started_at: float,
    finished_at: Optional[float] = None,
    argv: Optional[List[str]] = None,
    kwargs: Optional[Dict] = None,
    executor: Optional[str] = None,
    jobs: Optional[int] = None,
    engine: Optional[str] = None,
    stats: Optional[Dict] = None,
    cache: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
    workers: Optional[Dict[str, Dict]] = None,
    run_id: Optional[str] = None,
    points: Optional[Dict[str, Dict]] = None,
) -> Path:
    """Persist one run's summary; returns the manifest path.

    ``started_at``/``finished_at`` are wall-clock epoch seconds;
    ``metrics`` defaults to the process registry's current snapshot;
    ``run_id`` defaults to a fresh :func:`new_run_id` (pass the id the
    sweep already stamped into its journal/cache entries so they join);
    ``points`` is the per-point provenance map (``key -> {"state":
    "simulated"|"replayed", "run": origin-run-id, "figure": ...}``).
    """
    finished_at = time.time() if finished_at is None else finished_at
    experiments = list(experiments)
    digest = config_digest(experiments, kwargs)
    if run_id is None:
        run_id = new_run_id(experiments, kwargs, started_at)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "started_at": started_at,
        "finished_at": finished_at,
        "duration_seconds": max(0.0, finished_at - started_at),
        "hostname": socket.gethostname(),
        "git_rev": git_revision(),
        "config_digest": digest,
        "experiments": experiments,
        "kwargs": {str(key): value for key, value in (kwargs or {}).items()},
        "argv": list(argv) if argv is not None else None,
        "executor": executor,
        "jobs": jobs,
        "engine": engine,
        "stats": dict(stats) if stats else {},
        "cache": dict(cache) if cache else {},
        "metrics": metrics if metrics is not None else process_snapshot(),
        "workers": {name: snap for name, snap in (workers or {}).items()},
        "points": {str(key): dict(value) for key, value in (points or {}).items()},
    }
    runs = _runs_dir(cache_dir)
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{run_id}.json"
    # Atomic like the result store: temp file + replace, so a concurrent
    # `repro runs` can never read a torn manifest.
    tmp = path.with_suffix(".json.tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=str)
    os.replace(tmp, path)
    return path


def load_manifest(cache_dir, run_id: str) -> Optional[Dict]:
    """One manifest by id (or id prefix, if unambiguous); ``None`` if absent."""
    runs = _runs_dir(cache_dir)
    candidates = sorted(runs.glob(f"{run_id}*.json")) if runs.is_dir() else []
    exact = runs / f"{run_id}.json"
    if exact.is_file():
        candidates = [exact]
    if len(candidates) != 1:
        return None
    try:
        with candidates[0].open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def list_manifests(cache_dir) -> List[Dict]:
    """Every readable manifest under ``cache_dir``, oldest first.

    Unreadable/torn files are skipped (never raised): inspection of a
    shared cache directory must not fail because one old run was killed
    mid-write on a non-atomic filesystem.
    """
    runs = _runs_dir(cache_dir)
    if not runs.is_dir():
        return []
    manifests = []
    for path in sorted(runs.glob("*.json")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(payload, dict) and payload.get("run_id"):
            manifests.append(payload)
    manifests.sort(key=lambda manifest: (manifest.get("started_at") or 0, manifest["run_id"]))
    return manifests


def summarize_manifest(manifest: Dict) -> str:
    """One human line per run, for ``repro runs`` listings."""
    stats = manifest.get("stats") or {}
    duration = manifest.get("duration_seconds")
    executed = stats.get("executed", 0)
    rate = ""
    if duration and executed:
        rate = f", {executed / duration:.2f} points/s"
    experiments = ",".join(manifest.get("experiments") or []) or "?"
    return (
        f"{manifest.get('run_id', '?'):<32} "
        f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(manifest.get('started_at') or 0))}  "
        f"{duration if duration is None else format(duration, '7.1f')}s  "
        f"planned {stats.get('planned', 0)}, executed {executed}, "
        f"reused {stats.get('reused', 0)}{rate}  [{experiments}]"
    )
