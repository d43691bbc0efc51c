"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    python -m repro --list
    python -m repro fig6
    python -m repro fig10 --instructions 40000 --full
    python -m repro sweep fig6 fig11               # several figures, one batch
    python -m repro fig8 --json fig8.json          # export raw data
    python -m repro fig7 --target process:4        # a local pool of 4 workers
    python -m repro fig7 --target HOST:PORT        # submit to a sweep service
    python -m repro serve --bind 0.0.0.0:7777 --workers 4   # run the service
    python -m repro submit fig5 fig6 --target HOST:PORT     # submit + wait
    python -m repro jobs --target HOST:PORT        # list the service's jobs
    python -m repro worker --target HOST:PORT      # join a fleet
    python -m repro fig6 --checkpoint-interval 20000   # resumable simulation
    python -m repro checkpoint list                # stored snapshots
    python -m repro cache                          # result-store statistics
    python -m repro status --target HOST:PORT      # live service view
    python -m repro watch --target HOST:PORT       # stream structured events
    python -m repro runs                           # list persisted run manifests
    python -m repro trace export --run ID          # Perfetto-loadable trace JSON

Every invocation routes through :mod:`repro.orchestration`: simulation
points are cached on disk (``--cache-dir``, default ``.repro-cache`` or
``$REPRO_CACHE_DIR``), so re-running a figure — or any figure sharing
simulations with it — is served from the cache.  Execution is selected
with one spec, ``--target {local,process[:N],HOST:PORT}`` (the only
routing option): serial in this process, a local process pool, or
submission to a running ``repro serve`` daemon; the printed tables are
bit-identical to a serial run in every case.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from . import telemetry
from .experiments import EXPERIMENTS
from .telemetry import logs as telemetry_logs
from .orchestration import (
    ProcessPoolExecutor,
    ResultCache,
    SweepRequest,
    SweepStats,
    dump_json,
    format_experiment,
    format_stats,
    format_sweep,
    open_store,
    parse_target,
    sweep_experiments,
)
from .orchestration.executors import usable_cpus
from .sim.config import ENGINES, engine_help

DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate DR-STRaNGe paper experiments (figures or sections).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=(
            "experiment id, e.g. fig6, fig10, sec8.9 (see --list); "
            "or 'sweep' followed by several ids to regenerate them as one batch"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--instructions", type=int, default=None, help="per-core instruction count override"
    )
    parser.add_argument(
        "--full", action="store_true", help="use the full 43-application roster (slow)"
    )
    parser.add_argument(
        "--target",
        default=None,
        metavar="SPEC",
        help=(
            "where uncached points execute: 'local' (serial, in-process), "
            "'process[:N]' (local pool of N workers) or 'HOST:PORT' (submit "
            "the run to a `repro serve` daemon); default: local"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"persistent result cache directory (default: {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not persist simulation results to disk for this run",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also dump the raw experiment data as JSON to OUT ('-' for stdout)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        # Derived from the engine registry so the help text can never
        # drift from the engines `make_engine` actually accepts.
        help=engine_help(),
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "disable metrics collection and manifest writing for this run "
            "(results are bit-identical either way; telemetry is observe-only)"
        ),
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help=(
            "do not emit structured trace events or write the run's event "
            "journal (results are byte-identical either way)"
        ),
    )
    parser.add_argument(
        "--profile-engine",
        action="store_true",
        help=(
            "record engine phase histograms (serve-window lengths, skip "
            "lengths, dispatch counts) into the run manifest; view with "
            "`repro trace profile`; observe-only, results are identical"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "snapshot in-process simulations every CYCLES simulated cycles "
            "into <cache-dir>/checkpoints, resuming interrupted or "
            "warmup-sharing runs from the latest snapshot (results are "
            "bit-identical either way)"
        ),
    )
    _add_verbosity_flags(parser)
    return parser


def _add_verbosity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="more diagnostics (repeat for debug-level)",
    )
    parser.add_argument(
        "--quiet",
        "-q",
        action="count",
        default=0,
        help="fewer diagnostics (repeat to silence warnings too)",
    )


def _add_service_target(parser: argparse.ArgumentParser) -> None:
    """The ``--target HOST:PORT`` every verb that talks to a running
    daemon requires."""
    parser.add_argument(
        "--target",
        required=True,
        metavar="HOST:PORT",
        help="address of the daemon (printed by `repro serve`)",
    )


def _print_experiment_list() -> None:
    print("Available experiments:")
    for key, module in sorted(EXPERIMENTS.items()):
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {key:<8} {summary}")


# ----------------------------------------------------------------- worker


def _worker_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description=(
            "Join a fleet: lease simulation points from a sweep service, "
            "simulate them locally, and stream the results back."
        ),
    )
    _add_service_target(parser)
    parser.add_argument(
        "--id", default=None, metavar="NAME", help="worker name (default: hostname-pid)"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="override the simulation engine for this worker (results are identical)",
    )
    parser.add_argument(
        "--profile-engine",
        action="store_true",
        help=(
            "record engine phase histograms for every point this worker "
            "simulates (folded into the server's metrics; observe-only)"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "stream a snapshot of the running point to the service "
            "every CYCLES simulated cycles, so if this worker is killed "
            "its replacement resumes from the last snapshot instead of "
            "restarting (results are bit-identical either way)"
        ),
    )
    _add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)
    target = args.target
    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        print("--checkpoint-interval must be at least 1 cycle", file=sys.stderr)
        return 2

    from .distributed import parse_address, run_worker
    from .sim.runner import engine_override

    try:
        parse_address(target)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        with contextlib.ExitStack() as stack:
            if args.engine is not None:
                stack.enter_context(engine_override(args.engine))
            if args.profile_engine:
                stack.enter_context(telemetry.profiled())
            run_worker(target, worker_id=args.id, checkpoint_interval=args.checkpoint_interval)
    except (OSError, ConnectionError) as exc:
        print(f"worker could not serve {target}: {exc}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------- cache


def _cache_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect (or clear) the persistent content-addressed result store.",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached entry (and the run manifests they produced) and exit",
    )
    args = parser.parse_args(argv)

    store = ResultCache(args.cache_dir)
    if args.clear:
        removed = len(store)
        store.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from {store.cache_dir}")
        return 0

    stats = store.stats()
    print(f"result cache at {store.cache_dir}")
    print(f"  entries:     {stats['entries']}")
    print(f"  total bytes: {stats['total_bytes']}")
    breakdown = store.stats_by_figure()
    for figure in sorted(breakdown):
        bucket = breakdown[figure]
        print(f"    {figure:<16} {bucket['entries']:>6} entries, {bucket['total_bytes']} bytes")
    last = store.last_run()
    if last is None:
        print("  last run:    (none recorded)")
    else:
        hits, misses = last.get("hits", 0), last.get("misses", 0)
        line = f"  last run:    {hits} hits, {misses} misses"
        if "executed" in last:
            line += f"; {last.get('planned', 0)} points planned, {last['executed']} executed"
        print(line)
    return 0


# ----------------------------------------------------------------- checkpoints


def _checkpoint_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro checkpoint",
        description=(
            "Inspect the warmup/resume checkpoints under "
            "<cache-dir>/checkpoints (written by --checkpoint-interval)."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def _add_cache_dir(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            metavar="DIR",
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR!r})",
        )

    list_parser = sub.add_parser("list", help="list every stored checkpoint")
    _add_cache_dir(list_parser)

    inspect_parser = sub.add_parser(
        "inspect", help="print one checkpoint's metadata (no kernel load)"
    )
    inspect_parser.add_argument(
        "checkpoint",
        metavar="PATH|KEY",
        help="a .ckpt file path, or a prefix-key prefix from `repro checkpoint list`",
    )
    _add_cache_dir(inspect_parser)

    clear_parser = sub.add_parser("clear", help="delete every stored checkpoint")
    _add_cache_dir(clear_parser)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    from .orchestration.cache import CHECKPOINT_DIR, CheckpointStore
    from .sim import checkpoint as checkpoint_format

    store = CheckpointStore(os.path.join(args.cache_dir, CHECKPOINT_DIR))

    if args.command == "list":
        records = store.entries()
        if not records:
            print(f"no checkpoints under {store.directory}")
            return 0
        for record in records:
            print(f"{record['key']}  cycle {record['cycle']:>12}  {record['bytes']:>10} bytes")
        print(f"{len(records)} checkpoint(s), {sum(r['bytes'] for r in records)} bytes total")
        return 0

    if args.command == "clear":
        removed = len(store.entries())
        store.clear()
        print(f"cleared {removed} checkpoint(s) from {store.directory}")
        return 0

    # inspect
    path = args.checkpoint
    if not os.path.isfile(path):
        matches = [r for r in store.entries() if r["key"].startswith(args.checkpoint)]
        if len(matches) != 1:
            hint = "no checkpoint" if not matches else f"{len(matches)} checkpoints"
            print(
                f"{hint} matching {args.checkpoint!r} under {store.directory} "
                "(see `repro checkpoint list`)",
                file=sys.stderr,
            )
            return 1
        path = matches[0]["path"]
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        meta = checkpoint_format.describe(data)
    except OSError as exc:
        print(f"could not read {path}: {exc}", file=sys.stderr)
        return 1
    except checkpoint_format.CheckpointError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    print(f"checkpoint {path}")
    print(f"  format:    v{meta.get('format')}")
    print(f"  cycle:     {meta.get('cycle')}")
    print(f"  engine:    {meta.get('engine')}  (resumable under either engine)")
    print(f"  design:    {meta.get('design')}")
    print(f"  prefix:    {meta.get('prefix')}")
    print(f"  digest:    {meta.get('digest')}")
    print(f"  traces:    {', '.join(meta.get('traces', [])) or '(none)'}")
    print(f"  kernel:    {meta.get('kernel_bytes')} bytes")
    return 0


# ----------------------------------------------------------------- status & runs


def _status_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro status",
        description=(
            "Render a live status view of a running sweep service: "
            "fleet progress, points/sec, per-worker liveness and lease state, "
            "cache hit rate, per-figure ETA and the jobs table."
        ),
    )
    _add_service_target(parser)
    parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll every SECONDS instead of printing one snapshot and exiting",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw status payload as JSON instead of the rendered view",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS", help="connect/read timeout"
    )
    args = parser.parse_args(argv)
    target = args.target

    import json as json_module

    from .distributed import parse_address
    from .telemetry.status import fetch_status, format_status, validate_status

    try:
        address = parse_address(target)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    while True:
        try:
            payload = fetch_status(address, timeout=args.timeout)
        except (OSError, ValueError) as exc:
            print(f"could not fetch status from {target}: {exc}", file=sys.stderr)
            return 1
        problems = validate_status(payload)
        if problems:
            print(
                f"malformed status payload (bad fields: {', '.join(problems)})",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json_module.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"service {target}")
            print(format_status(payload))
        if args.watch is None:
            return 0
        time.sleep(max(0.1, args.watch))
        print()


def _watch_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description=(
            "Stream a running sweep service's structured "
            "events live: leases granted and expired, points committed and "
            "requeued, jobs changing state, tenants blacklisted and cleared. "
            "Pushed over the watch protocol — no polling."
        ),
    )
    _add_service_target(parser)
    parser.add_argument(
        "--from-seq",
        type=int,
        default=None,
        metavar="N",
        help=(
            "replay buffered events with seq > N before going live "
            "(0 = everything still buffered; default: live events only)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print raw event dicts as JSON lines instead of the rendered view",
    )
    _add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)
    target = args.target

    import json as json_module

    from .distributed import ServiceError, parse_address
    from .distributed.client import WatchClient
    from .telemetry.status import format_event, format_status

    try:
        address = parse_address(target)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        watcher = WatchClient(address, from_seq=args.from_seq)
    except (ServiceError, OSError, ValueError) as exc:
        print(f"could not watch {target}: {exc}", file=sys.stderr)
        return 1
    try:
        if not args.json:
            print(
                f"watching {target} (events from seq {watcher.seq})",
                file=sys.stderr,
                flush=True,
            )
            if watcher.status is not None:
                print(format_status(watcher.status))
                print("--- live events ---", flush=True)
        for event in watcher.events():
            if args.json:
                print(json_module.dumps(event, sort_keys=True), flush=True)
            else:
                print(format_event(event), flush=True)
        print(f"{target} closed the event stream", file=sys.stderr)
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        watcher.close()


def _parse_since(text: str) -> float:
    """``--since`` spec → epoch seconds: ``2h``/``45m``/``30s``/``7d``
    relative forms or an ISO date/datetime."""
    import re

    spec = text.strip()
    relative = re.fullmatch(r"(\d+(?:\.\d+)?)([smhd])", spec)
    if relative:
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}[relative.group(2)]
        return time.time() - float(relative.group(1)) * scale
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            return time.mktime(time.strptime(spec, fmt))
        except ValueError:
            continue
    raise ValueError(
        f"invalid --since {text!r}: use a relative age like 30s/45m/2h/7d "
        "or an ISO date (2026-08-08[T12:00:00])"
    )


def _runs_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro runs",
        description="List or inspect the run manifests persisted next to the result cache.",
    )
    parser.add_argument(
        "run_id",
        nargs="?",
        default=None,
        help="inspect one run (id or unambiguous prefix) instead of listing all",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--figure",
        default=None,
        metavar="FIG",
        help="only list runs that swept this experiment (e.g. fig6)",
    )
    parser.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="only list service runs submitted by this tenant",
    )
    parser.add_argument(
        "--since",
        default=None,
        metavar="SPEC",
        help="only list runs started after SPEC: 30s/45m/2h/7d ago, or an ISO date",
    )
    parser.add_argument(
        "--json", action="store_true", help="print raw manifest JSON instead of summaries"
    )
    args = parser.parse_args(argv)

    import json as json_module

    from .telemetry.manifest import list_manifests, load_manifest, summarize_manifest

    if args.run_id is not None:
        manifest = load_manifest(args.cache_dir, args.run_id)
        if manifest is None:
            print(f"no (unique) manifest matching {args.run_id!r}", file=sys.stderr)
            return 1
        if args.json:
            print(json_module.dumps(manifest, indent=2, sort_keys=True))
        else:
            print(summarize_manifest(manifest))
            points = manifest.get("points") or {}
            if isinstance(points, dict) and points:
                simulated = sum(
                    1 for point in points.values()
                    if isinstance(point, dict) and point.get("state") == "simulated"
                )
                print(
                    f"  points: {len(points)} "
                    f"({simulated} simulated, {len(points) - simulated} replayed)"
                )
            counters = (manifest.get("metrics") or {}).get("counters") or {}
            for name in sorted(counters):
                print(f"  {name:<36} {counters[name]}")
        return 0

    manifests = list_manifests(args.cache_dir)
    if args.figure:
        wanted = args.figure.strip().lower()
        manifests = [m for m in manifests if wanted in (m.get("experiments") or ())]
    if args.tenant:
        manifests = [m for m in manifests if m.get("tenant") == args.tenant
                     or (m.get("kwargs") or {}).get("tenant") == args.tenant]
    if args.since:
        try:
            threshold = _parse_since(args.since)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        manifests = [m for m in manifests
                     if isinstance(m.get("started_at"), (int, float))
                     and m["started_at"] >= threshold]
    if not manifests:
        filtered = any((args.figure, args.tenant, args.since))
        print(
            f"no run manifests under {args.cache_dir}/runs"
            + (" matching the given filters" if filtered else "")
        )
        return 0
    if args.json:
        print(json_module.dumps(manifests, indent=2, sort_keys=True))
        return 0
    for manifest in manifests:
        print(summarize_manifest(manifest))
    return 0


def _trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Inspect the persisted event traces under <cache-dir>/traces/: "
            "list journals, export one as Chrome trace-event JSON "
            "(loadable in Perfetto / chrome://tracing), or render a run's "
            "engine profile histograms."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def _add_cache_dir(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            metavar="DIR",
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR!r})",
        )

    list_parser = sub.add_parser(
        "list", help="list the event journals next to the result cache"
    )
    _add_cache_dir(list_parser)

    export_parser = sub.add_parser(
        "export", help="export one run's journal as Chrome trace-event JSON"
    )
    export_parser.add_argument(
        "--run",
        required=True,
        metavar="ID",
        help="run id (or unambiguous prefix) whose journal to export; "
        "'service' exports the daemon's journal",
    )
    export_parser.add_argument(
        "--out",
        default=None,
        metavar="OUT",
        help="output path ('-' for stdout; default: <run>.trace.json)",
    )
    _add_cache_dir(export_parser)

    profile_parser = sub.add_parser(
        "profile", help="render a --profile-engine run's phase histograms"
    )
    profile_parser.add_argument(
        "run_id",
        nargs="?",
        default=None,
        help="run id or prefix (default: the most recent manifest)",
    )
    _add_cache_dir(profile_parser)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    import json as json_module

    from .telemetry.trace import (
        export_chrome_trace,
        list_journals,
        read_journal,
        validate_chrome_trace,
    )

    if args.command == "list":
        journals = list_journals(args.cache_dir)
        if not journals:
            print(f"no event journals under {args.cache_dir}/traces")
            return 0
        for path in journals:
            events = read_journal(path)
            span = ""
            if events:
                first, last = events[0].get("ts"), events[-1].get("ts")
                if isinstance(first, (int, float)) and isinstance(last, (int, float)):
                    span = f", {max(0.0, last - first):.1f}s"
            print(f"{path.stem:<40} {len(events):>6} events{span}")
        return 0

    if args.command == "export":
        journals = list_journals(args.cache_dir)
        matches = [path for path in journals if path.stem == args.run]
        if not matches:
            matches = [path for path in journals if path.stem.startswith(args.run)]
        if len(matches) != 1:
            hint = "no journal" if not matches else f"{len(matches)} journals"
            print(
                f"{hint} matching {args.run!r} under {args.cache_dir}/traces "
                "(see `repro trace list`)",
                file=sys.stderr,
            )
            return 1
        events = read_journal(matches[0])
        document = export_chrome_trace(events)
        problems = validate_chrome_trace(document)
        if problems:
            print(
                f"export produced an invalid trace ({'; '.join(problems[:5])})",
                file=sys.stderr,
            )
            return 1
        text = json_module.dumps(document, indent=2, sort_keys=True)
        out = args.out if args.out is not None else f"{matches[0].stem}.trace.json"
        if out == "-":
            print(text)
        else:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(
                f"wrote {len(document['traceEvents'])} trace events to {out} "
                "(load in Perfetto or chrome://tracing)",
                file=sys.stderr,
            )
        return 0

    # profile
    from .telemetry.manifest import list_manifests, load_manifest
    from .telemetry.trace import format_profile, load_profile

    if args.run_id is not None:
        manifest = load_manifest(args.cache_dir, args.run_id)
        if manifest is None:
            print(f"no (unique) manifest matching {args.run_id!r}", file=sys.stderr)
            return 1
    else:
        manifests = list_manifests(args.cache_dir)
        if not manifests:
            print(f"no run manifests under {args.cache_dir}/runs", file=sys.stderr)
            return 1
        manifest = manifests[-1]
    counters = load_profile(manifest) or {}
    print(f"run {manifest.get('run_id', '?')}")
    print(format_profile(counters))
    return 0


# ----------------------------------------------------------------- service verbs


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the persistent sweep service: clients submit experiment "
            "requests (`repro submit`), one shared worker fleet simulates "
            "them, and a BLISS-style fair scheduler keeps heavy batch jobs "
            "from starving interactive ones."
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "listen address (default: 127.0.0.1:0 — loopback, ephemeral "
            "port, printed once bound; use e.g. 0.0.0.0:7777 to accept "
            "clients and workers from other machines)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "self-spawn N localhost worker processes (default: 0 — wait for "
            "external `repro worker --target` joins)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=(
            "persistent result store shared by every job and tenant "
            f"(default: {DEFAULT_CACHE_DIR!r})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="keep results in memory only (no disk persistence, no manifests)",
    )
    parser.add_argument(
        "--quantum",
        type=int,
        default=None,
        metavar="N",
        help="fairness: consecutive leases before a job is blacklisted (default: 4)",
    )
    parser.add_argument(
        "--clearing-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fairness: seconds between blacklist clearings (default: 5)",
    )
    _add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)

    from .distributed import parse_address, spawn_local_worker
    from .distributed.fairness import DEFAULT_CLEARING_INTERVAL, DEFAULT_SERVICE_QUANTUM
    from .distributed.service import SweepService
    from .orchestration import InMemoryResultStore

    try:
        host, port = parse_address(args.bind)
    except ValueError as exc:
        print(f"--bind: {exc}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2

    store = InMemoryResultStore() if args.no_cache else open_store(args.cache_dir)
    try:
        service = SweepService(
            store,
            host,
            port,
            service_quantum=args.quantum if args.quantum is not None
            else DEFAULT_SERVICE_QUANTUM,
            clearing_interval=args.clearing_interval if args.clearing_interval is not None
            else DEFAULT_CLEARING_INTERVAL,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        bound_host, bound_port = service.start()
    except OSError as exc:
        print(f"could not bind {args.bind}: {exc}", file=sys.stderr)
        return 1
    # Self-spawned workers connect via loopback even on a wildcard bind.
    connect_host = "127.0.0.1" if bound_host in ("0.0.0.0", "::", "") else bound_host
    print(f"sweep service listening on {bound_host}:{bound_port}", flush=True)
    print(
        f"submit with: python -m repro submit fig6 --target {connect_host}:{bound_port}",
        file=sys.stderr,
    )
    workers = [spawn_local_worker(connect_host, bound_port, index)
               for index in range(args.workers)]
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.stop()
        for worker in workers:
            try:
                worker.wait(timeout=5.0)
            except Exception:
                worker.kill()
    return 0


def _print_job_results(results, stats: SweepStats, *, sweep_mode: bool, json_out) -> None:
    """Tables, the stats line and the JSON export of a finished sweep."""
    tables = sys.stderr if json_out == "-" else sys.stdout
    if sweep_mode or len(results) != 1:
        print(format_sweep(results), file=tables)
    else:
        key, data = next(iter(results.items()))
        print(format_experiment(key, data), file=tables)
    print(format_stats(stats), file=sys.stderr)
    if json_out is not None:
        dump_json(results, json_out)


def _submit_and_print(
    target: str,
    request: SweepRequest,
    *,
    sweep_mode: bool,
    json_out,
    wait: bool = True,
    timeout: float | None = None,
) -> int:
    """Submit ``request`` to the daemon at ``target``, wait for the job and
    print it like a local run (``repro submit`` and ``--target HOST:PORT``).

    The service owns the cache and writes the job's manifest; the client
    has nothing to persist.
    """
    from .distributed import ServiceError, SweepClient

    try:
        with SweepClient(target) as client:
            job_id = client.submit(request)
            print(f"submitted {job_id} to {target}", file=sys.stderr)
            if not wait:
                print(job_id)
                return 0
            status = client.wait(job_id, timeout=timeout)
            if status.state != "done":
                detail = f": {status.error}" if status.error else ""
                print(f"{job_id} {status.state}{detail}", file=sys.stderr)
                return 1
            results = client.results(job_id)
    except (ServiceError, TimeoutError, OSError, ValueError) as exc:
        print(f"submit to {target} failed: {exc}", file=sys.stderr)
        return 1
    stats = SweepStats(
        planned=status.points,
        executed=status.executed,
        reused=status.reused,
        elapsed=status.elapsed_seconds,
    )
    _print_job_results(results, stats, sweep_mode=sweep_mode, json_out=json_out)
    return 0


def _submit_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit a sweep to a running `repro serve` daemon and (by "
            "default) wait for its results."
        ),
    )
    parser.add_argument(
        "experiments", nargs="+", metavar="experiment", help="experiment ids, e.g. fig5 fig6"
    )
    _add_service_target(parser)
    parser.add_argument(
        "--instructions", type=int, default=None, help="per-core instruction count override"
    )
    parser.add_argument(
        "--full", action="store_true", help="use the full 43-application roster (slow)"
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None, help="simulation engine for this job"
    )
    parser.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
        help=(
            "scheduling class: 'interactive' jobs are favoured, 'batch' jobs "
            "yield under contention (default: interactive)"
        ),
    )
    parser.add_argument(
        "--tag",
        action="append",
        default=None,
        metavar="TAG",
        dest="tags",
        help="free-form tag recorded in the job's manifest (repeatable)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="dump the job's raw data as JSON to OUT ('-' for stdout)",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and exit instead of waiting for results",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting after SECONDS (default: wait forever)",
    )
    _add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)

    try:
        request = SweepRequest(
            experiments=tuple(args.experiments),
            instructions=args.instructions,
            full=args.full,
            engine=args.engine,
            priority=args.priority,
            tags=tuple(args.tags or ()),
        )
    except (TypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _submit_and_print(
        args.target,
        request,
        sweep_mode=len(request.experiments) > 1,
        json_out=args.json,
        wait=not args.no_wait,
        timeout=args.timeout,
    )


def _jobs_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="List (or cancel) the jobs of a running sweep service.",
    )
    _add_service_target(parser)
    parser.add_argument(
        "--cancel", default=None, metavar="JOB", help="cancel one job instead of listing"
    )
    parser.add_argument(
        "--json", action="store_true", help="print raw job payloads as JSON"
    )
    _add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)
    target = args.target

    import json as json_module

    from .distributed import ServiceError, SweepClient

    try:
        with SweepClient(target) as client:
            if args.cancel is not None:
                status = client.cancel(args.cancel)
                print(f"{status.job_id} {status.state}")
                return 0
            statuses = client.jobs()
    except (ServiceError, OSError, ValueError) as exc:
        print(f"could not query {target}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps([status.raw for status in statuses], indent=2, sort_keys=True))
        return 0
    if not statuses:
        print("no jobs submitted yet")
        return 0
    for status in statuses:
        label = ",".join(status.experiments) or "?"
        print(
            f"{status.job_id:<10} {status.state:<10} {status.priority:<11} "
            f"{status.completed}/{status.points} points, executed {status.executed}, "
            f"reused {status.reused}  [{label}]  tenant {status.tenant}"
        )
    return 0


# ----------------------------------------------------------------- experiments


class _CliError(Exception):
    """An execution-spec problem; ``main`` prints it and exits 2."""


def _resolve_execution(args):
    """Map ``--target`` onto ``(service_address, executor)``.

    A non-``None`` address means "submit to that daemon"; otherwise the
    sweep runs here, on ``executor`` (a process pool) or, when that is
    ``None`` too, on whatever the sweep picks for its misses (see
    :func:`~repro.orchestration.sweep.local_executor`).  Raises
    :class:`_CliError` on a bad spec.
    """
    if args.target is None:
        return None, None
    try:
        target = parse_target(args.target)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if target.kind == "service":
        host, port = target.address
        return f"{host}:{port}", None
    if target.kind == "process":
        return None, ProcessPoolExecutor(jobs=target.jobs or usable_cpus())
    return None, None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Verbs with their own flags are dispatched before the experiment
    # parser ever sees the command line.
    verbs = {
        "worker": _worker_main,
        "cache": _cache_main,
        "checkpoint": _checkpoint_main,
        "status": _status_main,
        "watch": _watch_main,
        "runs": _runs_main,
        "trace": _trace_main,
        "serve": _serve_main,
        "submit": _submit_main,
        "jobs": _jobs_main,
    }
    if argv and argv[0] in verbs:
        return verbs[argv[0]](argv[1:])

    parser = _build_parser()
    args = parser.parse_args(argv)
    telemetry_logs.configure(verbose=args.verbose, quiet=args.quiet)

    if args.list or not args.experiments:
        _print_experiment_list()
        return 0

    tokens = [token.lower() for token in args.experiments]
    sweep_mode = tokens[0] == "sweep"
    keys = tokens[1:] if sweep_mode else tokens
    if sweep_mode and not keys:
        print("sweep needs at least one experiment id, e.g. `sweep fig6 fig11`", file=sys.stderr)
        return 2
    if not sweep_mode and len(keys) > 1:
        print(
            "several experiment ids given; did you mean `repro sweep "
            + " ".join(keys)
            + "`?",
            file=sys.stderr,
        )
        return 2
    unknown = [key for key in keys if key not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            "use --list to see the available ids",
            file=sys.stderr,
        )
        return 2

    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        print("--checkpoint-interval must be at least 1 cycle", file=sys.stderr)
        return 2

    # One request object is the whole run description from here on — the
    # same value a `repro submit` would put on the wire.
    request = SweepRequest(
        experiments=tuple(keys),
        instructions=args.instructions,
        full=args.full,
        engine=args.engine,
    )
    try:
        service_address, executor = _resolve_execution(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if service_address is not None:
        return _submit_and_print(
            service_address, request, sweep_mode=sweep_mode, json_out=args.json
        )

    store = None if args.no_cache else open_store(args.cache_dir)
    started_at = time.time()
    with contextlib.ExitStack() as stack:
        if args.no_telemetry:
            # Observe-only by construction; disabling just skips the
            # bookkeeping (and the manifest below), never the results.
            stack.enter_context(telemetry.disabled())
        if args.no_telemetry or args.no_trace:
            # Silence the event bus for the run: no emits, no journal
            # (TraceJournal only creates its file on first write).
            previous_bus_state = telemetry.bus().enabled
            telemetry.bus().enabled = False
            stack.callback(
                setattr, telemetry.bus(), "enabled", previous_bus_state
            )
        if args.profile_engine:
            stack.enter_context(telemetry.profiled())
        if args.checkpoint_interval is not None:
            # Periodic checkpointing for every simulation this thread
            # executes directly; resume-from-latest makes an interrupted
            # run (or one sharing a warmup prefix) skip finished cycles.
            from .orchestration.cache import CHECKPOINT_DIR, CheckpointStore
            from .sim.runner import checkpointing

            stack.enter_context(
                checkpointing(
                    CheckpointStore(os.path.join(args.cache_dir, CHECKPOINT_DIR)),
                    args.checkpoint_interval,
                )
            )
        result = sweep_experiments(request, store=store, executor=executor)
    results, stats = result.data, result.stats

    # With `--json -` the JSON document owns stdout; tables move to stderr
    # so the output stays pipeable into jq & co.
    _print_job_results(results, stats, sweep_mode=sweep_mode, json_out=args.json)

    if isinstance(store, ResultCache):
        # Best-effort bookkeeping for `repro cache`: a read-only or full
        # cache directory must never cost the user the run's output.
        try:
            store.record_last_run(
                {"planned": stats.planned, "executed": stats.executed, "reused": stats.reused}
            )
        except OSError:
            pass
        if not args.no_telemetry:
            # One run manifest per sweep, next to the cache (same
            # best-effort contract as record_last_run).
            from .telemetry.manifest import write_manifest

            try:
                write_manifest(
                    store.cache_dir,
                    experiments=keys,
                    started_at=started_at,
                    argv=argv,
                    kwargs=request.run_kwargs(),
                    executor=stats.executor,
                    jobs=stats.jobs,
                    engine=args.engine,
                    stats={
                        "planned": stats.planned,
                        "executed": stats.executed,
                        "reused": stats.reused,
                        "elapsed_seconds": stats.elapsed,
                    },
                    cache=store.stats(),
                    run_id=stats.run_id,
                    points=stats.points,
                )
            except OSError:
                pass
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # The stdout reader went away (e.g. `repro cache | grep -q …`):
        # exit quietly like a well-behaved unix filter instead of
        # tracebacking.  Redirect stdout to devnull so the interpreter's
        # shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    raise SystemExit(code)
