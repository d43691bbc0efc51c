"""The layer catalogue: what the traced run wraps, and the per-layer metrics.

Layers are the ``src/repro`` packages.  Each is measured from outside, at
its public entry points, and each per-layer metric names the end-to-end
metric (see ``BENCHMARK.json``) it should move, and on which workload:

``sim``            ``System.__init__``/``run``/``advance`` (the engine loop).
                   ``dispatch_self_s`` -> ``sim_kips`` on idle-l4 and
                   dense-h8; ``serve_windows``/``serve_window_cycles`` ->
                   ``sim_kips`` on dense-h8; ``cycles_per_dispatch`` ->
                   ``sim_kips`` on idle-l4; ``setup_s`` -> ``setup_s``.
``cpu``            ``Core`` tick/skip/bound/stall/read-completion calls.
                   ``self_s``/``calls`` -> ``sim_kips`` on idle-l4.
``controller``     ``ChannelController`` tick/serve_batch/skip/catch_up/
                   bound/enqueue.  ``self_s``/``calls``/``enqueue_rejects``
                   (base: ``enqueues``) -> ``sim_kips`` on dense-h8.
``sched``          ``select_index``/``select`` of FR-FCFS, FR-FCFS+Cap,
                   BLISS and the RNG-aware queue policy.  ``self_s``/
                   ``selects`` -> ``sim_kips`` on dense-h8.
``dram``           ``Channel.service_access``/``occupy_for_rng`` and
                   ``AddressMapping.decode``.  ``self_s``/``accesses`` ->
                   ``sim_kips`` on dense-h8; ``rng_occupancies`` ->
                   ``sim_kips`` on idle-l4.
``core``           the RNG subsystem, fill policies and idleness
                   predictors.  ``self_s``/``calls`` -> ``sim_kips`` on
                   idle-l4.
``workloads``      trace generation where the experiments call it.
                   ``tracegen_s``/``traces`` -> ``warm_s`` (most) and
                   ``cold_s`` on sweep-fig.
``orchestration``  ``point_key``, ``ResultCache.get``/``put`` and
                   ``simulate_direct`` from the cache-serving backend.
                   ``key_s``/``store_get_s``/``store_hits``/
                   ``store_misses`` -> ``warm_s`` on sweep-fig;
                   ``simulate_s``/``store_put_s``/``bytes_written`` ->
                   ``cold_s`` on sweep-fig.
``distributed``    ``SweepClient`` submit/poll/results, the protocol's
                   ``encode_message``/``read_message``, and
                   ``simulate_direct`` on the worker.  ``submit_s``/
                   ``polls``/``worker_busy_s``/``worker_wait_s``/
                   ``points_executed``/``overhead_frac`` -> ``cold_s`` on
                   service-rt; ``msgs``/``wire_bytes``/``points_reused``
                   -> ``warm_s`` on service-rt.
``trace``          the traced run itself: ``wall_s`` is the wall time of
                   the traced operations on the driving thread (the
                   client's, on service-rt); ``glue_s`` the part of it
                   outside every span; ``reconcile_err`` how far the
                   self times of the layers above on that thread plus
                   glue miss ``wall_s`` (accepted up to ~5%: a span of
                   no catalogued layer, or spans that do not nest, show
                   here); ``overhead_ratio`` the traced over the
                   untraced wall time of the same operations.

The layers inside a simulation (``cpu`` to ``core``) are traced on the
kernel workloads only; on the sweeps ``sim.run`` is the innermost span.

"Modelled" metrics (``cpu.ipc``, ``dram.row_hit_rate``, ...) are
simulated statistics summed over every simulation of the traced run.
They repeat exactly, and show where a change to the model lands.
Simulated quantities are in bus cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from tracing import SpanRecorder

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.dispatch_self_s", "s", "lower"),
    ("sim.setup_s", "s", "lower"),
    ("sim.serve_windows", "count", "higher"),
    ("sim.serve_window_cycles", "cycles", "higher"),
    ("sim.cycles_per_dispatch", "cycles", "higher"),
    ("cpu.self_s", "s", "lower"),
    ("cpu.calls", "count", "lower"),
    ("cpu.ipc", "instr/cycle", "higher"),
    ("cpu.mem_stall_frac", "ratio", "lower"),
    ("cpu.read_latency_cyc", "cycles", "lower"),
    ("controller.self_s", "s", "lower"),
    ("controller.calls", "count", "lower"),
    ("controller.enqueues", "count", "lower"),
    ("controller.enqueue_rejects", "count", "lower"),
    ("controller.busy_frac", "ratio", "lower"),
    ("controller.rng_mode_frac", "ratio", "lower"),
    ("controller.mode_switches", "count", "lower"),
    ("sched.self_s", "s", "lower"),
    ("sched.selects", "count", "lower"),
    ("sched.starvation_interventions", "count", "lower"),
    ("sched.rng_queue_choices", "count", "lower"),
    ("dram.self_s", "s", "lower"),
    ("dram.accesses", "count", "lower"),
    ("dram.rng_occupancies", "count", "lower"),
    ("dram.decodes", "count", "lower"),
    ("dram.row_hit_rate", "ratio", "higher"),
    ("core.self_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("core.rng_requests", "count", "lower"),
    ("core.buffer_serve_rate", "ratio", "higher"),
    ("core.predictor_accuracy", "ratio", "higher"),
    ("core.fill_bits", "bits", "higher"),
    ("core.rng_latency_cyc", "cycles", "lower"),
    ("workloads.tracegen_s", "s", "lower"),
    ("workloads.traces", "count", "lower"),
    ("orchestration.key_s", "s", "lower"),
    ("orchestration.keys", "count", "lower"),
    ("orchestration.store_get_s", "s", "lower"),
    ("orchestration.store_hits", "count", "higher"),
    ("orchestration.store_misses", "count", "lower"),
    ("orchestration.simulate_s", "s", "lower"),
    ("orchestration.store_put_s", "s", "lower"),
    ("orchestration.bytes_written", "bytes", "lower"),
    ("distributed.submit_s", "s", "lower"),
    ("distributed.polls", "count", "lower"),
    ("distributed.worker_busy_s", "s", "lower"),
    ("distributed.worker_wait_s", "s", "lower"),
    ("distributed.points_executed", "count", "lower"),
    ("distributed.points_reused", "count", "higher"),
    ("distributed.overhead_frac", "ratio", "lower"),
    ("distributed.msgs", "count", "lower"),
    ("distributed.wire_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("trace.reconcile_err", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: The catalogued layers: the ``src/repro`` packages, named as the
#: prefixes of their span names.
LAYERS = (
    "sim", "cpu", "controller", "sched", "dram", "core", "workloads", "orchestration",
    "distributed",
)

#: Span name of the worker-side simulation (its inclusive time is the
#: worker's busy time).
WORKER_SIMULATE = "distributed.simulate"


# ----------------------------------------------------------------- hooks


def _count_enqueue(buffer, args, accepted) -> None:
    buffer.counts["controller.enqueues"] += 1
    if not accepted:
        buffer.counts["controller.enqueue_rejects"] += 1


def _count_store_get(buffer, args, result) -> None:
    hit = result is not None
    buffer.counts["orchestration.store_hits" if hit else "orchestration.store_misses"] += 1


def _count_message(buffer, args, encoded) -> None:
    buffer.counts["distributed.msgs"] += 1
    buffer.counts["distributed.wire_bytes"] += len(encoded)


def _record_simulation(buffer, args, result) -> None:
    """Modelled statistics of one finished simulation (``System.run``)."""
    system = args[0]
    engine_metrics = system.last_engine.metrics()
    dram = system.dram.total_stats()
    record = {
        "cycles": result.total_cycles,
        "serve_windows": engine_metrics.get("engine.serve_windows", 0),
        "serve_window_cycles": engine_metrics.get("engine.serve_window_cycles", 0),
        "dispatch_iterations": engine_metrics.get("engine.profile.dispatch_iterations", 0),
        "instructions": sum(core.instructions for core in result.cores),
        "core_cycles": sum(core.cycles for core in result.cores),
        "mem_stall_cycles": sum(core.memory_stall_cycles for core in result.cores),
        "reads": sum(core.reads for core in result.cores),
        "read_latency_sum": sum(core.average_read_latency * core.reads for core in result.cores),
        "channel_cycles": sum(channel.total_cycles for channel in result.channels),
        "busy_cycles": sum(
            channel.busy_cycles + channel.rng_mode_cycles for channel in result.channels
        ),
        "rng_mode_cycles": sum(channel.rng_mode_cycles for channel in result.channels),
        "mode_switches": sum(channel.mode_switches for channel in result.channels),
        "fill_bits": sum(channel.rng_fill_bits for channel in result.channels),
        "starvation_interventions": result.scheduler_stats.get("starvation_interventions", 0),
        "rng_queue_choices": result.scheduler_stats.get("rng_queue_choices", 0),
        "row_hits": dram.row_hits,
        "row_accesses": dram.row_hits + dram.row_closed + dram.row_conflicts,
        "buffer_serves": result.buffer_serves,
        "rng_requests": result.rng_requests,
        "predictions": result.predictor_predictions,
        "correct_predictions": (result.predictor_accuracy or 0.0) * result.predictor_predictions,
        "rng_latency_sum": sum(
            core.average_rng_latency * core.rng_requests for core in result.cores
        ),
        "core_rng_requests": sum(core.rng_requests for core in result.cores),
    }
    buffer.extra.append(record)


# ----------------------------------------------------------------- install


def install(recorder: SpanRecorder, *, kernel: bool, simulate_layer: str = "orchestration") -> None:
    """Wrap every layer entry point.

    ``kernel`` selects the layers inside a simulation (``cpu``,
    ``controller``, ``sched``, ``dram``, ``core``); sweeps run hundreds of
    simulations, whose inner calls would need tens of millions of spans,
    so there ``sim.run`` is the innermost span.  ``simulate_layer`` names
    who calls ``simulate_direct`` in this workload: the cache-serving
    backend (``orchestration``) or the service's worker (``distributed``).
    """
    from repro.distributed.client import SweepClient
    from repro.orchestration.cache import ResultCache
    from repro.sim.system import System

    wrap = recorder.install

    wrap(System, "__init__", "sim.setup")
    wrap(System, "run", "sim.run", _record_simulation)
    wrap(System, "advance", "sim.advance")
    if kernel:
        _install_kernel(wrap)

    wrap("repro.sim.runner", "build_traces", "workloads.build_traces")
    for module in (
        "repro.workloads.mixes",
        "repro.experiments.fig05_idle_periods",
        "repro.experiments.fig18_multicore_idle",
    ):
        wrap(module, "generate_application_trace", "workloads.generate_application_trace")
    wrap("repro.workloads.mixes", "generate_rng_trace", "workloads.generate_rng_trace")

    for module in ("repro.orchestration.sweep", "repro.orchestration.cache"):
        wrap(module, "point_key", "orchestration.point_key")
    wrap(ResultCache, "get", "orchestration.store_get", _count_store_get)
    wrap(ResultCache, "put", "orchestration.store_put")
    simulate_name = (
        WORKER_SIMULATE if simulate_layer == "distributed" else "orchestration.simulate"
    )
    wrap("repro.sim.runner", "simulate_direct", simulate_name)

    for method in ("submit", "poll", "results"):
        wrap(SweepClient, method, f"distributed.{method}")
    for module in (
        "repro.distributed.client", "repro.distributed.worker", "repro.distributed.service"
    ):
        wrap(module, "encode_message", "distributed.encode_message", _count_message)
    wrap("repro.distributed.client", "read_message", "distributed.read_message")
    wrap("repro.distributed.service", "read_message", "distributed.read_message")
    wrap("repro.distributed.worker", "read_message", "distributed.worker_read_message")


def _install_kernel(wrap) -> None:
    from repro.controller.memory_controller import ChannelController
    from repro.core.fill_policies import DRStrangeFillPolicy, GreedyIdleFillPolicy, NoFillPolicy
    from repro.core.idleness_predictor import IdlenessPredictor, SimpleIdlenessPredictor
    from repro.core.rl_predictor import QLearningIdlenessPredictor
    from repro.core.rng_scheduler import RNGAwareQueuePolicy
    from repro.core.rng_subsystem import RNGSubsystem
    from repro.cpu.core import Core
    from repro.dram.address import AddressMapping
    from repro.dram.channel import Channel
    from repro.sched import BLISS, FRFCFS, FRFCFSCap, MemoryScheduler

    for method in ("tick", "skip_cycles", "next_event_cycle", "catch_up_stall", "complete_read"):
        wrap(Core, method, f"cpu.{method}")

    for method in ("tick", "serve_batch", "skip_cycles", "catch_up", "next_event_cycle"):
        wrap(ChannelController, method, f"controller.{method}")
    wrap(ChannelController, "enqueue", "controller.enqueue", _count_enqueue)

    for cls in (MemoryScheduler, FRFCFS, FRFCFSCap, BLISS):
        for method in ("select_index", "select"):
            wrap(cls, method, f"sched.{method}")
    wrap(RNGAwareQueuePolicy, "select", "sched.rng_aware_select")

    wrap(Channel, "service_access", "dram.service_access")
    wrap(Channel, "occupy_for_rng", "dram.occupy_for_rng")
    wrap(AddressMapping, "decode", "dram.decode")

    for method in ("tick", "skip_cycles", "next_event_cycle", "request_random"):
        wrap(RNGSubsystem, method, f"core.rng_{method}")
    for cls in (NoFillPolicy, DRStrangeFillPolicy, GreedyIdleFillPolicy):
        for method in (
            "should_start_fill", "should_continue_fill", "idle_event_cycle", "skip_idle_cycles"
        ):
            wrap(cls, method, f"core.fill_{method}")
    for cls in (IdlenessPredictor, SimpleIdlenessPredictor, QLearningIdlenessPredictor):
        for method in ("observe_idle_period", "predict", "predict_and_record"):
            wrap(cls, method, f"core.predictor_{method}")


# ----------------------------------------------------------------- metrics


def _sum(records: Iterable[Dict], key: str) -> float:
    return sum(record[key] for record in records)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(
    recorder: SpanRecorder,
    *,
    main_wall_s: float,
    untraced_s: float,
    service_cold_s: float = 0.0,
    points_executed: int = 0,
    points_reused: int = 0,
    bytes_written: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``main_wall_s`` is the wall time of the traced operations on the
    driving thread; the reconciliation compares it with that thread's
    span self times plus the unwrapped glue between spans.
    ``untraced_s`` times the same operations without wrappers (the
    ratio is the tracing overhead).
    """
    spans = recorder.summary()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def count(*names: str) -> int:
        return int(sum(spans.get(name, {}).get("count", 0) for name in names))

    def layer(prefix: str, field: str) -> float:
        return sum(
            stats[field] for name, stats in spans.items() if layer_of(name) == prefix
        )

    counts = recorder.counts()
    sims = recorder.extras()
    worker_busy = total(WORKER_SIMULATE)

    main = [buffer for buffer in recorder.buffers if buffer.thread == "MainThread"]
    attributed = sum(
        stats["self_s"]
        for buffer in main
        for name, stats in recorder.thread_summary(buffer).items()
        if layer_of(name) in LAYERS
    )
    glue = main_wall_s - sum(recorder.top_level_seconds(buffer) for buffer in main)
    reconcile_err = _ratio(abs(attributed + glue - main_wall_s), main_wall_s)

    metrics = {
        "sim.dispatch_self_s": spans.get("sim.run", {}).get("self_s", 0.0)
        + spans.get("sim.advance", {}).get("self_s", 0.0),
        "sim.setup_s": total("sim.setup"),
        "sim.serve_windows": _sum(sims, "serve_windows"),
        "sim.serve_window_cycles": _sum(sims, "serve_window_cycles"),
        "sim.cycles_per_dispatch": _ratio(_sum(sims, "cycles"), _sum(sims, "dispatch_iterations")),
        "cpu.self_s": layer("cpu", "self_s"),
        "cpu.calls": layer("cpu", "count"),
        "cpu.ipc": _ratio(_sum(sims, "instructions"), _sum(sims, "core_cycles")),
        "cpu.mem_stall_frac": _ratio(_sum(sims, "mem_stall_cycles"), _sum(sims, "core_cycles")),
        "cpu.read_latency_cyc": _ratio(_sum(sims, "read_latency_sum"), _sum(sims, "reads")),
        "controller.self_s": layer("controller", "self_s"),
        "controller.calls": layer("controller", "count"),
        "controller.enqueues": counts["controller.enqueues"],
        "controller.enqueue_rejects": counts["controller.enqueue_rejects"],
        "controller.busy_frac": _ratio(_sum(sims, "busy_cycles"), _sum(sims, "channel_cycles")),
        "controller.rng_mode_frac": _ratio(
            _sum(sims, "rng_mode_cycles"), _sum(sims, "channel_cycles")
        ),
        "controller.mode_switches": _sum(sims, "mode_switches"),
        "sched.self_s": layer("sched", "self_s"),
        "sched.selects": layer("sched", "count"),
        "sched.starvation_interventions": _sum(sims, "starvation_interventions"),
        "sched.rng_queue_choices": _sum(sims, "rng_queue_choices"),
        "dram.self_s": layer("dram", "self_s"),
        "dram.accesses": count("dram.service_access"),
        "dram.rng_occupancies": count("dram.occupy_for_rng"),
        "dram.decodes": count("dram.decode"),
        "dram.row_hit_rate": _ratio(_sum(sims, "row_hits"), _sum(sims, "row_accesses")),
        "core.self_s": layer("core", "self_s"),
        "core.calls": layer("core", "count"),
        "core.rng_requests": _sum(sims, "rng_requests"),
        "core.buffer_serve_rate": _ratio(_sum(sims, "buffer_serves"), _sum(sims, "rng_requests")),
        "core.predictor_accuracy": _ratio(
            _sum(sims, "correct_predictions"), _sum(sims, "predictions")
        ),
        "core.fill_bits": _sum(sims, "fill_bits"),
        "core.rng_latency_cyc": _ratio(
            _sum(sims, "rng_latency_sum"), _sum(sims, "core_rng_requests")
        ),
        "workloads.tracegen_s": layer("workloads", "self_s"),
        "workloads.traces": count(
            "workloads.generate_application_trace", "workloads.generate_rng_trace"
        ),
        "orchestration.key_s": total("orchestration.point_key"),
        "orchestration.keys": count("orchestration.point_key"),
        "orchestration.store_get_s": total("orchestration.store_get"),
        "orchestration.store_hits": counts["orchestration.store_hits"],
        "orchestration.store_misses": counts["orchestration.store_misses"],
        "orchestration.simulate_s": total("orchestration.simulate"),
        "orchestration.store_put_s": total("orchestration.store_put"),
        "orchestration.bytes_written": bytes_written,
        "distributed.submit_s": total("distributed.submit"),
        "distributed.polls": count("distributed.poll"),
        "distributed.worker_busy_s": worker_busy,
        "distributed.worker_wait_s": total("distributed.worker_read_message"),
        "distributed.points_executed": points_executed,
        "distributed.points_reused": points_reused,
        "distributed.overhead_frac": 1.0 - worker_busy / service_cold_s if service_cold_s else 0.0,
        "distributed.msgs": counts["distributed.msgs"],
        "distributed.wire_bytes": counts["distributed.wire_bytes"],
        "trace.wall_s": main_wall_s,
        "trace.glue_s": glue,
        "trace.reconcile_err": reconcile_err,
        "trace.overhead_ratio": _ratio(main_wall_s, untraced_s),
        "trace.spans": recorder.span_count(),
    }
    missing = set(UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics
