"""Span tracing from outside the program: wrappers around layer entry points.

The traced run installs a wrapper at the attribute each caller looks up:
the class attribute for a method, and the importing module's global for a
function.  Every wrapped call records one span — name, start, end, parent
span and run id — into a per-thread buffer of flat ``array`` columns, so
millions of spans stay compact in memory and no thread contends for a
lock.  Spans are written out when the run ends (:meth:`SpanRecorder.dump`).

A span's *self time* is its duration minus the duration of its child
spans; a layer's self time is the sum over the spans named after it
(``"<layer>.<call>"``).  Work a caller does inline stays with the caller:
``serve_batch`` runs the baseline scheduler select inline, so that select
is controller time, not ``sched`` time.

Nothing here changes what the program computes: a wrapper forwards its
arguments and return value untouched.  Some wrappers also observe the
return value (``hooks``) to count rejects, store hits or wire bytes.
"""

from __future__ import annotations

import importlib
import json
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class _ThreadBuffer:
    """Spans recorded on one thread, as parallel columns indexed by span."""

    __slots__ = ("thread", "names", "parents", "runs", "times", "stack", "counts", "extra")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.names = array("i")
        self.parents = array("i")
        self.runs = array("i")
        #: Two entries per span: start then end (``perf_counter`` seconds).
        self.times = array("d")
        self.stack: List[int] = []
        #: Counts observed by return-value hooks on this thread.
        self.counts: Counter = Counter()
        #: Free-form per-thread records (modelled statistics of simulations).
        self.extra: List[Dict] = []


class SpanRecorder:
    """Installs wrappers, records spans per thread, restores on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: List[_ThreadBuffer] = []
        self._installed: List[Tuple[object, str, object]] = []
        #: Current run id, stamped on every span opened while it is set.
        self.run_id = 0

    # ------------------------------------------------------------- recording

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer(threading.current_thread().name)
            self._local.buffer = buffer
            with self._lock:
                self.buffers.append(buffer)
        return buffer

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, function: Callable, hook: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper around ``function``.

        ``hook(buffer, args, result)`` runs after a successful call, on the
        calling thread, outside the span.
        """
        name_id = self._name_id(name)
        local = self._local
        new_buffer = self._buffer
        recorder = self
        clock = perf_counter

        def traced(*args, **kwargs):
            buffer = getattr(local, "buffer", None) or new_buffer()
            stack = buffer.stack
            index = len(buffer.names)
            buffer.names.append(name_id)
            buffer.parents.append(stack[-1] if stack else -1)
            buffer.runs.append(recorder.run_id)
            times = buffer.times
            times.append(0.0)
            times.append(0.0)
            stack.append(index)
            times[2 * index] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                times[2 * index + 1] = clock()
                stack.pop()
            if hook is not None:
                hook(buffer, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # ------------------------------------------------------------- installing

    def install(self, owner, attribute: str, name: str, hook: Optional[Callable] = None) -> None:
        """Wrap ``owner.attribute`` if ``owner`` itself defines it.

        ``owner`` is a class or a module.  An attribute a class only
        inherits is left alone, so a method shared through a base class
        gets exactly one wrapper (installed on the base).
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        if attribute not in vars(owner):
            return
        original = vars(owner)[attribute]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {owner!r}.{attribute}: not a plain function")
        setattr(owner, attribute, self.wrap(name, original, hook))
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_s`` and ``self_s``,
        over every thread."""
        out: Dict[str, Dict[str, float]] = {}
        for buffer in self.buffers:
            for name, stats in self.thread_summary(buffer).items():
                into = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                for key, value in stats.items():
                    into[key] += value
        return out

    def thread_summary(self, buffer: _ThreadBuffer) -> Dict[str, Dict[str, float]]:
        """Per span name on one thread (see :meth:`summary`)."""
        count = len(buffer.names)
        times = buffer.times
        parents = buffer.parents
        child = array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += times[2 * index + 1] - times[2 * index]
        totals = [[0, 0.0, 0.0] for _ in self.names]
        for index, name_id in enumerate(buffer.names):
            duration = times[2 * index + 1] - times[2 * index]
            stats = totals[name_id]
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - child[index]
        return {
            name: {"count": stats[0], "total_s": stats[1], "self_s": stats[2]}
            for name, stats in zip(self.names, totals)
            if stats[0]
        }

    def top_level_seconds(self, buffer: _ThreadBuffer) -> float:
        """Time one thread spent inside any span (outermost spans only)."""
        times = buffer.times
        return sum(
            times[2 * index + 1] - times[2 * index]
            for index, parent in enumerate(buffer.parents)
            if parent < 0
        )

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buffer in self.buffers:
            total.update(buffer.counts)
        return total

    def extras(self) -> List[Dict]:
        return [record for buffer in self.buffers for record in buffer.extra]

    def span_count(self) -> int:
        return sum(len(buffer.names) for buffer in self.buffers)

    def dump(self, path: Path, meta: Dict) -> None:
        """Write every span: a JSON header line, then each thread's raw
        columns (``names``/``parents``/``runs`` as int32, ``times`` as
        float64 start/end pairs) in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta)
        header["names"] = self.names
        header["threads"] = [
            {"thread": buffer.thread, "spans": len(buffer.names)} for buffer in self.buffers
        ]
        with path.open("wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for buffer in self.buffers:
                for column in (buffer.names, buffer.parents, buffer.runs, buffer.times):
                    column.tofile(handle)
