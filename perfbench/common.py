"""Shared pieces of the benchmark: paths, outcome bookkeeping, fingerprint."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, Optional, Tuple

#: The benchmark's own directory and the checkout root it measures.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Everything a run writes: scratch stores, span dumps, the result ledger.
OUTPUT = ROOT / ".perfbench"

REFERENCE = HERE / "reference.json"


def load_reference() -> Dict:
    with REFERENCE.open("r", encoding="utf-8") as handle:
        return json.load(handle)


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Optional["_Cell"] = None


def _calibration_loop(iterations: int) -> int:
    """Fixed plain-Python work of the simulator's kind (attribute loads,
    dict and list updates, integer arithmetic) that calls no code of the
    program, so no change to the program can change its speed."""
    cells = [_Cell(index) for index in range(256)]
    for index, cell in enumerate(cells):
        cell.next = cells[(index * 7 + 3) % 256]
    cell, accumulator, table, window = cells[0], 0, {}, []
    for step in range(iterations):
        cell = cell.next
        accumulator = (accumulator + cell.value * 31 + step) & 0xFFFF
        key = accumulator & 1023
        table[key] = table.get(key, 0) + 1
        window.append(accumulator)
        if len(window) > 64:
            accumulator ^= window.pop(0)
        if accumulator & 7 == 0:
            cell.value = (cell.value + 1) & 255
    return accumulator


class HostSpeed:
    """How fast the host runs plain Python during a run, against a reference.

    The hosts this benchmark runs on are shared: other tenants slow every
    process on them by up to ~1.6x for minutes at a time, far longer than
    one run, so no statistic inside a run can hide it.  A run therefore
    times a fixed calibration loop between its operations, and reports
    every CPU-bound host time rescaled to the speed at which that loop
    takes :data:`REFERENCE_S`.  Timings and calibrations take the same
    statistic (the fastest repetition), so a run that was slow throughout
    is rescaled by as much as it was slowed.  The loop is short next to a
    sweep pass, so a run whose passes all fell into slow moments between
    fast ones is under-corrected: that noise stays in the figures.  The
    raw times go into the result ledger beside the rescaled ones.
    """

    #: Iterations of one calibration sample, and about its fastest time on
    #: the machine the bounds were tuned on (2 vCPUs, Intel Xeon at 2.1 GHz,
    #: Python 3.11), so rescaled times read close to raw ones there.
    ITERATIONS = 150_000
    REFERENCE_S = 0.040

    #: Least host time between two samples taken by :meth:`sample`.
    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self.samples: list = []
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        """Time the calibration loop, unless one ran less than
        :data:`INTERVAL_S` ago and ``force`` is not set."""
        now = perf_counter()
        if force or now >= self._next:
            # The loop makes no reference cycles; with the collector on,
            # its allocations would trigger collections whose cost grows
            # with the heap the program left behind.
            collecting = gc.isenabled()
            gc.disable()
            try:
                start = perf_counter()
                _calibration_loop(self.ITERATIONS)
                end = perf_counter()
            finally:
                if collecting:
                    gc.enable()
            self.samples.append(end - start)
            self._next = end + self.INTERVAL_S

    def factor(self) -> float:
        """Reference over measured speed: multiply a host time by it (and
        divide a rate by it) to rescale it to the reference speed."""
        return self.REFERENCE_S / min(self.samples)


class Outcome:
    """Attempted/failed operation counts and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._failing = False
        self.metrics: Dict[str, float] = {}
        #: The host times behind ``metrics`` before :class:`HostSpeed`
        #: rescaled them, and the rescaling factor.
        self.raw_metrics: Dict[str, float] = {}
        self.host_factor = 1.0
        #: The traced run's span recorder (dumped at the end of the run).
        self.recorder = None

    @contextlib.contextmanager
    def attempt(self) -> Iterator[None]:
        """One operation: it fails if it raises or a :meth:`check` fails."""
        self.attempted += 1
        self._failing = False
        try:
            yield
        except Exception:  # an operation's failure is counted, not fatal
            self._failing = True
            print("perfbench: operation failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        if self._failing:
            self.failed += 1

    def rescale(
        self, raw: Dict[str, float], host: "HostSpeed", keep_raw: Tuple[str, ...] = ()
    ) -> None:
        """Set ``metrics`` from raw host times: seconds (``*_s``) are
        multiplied by the host factor, rates divided by it, and the names
        in ``keep_raw`` are left as measured."""
        factor = host.factor()
        self.raw_metrics = dict(raw)
        self.host_factor = factor
        self.metrics = {
            name: value if name in keep_raw
            else value * factor if name.endswith("_s")
            else value / factor
            for name, value in raw.items()
        }

    def check(self, ok: bool, what: str = "") -> None:
        if not ok:
            self._failing = True
            print(f"perfbench: output check failed: {what}", file=sys.stderr)


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under :data:`OUTPUT`, removed afterwards."""
    OUTPUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUTPUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the program's sources, which identifies the code even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> Dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
