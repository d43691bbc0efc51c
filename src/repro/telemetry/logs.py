"""One `logging` setup for every CLI entry point.

Workers and servers used to print ad-hoc diagnostics straight to
stderr, each with its own prefix convention.  Everything now flows
through the standard :mod:`logging` tree under the ``repro`` root
logger: a worker logs as ``repro.worker.<id>`` and the sweep service
as ``repro.service`` — so every line carries a timestamp, the
component (and worker id) and a level, and ``--verbose``/``--quiet``
tune the whole process at once.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

#: Every repro logger hangs off this root.
ROOT = "repro"

_FORMAT = "%(asctime)s [%(name)s] %(levelname)s %(message)s"
_DATE_FORMAT = "%Y-%m-%d %H:%M:%S"


def verbosity_level(verbose: int = 0, quiet: int = 0) -> int:
    """Map counted ``--verbose``/``--quiet`` flags to a logging level."""
    if quiet >= 2:
        return logging.CRITICAL
    if quiet:
        return logging.WARNING
    if verbose >= 2:
        return logging.DEBUG
    if verbose:
        return logging.INFO
    # Default: progress-worthy lines only.
    return logging.INFO


class _ReproHandler(logging.StreamHandler):
    """The one ``repro.*`` handler, resolving its target lazily: an
    explicitly installed stream is used while it stays open; anything
    else — no stream installed, or a pinned stream that has since been
    closed (a swapped/captured stderr, a daemonised process) — falls
    back to the *current* ``sys.stderr``.  A dead stream thus degrades
    to live stderr instead of raising on every later log line."""

    _repro_handler = True

    def __init__(self, stream=None):
        logging.Handler.__init__(self)
        self._pinned = stream

    @property
    def stream(self):
        pinned = self._pinned
        if pinned is not None and not getattr(pinned, "closed", False):
            return pinned
        return sys.stderr

    def setStream(self, stream):
        self._pinned = stream


def configure(verbose: int = 0, quiet: int = 0, stream=None) -> logging.Logger:
    """Install (or retune) the single stderr handler for ``repro.*``.

    Idempotent: repeated calls — the sweep CLI configuring, then
    spawning in-process workers that configure again — adjust the
    existing handler instead of stacking duplicates.
    """
    root = logging.getLogger(ROOT)
    root.setLevel(verbosity_level(verbose, quiet))
    handler = next(
        (h for h in root.handlers if getattr(h, "_repro_handler", False)),
        None,
    )
    if handler is None:
        handler = _ReproHandler(stream)
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATE_FORMAT))
        root.addHandler(handler)
        root.propagate = False
    elif stream is not None:
        handler.setStream(stream)
    return root


def get_logger(component: str, worker_id: Optional[str] = None) -> logging.Logger:
    """The logger for one component, e.g. ``repro.worker.w3`` —
    the worker id lands in ``%(name)s`` and therefore in every line."""
    name = f"{ROOT}.{component}"
    if worker_id:
        name = f"{name}.{worker_id}"
    return logging.getLogger(name)
