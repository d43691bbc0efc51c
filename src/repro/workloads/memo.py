"""Per-pass memo: each distinct trace generated once per sweep pass.

A sweep *pass* is one planning call or one replay call of
:mod:`repro.orchestration.sweep`: it runs experiment modules that build
the same workload traces again and again — figures evaluate one mix
under several configs, and figures share mixes and alone runs.  Inside
a pass the trace generators return the :class:`~repro.cpu.trace.Trace`
the pass already generated for the same arguments, and per-object
derivations (a config's or a trace's canonical JSON, a config's
alone-run config) are computed once per object.  Outside a pass every
call computes afresh.

Shared traces are read-only: a caller that mutates one would change it
for every later caller of the pass.  The memo lives exactly as long as
the outermost pass (nested passes reuse it) and belongs to one thread,
so concurrent service jobs and in-process workers never share it, and
a long-lived process holds nothing between passes.

Memo keys are type-exact.  A generator call is keyed on the generator
and the ``repr`` of every argument (the address mapping by its type and
organization); a per-object derivation on the object's identity.  Keys
never rely on dataclass equality: ``640 == 640.0``, yet a spec or config
holding one gives other trace metadata, and another point key, than one
holding the other.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, TypeVar

from ..cpu.trace import Trace
from ..dram.address import AddressMapping

T = TypeVar("T")
V = TypeVar("V")


class _PassScope(threading.local):
    """This thread's memo; ``None`` outside every pass."""

    memo: Optional[Dict] = None


_SCOPE = _PassScope()


@contextmanager
def sweep_pass() -> Iterator[None]:
    """Scope one pass on this thread; a nested pass reuses the outer memo."""
    if _SCOPE.memo is not None:
        yield
        return
    _SCOPE.memo = {}
    try:
        yield
    finally:
        _SCOPE.memo = None


def per_object(obj: T, derive: Callable[[T], V]) -> V:
    """``derive(obj)``, computed once per ``obj`` (by identity) inside a pass."""
    memo = _SCOPE.memo
    if memo is None:
        return derive(obj)
    key = (derive, id(obj))
    entry = memo.get(key)
    if entry is None:
        # Holding ``obj`` keeps its id unique for the rest of the pass.
        entry = memo[key] = (obj, derive(obj))
    return entry[1]


def memoized_in_pass(generator: Callable[..., Trace]) -> Callable[..., Trace]:
    """Decorate a trace generator of signature
    ``(spec, num_instructions, seed=0, mapping=None, row_offset=0)`` so
    that a pass generates each distinct argument list once."""

    @functools.wraps(generator)
    def generate(
        spec,
        num_instructions: int,
        seed: int = 0,
        mapping: Optional[AddressMapping] = None,
        row_offset: int = 0,
    ) -> Trace:
        memo = _SCOPE.memo
        if memo is None:
            return generator(spec, num_instructions, seed, mapping, row_offset)
        key = (
            generator,
            repr(spec),
            repr(num_instructions),
            repr(seed),
            None if mapping is None else (type(mapping), repr(mapping.organization)),
            repr(row_offset),
        )
        trace = memo.get(key)
        if trace is None:
            trace = memo[key] = generator(spec, num_instructions, seed, mapping, row_offset)
        return trace

    return generate
