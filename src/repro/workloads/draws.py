"""numpy ``Generator`` draws reproduced from the PCG64 raw stream.

The trace generators draw a few numbers per trace entry, and a scalar
``Generator.integers(high)`` call costs ~2.6 µs on a 2.1 GHz Xeon vCPU,
almost all of it numpy's per-call overhead: the algorithm behind it is
Lemire's bounded method (Lemire 2019, arXiv:1805.10941) on 32-bit
words, a few integer operations.  :func:`pcg64_draws` returns
``integers`` and ``random`` functions that compute exactly what numpy
computes, from ``rng.bit_generator.random_raw()``:

* ``integers(high)`` for an integer ``1 <= high <= 2**32`` equals
  ``int(rng.integers(high))``; any other ``high`` raises.  numpy draws
  it from 32-bit words, and PCG64 serves those as the low, then the
  high half of one 64-bit output, buffering the high half until the
  next 32-bit draw.  The helper keeps that buffer itself.
  ``high == 1`` draws nothing, as in numpy.
* ``random()`` equals ``rng.random()``: ``(raw >> 11) * 2**-53``.

Draws that numpy makes from whole 64-bit outputs (``random``,
``geometric``) never touch the buffered half, so a caller may interleave
the helper's draws with ``rng.geometric`` and still get numpy's numbers
in numpy's order.  It must not interleave them with ``rng.integers``,
whose buffer the helper does not share.  ``tests/test_workloads.py``
checks the equivalence on the installed numpy.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Tuple

import numpy as np

_LOW_WORD = 0xFFFFFFFF
_WORD_RANGE = 0x100000000
_DOUBLE_UNIT = 2.0**-53


def _words(raw: Callable[[], int]) -> Iterator[int]:
    """PCG64's 32-bit stream: the low, then the high half of each output."""
    while True:
        value = raw()
        yield value & _LOW_WORD
        yield value >> 32


def pcg64_draws(
    rng: np.random.Generator,
) -> Tuple[Callable[[int], int], Callable[[], float]]:
    """``(integers, random)`` drawing from ``rng`` as ``rng.integers(high)``
    and ``rng.random()`` do, for a PCG64 generator (``default_rng``)."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError("pcg64_draws needs a PCG64 generator")
    raw = rng.bit_generator.random_raw
    next_word = _words(raw).__next__

    def integers(high: int) -> int:
        if high == 1:
            return 0
        if type(high) is not int:
            high = operator.index(high)  # a numpy integer; a float raises TypeError
        if not 1 < high <= _WORD_RANGE:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        product = next_word() * high
        if product & _LOW_WORD < high:
            threshold = (_WORD_RANGE - high) % high
            while product & _LOW_WORD < threshold:
                product = next_word() * high
        return product >> 32

    def random() -> float:
        return (raw() >> 11) * _DOUBLE_UNIT

    return integers, random
