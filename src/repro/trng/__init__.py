"""DRAM-based TRNG mechanism models: latency and throughput only (see :mod:`.base`)."""

from .base import DRAMTRNGModel
from .drange import DRaNGe
from .parametric import ParametricTRNG
from .quac import QUACTRNG


def make_trng(name: str, **kwargs) -> DRAMTRNGModel:
    """Construct a TRNG mechanism model by name.

    Recognised names: ``"d-range"``, ``"quac-trng"``, ``"parametric"``
    (the latter requires a ``throughput_mbps`` keyword argument).
    """
    normalized = name.lower().replace("_", "-")
    if normalized in ("d-range", "drange"):
        return DRaNGe(**kwargs)
    if normalized in ("quac-trng", "quac"):
        return QUACTRNG(**kwargs)
    if normalized == "parametric":
        return ParametricTRNG(**kwargs)
    raise ValueError(
        f"unknown TRNG mechanism {name!r}; expected 'd-range', 'quac-trng' or 'parametric'"
    )


__all__ = [
    "DRAMTRNGModel",
    "DRaNGe",
    "QUACTRNG",
    "ParametricTRNG",
    "make_trng",
]
