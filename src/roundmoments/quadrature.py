"""Adaptive Gauss-Kronrod quadrature over finite ranges.

A (7,15)-point Gauss-Kronrod pair drives interval bisection until the
accumulated error estimate meets the requested tolerance.  Only finite
ranges are taken: a map of an infinite tail onto a finite one carries a
unit length of its own, so callers integrate over a model's finite
``moment_range`` instead, and every result scales exactly with the units.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError

# Kronrod-15 abscissae on [-1, 1] (symmetric; only the non-negative half is
# stored) and the matching Kronrod and embedded Gauss-7 weights.
_XGK = np.array([
    0.9914553711208126392069,
    0.9491079123427585245262,
    0.8648644233597690727897,
    0.7415311855993944398639,
    0.5860872354676911302941,
    0.4058451513773971669066,
    0.2077849550078984676007,
    0.0,
])
_WGK = np.array([
    0.0229353220105292249637,
    0.0630920926299785532907,
    0.1047900103222501838399,
    0.1406532597155259187452,
    0.1690047266392679028266,
    0.1903505780647854099133,
    0.2044329400752988924142,
    0.2094821410847278280130,
])
_WG = np.array([
    0.1294849661688696932706,
    0.2797053914892766679015,
    0.3818300505051189449504,
    0.4179591836734693877551,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 nodes, ascending
_W_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _kronrod_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    ik = half * float(fx @ _W_KRONROD)
    ig = half * float(fx @ _W_GAUSS)
    return ik, abs(ik - ig)


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    rtol: float = 1e-12,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over the finite range [a, b], returning (value, error
    estimate).

    ``f`` must accept ndarray input.  ``breakpoints`` lists interior kinks
    (absolute-value folds, support edges) used to seed the subdivision.  An
    infinite or NaN end raises PreconditionError: an integral against a
    model's density runs over its finite ``DensityModel.moment_range``.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"need finite ends, got [{a!r}, {b!r}]")
    if a == b:
        return 0.0, 0.0
    cuts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    heap = []
    total = 0.0
    toterr = 0.0
    serial = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e = _kronrod_panel(f, lo, hi)
        total += v
        toterr += e
        heapq.heappush(heap, (-e, serial, lo, hi, v))
        serial += 1
    n_panels = len(heap)
    while toterr > max(1e-300, rtol * abs(total)) and n_panels < 4000:
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating point resolution; keep its estimate.
            heapq.heappush(heap, (0.0, serial, lo, hi, v))
            serial += 1
            continue
        v1, e1 = _kronrod_panel(f, lo, mid)
        v2, e2 = _kronrod_panel(f, mid, hi)
        total += (v1 + v2) - v
        toterr += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, serial, lo, mid, v1))
        heapq.heappush(heap, (-e2, serial + 1, mid, hi, v2))
        serial += 2
        n_panels += 1
    return total, toterr


@functools.cache
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; cached since the oracle reuses them."""
    return np.polynomial.legendre.leggauss(n)
