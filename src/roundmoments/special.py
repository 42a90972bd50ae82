"""Scalar special functions needed by the bound engine."""

from __future__ import annotations

import math


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Unnormalized upper incomplete gamma integral for s > 0, x >= 0.

    Series evaluation of the lower integral below the x = s + 1 crossover,
    modified Lentz continued fraction above it, each to relative 1e-14.
    """
    if s <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("lower limit must be non-negative")
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return math.gamma(s) - _lower_series(s, x)
    return _upper_cf(s, x)


def _lower_series(s: float, x: float) -> float:
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(10_000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < 1e-14 * abs(total):
            break
    return total * math.exp(-x + s * math.log(x))


def _upper_cf(s: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return math.exp(-x + s * math.log(x)) * h
