"""Rounding schemes, their error models and constants, and error functions.

Four schemes are supported: toward zero, away from zero, nearest (ties away
from zero, which preserves odd symmetry on sign-symmetric grids), and
stochastic rounding, which rounds up with probability proportional to the
position inside the cell and consumes one caller-supplied uniform variate
per call.
"""

from __future__ import annotations

import enum
import operator

import numpy as np

from .errors import ConfigError, PreconditionError
from .grids import Grid


class RoundingScheme(str, enum.Enum):
    TOWARD_ZERO = "toward_zero"
    AWAY_FROM_ZERO = "away_from_zero"
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"

    @classmethod
    def parse(cls, name: str) -> "RoundingScheme":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(f"unknown rounding scheme {name!r}")

    # The error model: |rd(x) - x| <= eps |x| and |rd(x) - x| <= delta on a
    # grid whose relative and absolute gaps are at most eps0 and delta0.

    def eps(self, eps0: float) -> float:
        if self is RoundingScheme.TOWARD_ZERO:
            return eps0 / (1.0 + eps0)
        if self is RoundingScheme.NEAREST:
            return eps0 / 2.0
        return eps0

    def delta(self, delta0: float) -> float:
        return delta0 / 2.0 if self is RoundingScheme.NEAREST else delta0

    @property
    def cancels(self) -> bool:
        """Whether the signed error cancels over a cell (the tier B-D bounds)."""
        return self in (RoundingScheme.NEAREST, RoundingScheme.STOCHASTIC)

    # Error-integral constants: leading c(k), signed-cancellation d(k), and
    # the endpoint inflation beta(eps) with |x| <= beta |rd(x)|.

    def c(self, k: int) -> float:
        if self is RoundingScheme.STOCHASTIC:
            return 2.0 / (k * k + 3.0 * k + 2.0)
        return 1.0 / (k + 1.0)

    def d(self, k: int) -> float:
        if self is RoundingScheme.STOCHASTIC:
            return (1.0 - (k + 3.0) * 2.0 ** (-(k + 1.0))) / (k * k + 3.0 * k + 2.0)
        return self.c(k)

    def beta(self, eps: float) -> float:
        if self not in (RoundingScheme.TOWARD_ZERO, RoundingScheme.NEAREST):
            return 1.0
        if not eps < 1.0:
            # |rd(x) - x| <= eps |x| gives |x| <= |rd(x)| / (1 - eps) only below 1
            raise PreconditionError(f"endpoint inflation 1/(1 - eps) needs eps < 1, got {eps!r}")
        return 1.0 / (1.0 - eps)


def int_power(x, k: int, out=None, scratch=None):
    """x ** k for a non-negative integer k, by repeated squaring.

    numpy's ``power`` has a fast path only for k == 2; larger exponents go
    through libm ``pow``, an order of magnitude slower than multiplying.
    For k <= 2 the result is bit-identical to ``x ** k``; above that each
    of the k - 1 multiplications rounds once, so the relative error is at
    most (k - 1) * 2**-53 to first order.  Intermediate powers lie between
    |x| and |x|^k, so nothing over- or underflows that ``x ** k`` itself
    would not.  With ``out``, which holds x on entry (it may be x itself),
    the power is formed in place; ``scratch`` (new if None) takes the squares.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ConfigError(f"power must be a non-negative integer, got {k!r}") from None
    if k < 0:
        raise ConfigError(f"power must be a non-negative integer, got {k}")
    if out is None and k <= 2:
        return x ** k
    # out (without out, x until a first product makes a new array) is squared
    # in place up to k's lowest set bit; the running square goes on in scratch
    out, fresh = (np.asarray(x, dtype=float), True) if out is None else (out, False)
    if k == 0:
        out.fill(1.0)
    while k and not k & 1:
        out, fresh = np.multiply(out, out, out=np.empty_like(out) if fresh else out), False
        k >>= 1
    square = out
    while k > 1:
        k >>= 1
        scratch = square = np.multiply(square, square, out=np.empty_like(out) if scratch is None else scratch)
        if k & 1:
            out, fresh = np.multiply(out, square, out=np.empty_like(out) if fresh else out), False
    return out


def round_value(grid: Grid, scheme: RoundingScheme, x, u=None):
    """Round x onto the grid; result is always one of the two neighbors.

    ``u`` (uniform in [0, 1)) is required for the stochastic scheme and
    ignored otherwise.  Stochastic rounding returns the upper neighbor iff
    ``u < (x - lo) / (hi - lo)``.
    """
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    lo, hi = grid.neighbors(x)
    on_grid = lo == hi

    if scheme is RoundingScheme.TOWARD_ZERO:
        out = np.where(x >= 0.0, lo, hi)
    elif scheme is RoundingScheme.AWAY_FROM_ZERO:
        out = np.where(x >= 0.0, hi, lo)
    elif scheme is RoundingScheme.NEAREST:
        d_lo = x - lo
        d_hi = hi - x
        out = np.where(d_lo < d_hi, lo, hi)
        # Ties go to the neighbor of larger magnitude; an exactly
        # zero-centered tie (measure zero) resolves to the upper neighbor.
        tie = d_lo == d_hi
        out = np.where(tie & (np.abs(lo) > np.abs(hi)), lo, out)
    elif scheme is RoundingScheme.STOCHASTIC:
        if u is None:
            raise PreconditionError("stochastic rounding needs a uniform variate")
        u = np.asarray(u, dtype=float)
        p_up, _ = cell_fraction(x, lo, hi)
        out = np.where(u < p_up, hi, lo)
    else:  # pragma: no cover
        raise ConfigError(f"unknown scheme {scheme!r}")

    # On-grid points round to themselves; saturated queries collapse onto
    # the clamped neighbor (lo == hi == +/- top of a float system).
    out = np.where(on_grid, lo, out)
    return float(out) if scalar else out


def cell_fraction(x, lo, hi, out=None):
    """Position p = (x - lo) / (hi - lo) of x inside its cell [lo, hi], and
    the degenerate-cell mask (lo == hi: x on the grid or saturated).

    Stochastic rounding sends x to hi with probability p.  On a degenerate
    cell p is x - lo, which callers must not read as a probability.
    """
    width = hi - lo
    degenerate = width <= 0.0
    return np.divide(np.subtract(x, lo, out=out), np.where(degenerate, 1.0, width), out=out), degenerate


def _own(out, x, *args):
    """out and x for an in-place body, else a new array and a copy of x, broadcast."""
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (x, *args)))
        out, x = np.empty(shape), np.array(np.broadcast_to(x, shape), dtype=float)
    return out, x


def stoch_expectation(x, lo, hi, f_lo, f_hi, out=None):
    """E[f(rd(x))] = f(lo) (1 - p) + f(hi) p under stochastic rounding of x
    inside its cell [lo, hi], and f(lo) on a degenerate cell.

    ``f_lo`` and ``f_hi`` are f evaluated at the cell ends; all arguments
    broadcast against each other.  With ``out``, of x's shape, the result
    is written there and x is overwritten.
    """
    out, x = _own(out, x, lo, hi, f_lo, f_hi)
    # p in out, then f_lo (1 - p) in x and f_hi p in out
    p, degenerate = cell_fraction(x, lo, hi, out)
    np.multiply(f_lo, np.subtract(1.0, p, out=x), out=x)
    np.add(x, np.multiply(f_hi, p, out=out), out=out)
    if np.any(degenerate):
        np.copyto(out, f_lo, where=degenerate)
    return out


def err_power(rd, x, k: int, signed: bool, out=None):
    """err^k (``signed``) or |err|^k for the rounding error err = rd - x,
    written into ``out`` (of x's shape) if given, which overwrites x for k >= 3."""
    err = np.subtract(rd, x, out=out)
    if k % 2 and not signed:  # even powers need no abs
        err = np.abs(err, out=out)
    return int_power(err, k) if out is None else int_power(err, k, out, x)


def stoch_err_power(x, lo, hi, k: int, signed: bool, out=None, scratch=(None, None)):
    """E[err^k] (``signed``) or E|err|^k under stochastic rounding of x in its
    cell [lo, hi], in closed form, and the clamp error on a degenerate cell.

    With a = x - lo, b = hi - x and w = hi - lo, E[err^k] = (b (-a)^k + a b^k) / w
    = a b (b^(k-1) - (-a)^(k-1)) / w and E|err|^k = a b (b^(k-1) + a^(k-1)) / w.
    No 1 - p, whose digits are lost near hi, is formed: signed k = 1 is
    exactly 0, k = 2 is a b, and every power keeps its relative accuracy.
    With ``out``, of x's shape, the result is written there and x is
    overwritten; k >= 3 also overwrites ``scratch``, two arrays of x's shape.
    """
    width = hi - lo
    degenerate = width <= 0.0
    # the clamp error, taken before x is overwritten
    clamp = err_power(lo, x, k, signed) if np.any(degenerate) else None
    out, x = _own(out, x, width)
    if k == 0 or (k == 1 and signed):
        out.fill(1.0 if k == 0 else 0.0)
    else:
        a, b = np.subtract(x, lo, out=out), np.subtract(hi, x, out=x)
        if k == 2:
            np.multiply(a, b, out=out)
        else:
            ab = np.multiply(a, b, out=scratch[0])
            # b^(k-1) -/+ a^(k-1), each formed in place in turn, its running square in scratch[1]
            b, a = int_power(b, k - 1, b, scratch[1]), int_power(a, k - 1, a, scratch[1])
            (np.subtract if signed and k % 2 else np.add)(b, a, out=out)
            np.divide(np.multiply(ab, out, out=out), np.where(degenerate, 1.0, width), out=out)
    if clamp is not None:
        np.copyto(out, clamp, where=degenerate)
    return out
