"""Exact values of the per-cell oracle's integrals, from closed forms.

On each piece of the oracle's own partition the rounding error is a
polynomial in x, so an integral of a Weight (x - c)^m f(x) against an error
power or a rounded moment is a sum over pieces of sum_i a_i M_i, with M_i
the integral of (x - z0)^i f(x) over the piece, z0 a point of the model.
Each piece's rounding comes from the grid itself (``round_value`` at the
piece's midpoint, or its ``neighbors`` under stochastic rounding), which
gives exact doubles; the coefficients a_i are formed from them exactly, each
times the cell's width under stochastic rounding, then rounded once to DPS
digits, and the M_i come from a closed antiderivative G_i of each family:

* no model, and the uniform on [l, h]: x^(i+1) / (i + 1), over h - l;
* the normal, z = x - mu: G_0 = Phi(z / s), and G_i = (i - 1) s^2 G_(i-2)
  - s^2 z^(i-1) f(x), which is I_i = mu I_(i-1) + (i - 1) s^2 I_(i-2) -
  s^2 [x^(i-1) f] taken about mu;
* the exponential: the incomplete gamma function, G_i = -(i! / lam^i)
  e^(-lam x) sum_(n <= i) (lam x)^n / n!;
* the semicircle, z = x - mu = r sin(t): G_i = (2 / (pi r^2)) r^(i+2) times
  the integral of sin^i cos^2 = sin^i - sin^(i+2), by the reduction
  S_n = -sin^(n-1) cos / n + (n - 1) / n S_(n-2).

The call returns the exact integral, the sum over pieces of the absolute
value of each piece's integral, and ``slack``, a bound on the reference's
own rounding: 10^(10 - DPS) times the sum of |a_i| (|G_i(hi)| + |G_i(lo)|)
it combined, the 10^10 for the recurrences' growth; all three are mpmath
numbers.

    value, magnitude, slack = exact_integral(weight, grid, scheme, a, b, k=2)
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from roundmoments import oracle
from roundmoments.rounding import RoundingScheme, round_value

DPS = 50
# Bits that hold every integrand coefficient exactly: a product of at most
# nine differences of doubles within 2^-100 and 2^100 of each other.
EXACT_BITS = 2400


def _powers(x, n: int) -> list:
    """x^0 .. x^n."""
    out = [mpmath.mpf(1)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _linear_power(alpha, sign: int, k: int) -> list:
    """Coefficients of (alpha + sign z)^k in z, sign +1 or -1."""
    powers = _powers(alpha, k)
    return [math.comb(k, i) * sign ** i * powers[k - i] for i in range(k + 1)]


def _mul(p: list, q: list) -> list:
    out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _antiderivatives(model, z0, degree: int):
    """The function of a double x giving G_0..G_degree there: antiderivatives
    of (x - z0)^i f(x), f = 1 with no model."""
    if model is None or model.name == "uniform":
        scale = 1 if model is None else 1 / (mpmath.mpf(model.support[1]) - mpmath.mpf(model.support[0]))
        return lambda x: [scale * p / (i + 1) for i, p in enumerate(_powers(mpmath.mpf(x), degree + 1)[1:])]
    params = dict(model.params)
    if model.name == "normal":
        var = mpmath.mpf(params["sigma2"])
        norm, root = 1 / mpmath.sqrt(2 * mpmath.pi * var), mpmath.sqrt(2 * var)

        def normal(x):
            z = mpmath.mpf(x) - z0
            zf = norm * mpmath.exp(-z * z / (2 * var))
            g = [(1 + mpmath.erf(z / root)) / 2, -var * zf]
            for i in range(2, degree + 1):
                zf *= z
                g.append((i - 1) * var * g[i - 2] - var * zf)
            return g[: degree + 1]

        return normal
    if model.name == "exponential":
        lam = mpmath.mpf(params["lambda"])

        def exponential(x):
            # -e^(-y) sum_(n <= i) y^n / n! times i! / lam^i, y = lam x, term by term
            y = lam * mpmath.mpf(x)
            term, total, scale, g = -mpmath.exp(-y), 0, 1, []
            for i in range(degree + 1):
                if i:
                    term, scale = term * y / i, scale * i / lam
                total += term
                g.append(scale * total)
            return g

        return exponential
    if model.name == "semicircle":
        r = mpmath.mpf(params["r"])
        scales = [2 / (mpmath.pi * r * r) * p for p in _powers(r, degree + 2)[2:]]

        def semicircle(x):
            z = mpmath.mpf(x) - z0
            sin, cos = z / r, mpmath.sqrt(r * r - z * z) / r
            s, power = [mpmath.asin(sin), -cos], 1
            for n in range(2, degree + 3):
                power *= sin
                s.append((-power * cos + (n - 1) * s[n - 2]) / n)
            return [scale * (s[i] - s[i + 2]) for i, scale in enumerate(scales)]

        return semicircle
    raise ValueError(f"no closed form for {model.name}")


def _center(model):
    """The point z0 each family's moments are taken about."""
    return mpmath.mpf(0) if model is None or model.name in ("uniform", "exponential") else mpmath.mpf(model.mean)


def _pieces(model, grid, scheme: RoundingScheme, a: float, b: float):
    """The oracle's pieces of [a, b] for ``model``, sorted, after checking
    that they tile [a, b] clipped to the model's support."""
    chunks = list(oracle._chunks(model, grid, scheme, a, b))
    if not chunks:
        return np.empty(0), np.empty(0)
    lo = np.concatenate([c[0] for c in chunks])
    hi = np.concatenate([c[1] for c in chunks])
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    ends = (a, b) if model is None else (max(a, model.support[0]), min(b, model.support[1]))
    assert (lo[0], hi[-1]) == ends and np.array_equal(lo[1:], hi[:-1]) and np.all(lo < hi)
    return lo, hi


def _integrand(c_lo: float, c_hi: float, mid: float, z0, k, signed: bool, j, shift) -> tuple:
    """Coefficients in z = x - z0 of w err^k (or w |err|^k), or of
    w E[(rd - shift)^j], and w, on the piece of midpoint ``mid`` whose
    rounding takes it to c_lo or c_hi: w = c_hi - c_lo, or 1 where they are
    equal (one target).  Each is a sum of products of doubles, so it is
    exact at the working precision of EXACT_BITS."""
    lo, hi = mpmath.mpf(c_lo), mpmath.mpf(c_hi)
    if j is not None:  # (rd - shift)^j at each end
        ends = [(c - mpmath.mpf(shift)) ** j for c in (lo, hi)]
        if c_lo == c_hi:
            return [ends[0]], 1
        # the upper end with probability (x - c_lo) / w: w E = (c_hi - x) f_lo + (x - c_lo) f_hi
        return _add([(hi - z0) * ends[0], -ends[0]], [(z0 - lo) * ends[1], ends[1]]), hi - lo
    # err = c - x = (c - z0) - z at each end
    powers = [_linear_power(c - z0, -1, k) for c in (lo, hi)]
    if c_lo == c_hi:
        sign = -1 if not signed and k % 2 and c_lo < mid else 1
        return [sign * v for v in powers[0]], 1
    if not signed and k % 2:  # |err|^k = (x - c_lo)^k below
        powers[0] = [-v for v in powers[0]]
    return _add(_mul([hi - z0, -1], powers[0]), _mul([z0 - lo, 1], powers[1])), hi - lo


def exact_integral(weight, grid, scheme: RoundingScheme, a: float, b: float, k: int | None = None,
                   signed: bool = False, j: int | None = None, shift: float = 0.0):
    """The exact integral of ``weight`` (an oracle.Weight) times err^k (or
    |err|^k), or with ``j`` given times E[(rd - shift)^j], over [a, b] on
    the oracle's own pieces, and the sum of its pieces' absolute values."""
    model = weight.model
    with mpmath.workdps(DPS):
        z0 = _center(model)
        lo, hi = _pieces(model, grid, scheme, a, b)
        mid = 0.5 * (lo + hi)
        if scheme is RoundingScheme.STOCHASTIC:
            ends = grid.neighbors(mid)
        else:
            ends = (round_value(grid, scheme, mid),) * 2
        with mpmath.workprec(EXACT_BITS):
            # the weight's factor (x - center)^power in z, times each piece's integrand
            factor = _linear_power(z0 - mpmath.mpf(weight.center), 1, weight.power)
            rows = [(_mul(factor, row), w) for row, w in (_integrand(*piece, z0, k, signed, j, shift)
                                                          for piece in zip(*(e.tolist() for e in ends), mid.tolist()))]
        rows = [[c / w for c in row] for row, w in rows]
        at = _antiderivatives(model, z0, max((len(row) - 1 for row in rows), default=0))
        g = {x: at(x) for x in {*lo.tolist(), *hi.tolist()}}
        sizes = {x: [abs(v) for v in values] for x, values in g.items()}
        terms, slack = [], []
        for row, x_lo, x_hi in zip(rows, lo.tolist(), hi.tolist()):
            terms.append(mpmath.fdot(row, [g_hi - g_lo for g_hi, g_lo in zip(g[x_hi], g[x_lo])]))
            reach = [s_hi + s_lo for s_hi, s_lo in zip(sizes[x_hi], sizes[x_lo])]
            slack.append(mpmath.fdot([abs(c) for c in row], reach))
        return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms), mpmath.mpf(10) ** (10 - DPS) * mpmath.fsum(slack)
