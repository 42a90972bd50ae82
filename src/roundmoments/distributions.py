"""Continuous distribution models feeding the bound engine.

Each model carries a vectorized density, its support, a declared mode (the
unimodality hypothesis is declared by constructors, not inferred), a
quantile for inverse-transform sampling, and moment oracles.  Raw and
central moments are analytic for the built-in families; absolute and mixed
absolute moments fall back to adaptive quadrature split at their kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import ConfigError, NotUnimodalError
from .grids import UniformMesh, config_number
from .quadrature import adaptive_quad

_MASS_TOL = 1e-18


@dataclass(frozen=True)
class DensityModel:
    name: str
    params: tuple
    support: tuple[float, float]
    mode: float
    mean: float
    variance: float
    _pdf: Callable
    _quantile: Callable
    _raw_moment: Callable[[int], float]
    _central_moment: Callable[[int], float]
    _abs_central_first: float  # E|X - mean|
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def density(self, x):
        return self._pdf(np.asarray(x, dtype=float))

    def quantile(self, u):
        return self._quantile(np.asarray(u, dtype=float))

    @property
    def peak(self) -> float:
        return float(self.density(self.mode))

    def raw_moment(self, k: int) -> float:
        if k < 0:
            raise ConfigError("moment order must be >= 0")
        return self._raw_moment(k)

    def central_moment(self, k: int) -> float:
        if k < 0:
            raise ConfigError("moment order must be >= 0")
        return self._central_moment(k)

    def effective_range(self) -> tuple[float, float]:
        """Finite window carrying all but ~1e-18 of the mass."""
        lo, hi = self.support
        pad = 4.0 * math.sqrt(self.variance)
        if math.isinf(lo):
            lo = float(self.quantile(_MASS_TOL)) - pad
        if math.isinf(hi):
            # quantile resolution saturates near u = 1; pad past it
            hi = float(self.quantile(1.0 - 1e-16)) + pad
        return lo, hi

    def _quad(self, f, breakpoints=()) -> float:
        lo, hi = self.support
        val, _ = adaptive_quad(f, lo, hi, rtol=1e-12, breakpoints=breakpoints)
        return val

    def abs_mixed_moment(self, m: int, n: int, about: float) -> float:
        """E[|X - about|^m |X|^n]; analytic for m = n = 0 and for E|X - mean|."""
        if m == 0 and n == 0:
            return 1.0
        if m == 1 and n == 0 and about == self.mean:
            return self._abs_central_first
        key = ("amm", m, n, about)
        if key not in self._cache:
            # |x|^0 has no kink at 0
            self._cache[key] = self._quad(
                lambda x: np.abs(x - about) ** m * np.abs(x) ** n * self._pdf(x),
                breakpoints=(0.0, about) if n else (about,),
            )
        return self._cache[key]

    def sup_centered_weight(self) -> float:
        """sup over x of |x - mean| * f(x), by scan plus local refinement."""
        if "scw" not in self._cache:
            mu = self.mean
            w = lambda x: np.abs(x - mu) * self._pdf(x)
            self._cache["scw"] = scan_max(w, *self.effective_range(), extra=(mu,))
        return self._cache["scw"]


def scan_max(f, lo: float, hi: float, extra=(), n: int = 4001) -> float:
    """Maximum of a vectorized f over [lo, hi]: the best of n even points
    (plus ``extra``), refined by golden-section search around it."""
    xs = np.linspace(lo, hi, n)
    if extra:
        xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
        xs = xs[(xs >= lo) & (xs <= hi)]
    ys = np.asarray(f(xs))
    i = int(np.argmax(ys))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, xs.size - 1)]
    # golden-section refinement inside the bracketing pair
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = float(f(np.asarray(c))), float(f(np.asarray(d)))
    for _ in range(80):
        # one probe carries over from the previous step with its value
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = float(f(np.asarray(c)))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = float(f(np.asarray(d)))
    x_best = 0.5 * (a + b)
    return max(float(ys[i]), float(f(np.asarray(x_best))))


def _checked(model: DensityModel) -> DensityModel:
    """The model, if its peak and variance are positive and finite and its
    mean is a finite double fine enough to resolve its spread."""
    if not (0.0 < model.peak < math.inf and 0.0 < model.variance < math.inf and math.isfinite(model.mean)):
        raise ConfigError(f"{model.name} parameters {dict(model.params)} over- or underflow its peak, mean or variance")
    # One ulp of error in x costs at most about 1e-12 relative at a smooth
    # peak while ulp(mean) <= 2^-20 sd; coarser doubles make scans step over
    # the peak (near 1e17 they are 16 apart).
    if math.ulp(model.mean) > 2.0 ** -20 * math.sqrt(model.variance):
        raise ConfigError(f"{model.name} mean {model.mean!r} is too coarse a double for its variance {model.variance!r}")
    return model


def _catalan(j: int) -> int:
    return math.comb(2 * j, j) // (j + 1)


def _raw_from_central(k: int, mean: float, central: Callable[[int], float]) -> float:
    return sum(
        math.comb(k, i) * mean ** (k - i) * central(i) for i in range(k + 1)
    )


def make_semicircle(r: float, mu: float = 0.0) -> DensityModel:
    """Semicircle law of radius r centered at mu."""
    if not (r > 0.0 and 0.0 < r * r < math.inf):  # the density divides by r^2
        raise ConfigError(f"radius must be positive with a finite nonzero square, got {r!r}")
    coef = 2.0 / (math.pi * r * r)

    def pdf(x):
        t = x - mu
        inside = np.abs(t) < r
        return np.where(inside, coef * np.sqrt(np.maximum(r * r - t * t, 0.0)), 0.0)

    def cdf(x):
        t = np.clip(x - mu, -r, r)
        return 0.5 + (t * np.sqrt(r * r - t * t)) / (math.pi * r * r) + np.arcsin(t / r) / math.pi

    def quantile(u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        lo = np.full_like(u, mu - r)
        hi = np.full_like(u, mu + r)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            go_up = cdf(mid) < u
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        return 0.5 * (lo + hi)

    def central(k):
        if k % 2:
            return 0.0
        j = k // 2
        return r ** k * _catalan(j) / 4.0 ** j

    return _checked(DensityModel(
        name="semicircle",
        params=(("r", r), ("mu", mu)),
        support=(mu - r, mu + r),
        mode=mu,
        mean=mu,
        variance=r * r / 4.0,
        _pdf=pdf,
        _quantile=quantile,
        _raw_moment=lambda k: _raw_from_central(k, mu, central),
        _central_moment=central,
        _abs_central_first=4.0 * r / (3.0 * math.pi),
    ))


def make_normal(mu: float, sigma2: float) -> DensityModel:
    if not sigma2 > 0.0:
        raise ConfigError("variance must be positive")
    sigma = math.sqrt(sigma2)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    dist = NormalDist(mu, sigma)

    def pdf(x):
        t = (x - mu) / sigma
        return norm * np.exp(-0.5 * t * t)

    def quantile(u):
        u = np.clip(np.asarray(u, dtype=float), 1e-300, 1.0 - 1e-16)
        flat = u.ravel()
        out = np.fromiter((dist.inv_cdf(v) for v in flat), dtype=float, count=flat.size)
        return out.reshape(u.shape)

    def central(k):
        if k % 2:
            return 0.0
        # (k-1)!! * sigma^k
        val = 1.0
        for i in range(1, k, 2):
            val *= i
        return val * sigma ** k

    return _checked(DensityModel(
        name="normal",
        params=(("mu", mu), ("sigma2", sigma2)),
        support=(-math.inf, math.inf),
        mode=mu,
        mean=mu,
        variance=sigma2,
        _pdf=pdf,
        _quantile=quantile,
        _raw_moment=lambda k: _raw_from_central(k, mu, central),
        _central_moment=central,
        _abs_central_first=sigma * math.sqrt(2.0 / math.pi),
    ))


def make_exponential(lam: float) -> DensityModel:
    if not lam > 0.0 or lam * lam == 0.0:  # the variance divides by lam^2
        raise ConfigError(f"rate must be positive with a nonzero square, got {lam!r}")

    def pdf(x):
        xc = np.maximum(x, 0.0)
        return np.where(x >= 0.0, lam * np.exp(-lam * xc), 0.0)

    def quantile(u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0 - 1e-16)
        return -np.log1p(-u) / lam

    def central(k):
        # E[(X - 1/lam)^k] = derangements(k) / lam^k
        d = 1
        for i in range(1, k + 1):
            d = i * d + (-1) ** i
        return d / lam ** k

    return _checked(DensityModel(
        name="exponential",
        params=(("lambda", lam),),
        support=(0.0, math.inf),
        mode=0.0,
        mean=1.0 / lam,
        variance=1.0 / (lam * lam),
        _pdf=pdf,
        _quantile=quantile,
        _raw_moment=lambda k: math.factorial(k) / lam ** k,
        _central_moment=central,
        _abs_central_first=2.0 / (math.e * lam),
    ))


def make_uniform(lo: float, hi: float) -> DensityModel:
    if not lo < hi:
        raise ConfigError("need lo < hi")
    w = hi - lo
    dens = 1.0 / w
    mid = 0.5 * (lo + hi)

    def pdf(x):
        return np.where((x >= lo) & (x <= hi), dens, 0.0)

    def quantile(u):
        return lo + np.clip(np.asarray(u, dtype=float), 0.0, 1.0) * w

    def central(k):
        if k % 2:
            return 0.0
        return (w / 2.0) ** k / (k + 1.0)

    def raw(k):
        return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * w)

    # Flat densities expose the interval midpoint as their mode; any plateau
    # point yields the same radial envelope.
    return _checked(DensityModel(
        name="uniform",
        params=(("lo", lo), ("hi", hi)),
        support=(lo, hi),
        mode=mid,
        mean=mid,
        variance=w * w / 12.0,
        _pdf=pdf,
        _quantile=quantile,
        _raw_moment=raw,
        _central_moment=central,
        _abs_central_first=w / 4.0,
    ))


@dataclass(frozen=True)
class Envelope:
    """Radially non-increasing majorant of a unimodal density.

    f_hat(x) equals the peak below |mode| and max{f(x), f(-x)} beyond it, so
    f_hat dominates the density at +/-x for every x >= 0.
    """

    model: DensityModel
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def weighted_integral(self, k: int) -> float:
        """Integral of x^k f_hat(x) over x >= 0."""
        key = ("wi", k)
        if key not in self._cache:
            f = self.model.density
            ax = abs(self.model.mode)
            head = self.model.peak * ax ** (k + 1) / (k + 1.0)
            lo, hi = self.model.support
            upper = math.inf if math.isinf(hi) or math.isinf(lo) else max(abs(lo), abs(hi))
            cuts = [abs(v) for v in (lo, hi) if not math.isinf(v)]
            tail, _ = adaptive_quad(
                lambda x: x ** k * np.maximum(f(x), f(-x)),
                ax,
                upper,
                rtol=1e-12,
                breakpoints=cuts,
            )
            self._cache[key] = head + tail
        return self._cache[key]


def envelope(model: DensityModel) -> Envelope:
    """Build the radial envelope, probing the declared mode first.

    Raises NotUnimodal when a 21-point probe on either side of the mode
    finds the density rising where it should fall.
    """
    lo, hi = model.effective_range()
    slack = 1e-9 * max(model.peak, 1e-300)
    if model.mode > lo:
        xs = np.linspace(lo, model.mode, 21)
        ys = model.density(xs)
        if np.any(np.diff(ys) < -slack):
            raise NotUnimodalError("density decreases left of the declared mode")
    if hi > model.mode:
        xs = np.linspace(model.mode, hi, 21)
        ys = model.density(xs)
        if np.any(np.diff(ys) > slack):
            raise NotUnimodalError("density increases right of the declared mode")
    return Envelope(model)


@dataclass(frozen=True)
class SymmetricSplit:
    """Decomposition f = g + h with g even about the center.

    g(x) = min{f(x), f(2c - x)} is the largest sub-density symmetric about
    c; the remainder h = f - g = max{f(x) - f(2c - x), 0} is non-negative by
    construction.
    """

    model: DensityModel
    center: float

    def h(self, x):
        x = np.asarray(x, dtype=float)
        f = self.model.density
        return np.maximum(f(x) - f(2.0 * self.center - x), 0.0)

    def h_integral(self, j: int, lo: float, hi: float) -> float:
        """Integral of x^j h(x) over [lo, hi]."""
        s_lo, s_hi = self.model.support
        cuts = [v for v in (s_lo, s_hi, 2.0 * self.center - s_lo, 2.0 * self.center - s_hi, self.center, 0.0) if not math.isinf(v)]
        val, _ = adaptive_quad(lambda x: x ** j * self.h(x), lo, hi, rtol=1e-12, breakpoints=cuts)
        return val


def best_mesh_center(mesh: UniformMesh) -> float:
    """Mesh point or mesh midpoint nearest zero; always |c| <= half_gap / 2.

    Mesh points and midpoints together form a lattice of spacing half_gap,
    so the nearest-to-zero candidate is offset minus the nearest multiple
    of half_gap (exact halves resolve by round-half-to-even, either side
    attaining |c| = half_gap / 2).
    """
    d = mesh.half_gap
    c = mesh.offset - d * round(mesh.offset / d)
    return 0.0 if c == 0.0 else c


def parse_dist_config(obj: dict) -> DensityModel:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ConfigError("distribution config must be an object with a 'kind' field")
    try:
        if kind == "semicircle":
            return make_semicircle(config_number(obj["r"], "r"), config_number(obj.get("mu", 0.0), "mu"))
        if kind == "normal":
            return make_normal(config_number(obj["mu"], "mu"), config_number(obj["sigma2"], "sigma2"))
        if kind == "exponential":
            return make_exponential(config_number(obj["lambda"], "lambda"))
        if kind == "uniform":
            return make_uniform(config_number(obj["lo"], "lo"), config_number(obj["hi"], "hi"))
    except KeyError as exc:
        raise ConfigError(f"{kind} distribution config needs the key {exc.args[0]!r}") from None
    raise ConfigError(f"unknown distribution kind {kind!r}")
