"""Continuous distribution models feeding the bound engine.

Each model carries a vectorized density, its support, a declared mode, a
quantile for inverse-transform sampling, and moment oracles.  A model is
checked once, when it is made (by a ``make_*`` constructor or by
``dataclasses.replace``): its parameters must be resolvable and its density
must be unimodal about the declared mode.  Raw and central moments are
analytic for the built-in families; absolute and mixed absolute moments
fall back to adaptive quadrature split at their kinks.  Every such integral,
and those of ``Envelope`` and ``SymmetricSplit``, runs over the model's
finite ``moment_range``, so it scales exactly with the units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, PreconditionError
from .grids import UniformMesh
from .quadrature import adaptive_quad

_MASS_TOL = 1e-18
_T33 = np.arange(33.0)  # scan_max's rescan points, before scaling


@dataclass(frozen=True)
class DensityModel:
    name: str
    params: tuple
    support: tuple[float, float]
    mode: float
    mean: float
    variance: float
    _pdf: Callable  # _pdf(x, out) writes the density at x into out (which may be x) and returns it
    _quantile: Callable
    _raw_moment: Callable[[int], float]
    _central_moment: Callable[[int], float]
    _abs_central_first: float  # E|X - mean|
    # ellipse_log_bound(lo, hi, h, a, b): log(sup|f(z)| / peak), free of units,
    # on the Bernstein ellipses {m + h (a cos t + i b sin t)} for m in [lo, hi]
    # of f continued from a piece that straddles no jump and keeps clear of
    # the branch points, a = (rho + 1/rho)/2 and b = (rho - 1/rho)/2
    ellipse_log_bound: Callable
    branch_points: tuple = ()  # (lo, hi): f is analytic between them, not at them
    jumps: tuple = ()  # past each, f continues as another entire function
    # not an init field, so a dataclasses.replace copy starts empty
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Raise ConfigError unless the peak and variance are positive and
        finite and the mean is a finite double fine enough to resolve the
        spread; then PreconditionError if a 21-point probe on either side of
        the mode finds the density rising where it should fall."""
        peak = self.peak
        if not (0.0 < peak < math.inf and 0.0 < self.variance < math.inf and math.isfinite(self.mean)):
            raise ConfigError(f"{self.name} parameters {dict(self.params)} over- or underflow its peak, mean or variance")
        # One ulp of error in x costs at most about 1e-12 relative at a smooth
        # peak while ulp(mean) <= 2^-20 sd; coarser doubles make scans step over
        # the peak (near 1e17 they are 16 apart).
        if math.ulp(self.mean) > 2.0 ** -20 * math.sqrt(self.variance):
            raise ConfigError(f"{self.name} mean {self.mean!r} is too coarse a double for its variance {self.variance!r}")
        lo, hi = self.effective_range()
        slack = 1e-9 * peak
        if self.mode > lo and np.any(np.diff(self.density(np.linspace(lo, self.mode, 21))) < -slack):
            raise PreconditionError("density decreases left of the declared mode")
        if hi > self.mode and np.any(np.diff(self.density(np.linspace(self.mode, hi, 21))) > slack):
            raise PreconditionError("density increases right of the declared mode")

    def density(self, x, out=None):
        """The density at x, written into ``out`` (a new array if None)."""
        x = np.asarray(x, dtype=float)
        return self._pdf(x, np.empty(x.shape) if out is None else out)

    def quantile(self, u):
        return self._quantile(np.asarray(u, dtype=float))

    @property
    def peak(self) -> float:
        if "peak" not in self._cache:
            self._cache["peak"] = float(self.density(self.mode))
        return self._cache["peak"]

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
        # computed once: verify and sweep ask for it hundreds of times per
        # model, and a vectorized quantile costs ~100 us on a scalar
        if "er" not in self._cache:
            lo, hi = self.support
            pad = 4.0 * math.sqrt(self.variance)
            if math.isinf(lo):
                lo = float(self.quantile(_MASS_TOL)) - pad
            if math.isinf(hi):
                # quantile resolution saturates near u = 1; pad past it
                hi = float(self.quantile(1.0 - 1e-16)) + pad
            self._cache["er"] = (lo, hi)
        return self._cache["er"]

    def moment_range(self, p: int) -> tuple[float, float]:
        """The finite range of every integral against a weight of degree p
        (|x - a|^m |x|^n, m + n = p): ``effective_range()`` widened by 2p
        sd on each unbounded side.

        The weight moves mass outward: the plain range drops 2.5e-4 of an
        exponential's E[X^20] and 4.9% of its E[X^30].  With Q the
        regularized upper incomplete gamma function, a normal keeps a share
        Q((p + 1)/2, T^2/2) of E|X - mean|^p beyond T sd on each side, and
        an exponential a share Q(p + 1, y) of E[X^p] beyond y/lambda.  The
        widened range has T = 12.2 + 2p and y = 40.7 + 2p, where the shares
        are below 3e-34 and 1.1e-15 (largest near p = 12) for every p up to
        1000.  Both ends scale exactly with the units, and so does every
        integral over them.
        """
        lo, hi = self.effective_range()
        pad = 2.0 * p * math.sqrt(self.variance)
        s_lo, s_hi = self.support
        return (lo - pad if math.isinf(s_lo) else lo, hi + pad if math.isinf(s_hi) else hi)

    def abs_mixed_moment(self, m: int, n: int, about: float) -> float:
        """E[|X - about|^m |X|^n]; analytic for m = n = 0 and for E|X - mean|."""
        if m == 0 and n == 0:
            return 1.0
        if m == 1 and n == 0 and about == self.mean:
            return self._abs_central_first
        key = ("amm", m, n, about)
        if key not in self._cache:

            def product(x):
                pdf = self._pdf(x, np.empty_like(x))
                dx, ax = np.abs(x - about), np.abs(x)
                out = dx ** m * ax ** n * pdf
                # where a power overflows and the density is tiny (or 0), the
                # product in logs, so only a moment past a double's range is inf
                big = ~np.isfinite(out)
                logs = np.log(pdf[big])
                for p, v in ((m, dx), (n, ax)):
                    if p:
                        logs += p * np.log(v[big])
                out[big] = np.exp(logs)
                return out

            breakpoints = (0.0, about) if n else (about,)  # |x|^0 has no kink at 0
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, _ = adaptive_quad(product, *self.moment_range(m + n), breakpoints=breakpoints)
            self._cache[key] = value
        return self._cache[key]

    def sup_centered_weight(self) -> float:
        """sup over x of |x - mean| * f(x), by scan plus local refinement."""
        if "scw" not in self._cache:
            mu = self.mean
            w = lambda x: np.abs(x - mu) * self._pdf(x, np.empty_like(x))
            self._cache["scw"] = scan_max(w, *self.effective_range(), extra=(mu,))
        return self._cache["scw"]


def scan_max(f, lo: float, hi: float, extra=(), n: int = 4001) -> float:
    """Largest sampled value of a vectorized f over [lo, hi].

    Samples n even points (plus ``extra``), then rescans 33 even points
    between the two samples around the best value so far.  It stops when
    those two samples are adjacent doubles (or one point, as when lo == hi)
    or when the bracket stops shrinking.  No shape of f is assumed, so a
    peak on a kink is reached as surely as a smooth one.  Every rescan's
    points are exactly ``np.linspace(a, b, 33)``, formed as linspace forms
    them without its per-call setup.
    """
    xs = np.linspace(lo, hi, n)
    if extra:
        xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
        xs = xs[(xs >= lo) & (xs <= hi)]
    best = -math.inf
    width = math.inf
    while True:
        ys = np.asarray(f(xs))
        i = int(ys.argmax())
        best = max(best, float(ys[i]))
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])
        if math.nextafter(a, b) >= b or not b - a < width:
            return best
        width = b - a
        step = (b - a) / 32.0
        # where a subnormal bracket's step underflows to 0, linspace divides first
        xs = _T33 * step + a if step else np.linspace(a, b, 33)
        xs[-1] = b


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

    def pdf(x, out):
        # |t| >= r makes r r - t t <= 0, so fmax gives 0 there, and for NaN
        t = np.subtract(x, mu, out=out)
        np.fmax(np.subtract(r * r, np.multiply(t, t, out=out), out=out), 0.0, out=out)
        return np.multiply(np.sqrt(out, out=out), coef, out=out)

    def quantile(u):
        # With x = mu + r sin(theta), the CDF is 1/2 + (2 theta + sin 2theta)/(2 pi).
        # The mass w = min(u, 1 - u) beyond x on its near side then satisfies
        # g(psi) = psi - sin(psi) - z = 0 exactly, with z = 2 pi w and
        # psi = pi - 2|theta| in [0, pi], and x = mu -/+ r sin((pi - psi)/2)
        # by the sign of u - 1/2 (exactly mu at u = 1/2).  Halley's method
        # starts from the smaller of g's small-psi root cbrt(6z) and its
        # tangent root at psi = pi, and converges in 3 steps to a few ulps
        # (the fourth is margin).  With s, c the
        # sine and cosine of psi/2, g' = 1 - cos(psi) = 2 s^2 has no
        # cancellation and g''/g' = c/s; dividing by g' before multiplying
        # keeps the step from underflowing at psi ~ 1e-108 (u = 5e-324).
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        z = 2.0 * math.pi * np.minimum(u, 1.0 - u)
        psi = np.minimum(np.cbrt(6.0 * z), 0.5 * (math.pi + z))
        with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 at z = 0, replaced below
            for _ in range(4):
                s, c = np.sin(0.5 * psi), np.cos(0.5 * psi)
                newton = (psi - 2.0 * s * c - z) / (2.0 * s * s)
                psi = psi - newton / (1.0 - 0.5 * newton * c / s)
        half = r * np.sin(0.5 * (math.pi - np.where(z > 0.0, psi, 0.0)))
        return np.where(u < 0.5, mu - half, mu + half)

    def central(k):
        if k % 2:
            return 0.0
        j = k // 2
        return r ** k * _catalan(j) / 4.0 ** j

    return DensityModel(
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
        # |r^2 - t^2| <= (r + |t|)^2 at t = z - mu
        ellipse_log_bound=lambda lo, hi, h, a, b: np.log1p((np.maximum(np.abs(lo - mu), np.abs(hi - mu)) + h * a) / r),
        branch_points=(mu - r, mu + r),
    )


# Wichura, AS 241 (Applied Statistics 37:477-484, 1988), PPND16: numerator
# and denominator coefficients, highest power first, evaluated by Horner's
# rule (np.polyval) in the order of the standard library's
# statistics.NormalDist.inv_cdf.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e+0,
     3.64784832476320460504e+0, 5.76949722146069140550e+0, 4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e+0, 2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0, 5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0),
)


def _std_normal_quantile(p):
    """Standard normal quantile of p in (0, 1), AS 241 on each of its three
    branches: |p - 1/2| <= 0.425, then the tails by r = sqrt(-log(min(p,
    1 - p))) <= 5 or beyond."""
    q = p - 0.5
    z = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    num, den = _AS241_CENTRAL
    rc = 0.180625 - qc * qc
    z[central] = np.polyval(num, rc) * qc / np.polyval(den, rc)
    tail = ~central
    r = np.sqrt(-np.log(np.where(q[tail] <= 0.0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    zt = np.empty_like(r)
    for mask, (num, den), shift in ((near, _AS241_NEAR, 1.6), (~near, _AS241_FAR, 5.0)):
        rs = r[mask] - shift
        zt[mask] = np.polyval(num, rs) / np.polyval(den, rs)
    z[tail] = np.where(q[tail] < 0.0, -zt, zt)
    return z


def make_normal(mu: float, sigma2: float) -> DensityModel:
    if not sigma2 > 0.0:
        raise ConfigError("variance must be positive")
    sigma = math.sqrt(sigma2)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)

    def pdf(x, out):
        t = np.divide(np.subtract(x, mu, out=out), sigma, out=out)
        # t t (-0.5) equals (-0.5 t) t: scaling by 2^-1 is exact, and else both exps are 1 or 0
        np.multiply(np.multiply(t, t, out=out), -0.5, out=out)
        return np.multiply(np.exp(out, out=out), norm, out=out)

    def quantile(u):
        z = _std_normal_quantile(np.clip(np.asarray(u, dtype=float), 1e-300, 1.0 - 1e-16))
        return mu + z * sigma

    def central(k):
        if k % 2:
            return 0.0
        # (k-1)!! * sigma^k
        val = 1.0
        for i in range(1, k, 2):
            val *= i
        return val * sigma ** k

    return DensityModel(
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
        # |exp(-(z - mu)^2 / 2 sigma2)| = exp((Im^2 - Re^2) / 2 sigma2), |Im| <= h b and |Re| >= the distance below
        ellipse_log_bound=lambda lo, hi, h, a, b: (
            np.square(h * b) - np.square(np.maximum(np.maximum(lo - mu, mu - hi) - h * a, 0.0))) / (2.0 * sigma2),
    )


def make_exponential(lam: float) -> DensityModel:
    if not 0.0 < lam < math.inf or lam * lam == 0.0:  # the variance divides by lam^2
        raise ConfigError(f"rate must be positive and finite with a nonzero square, got {lam!r}")

    def pdf(x, out):
        outside = ~(x >= 0.0)
        np.multiply(np.exp(np.multiply(np.maximum(x, 0.0, out=out), -lam, out=out), out=out), lam, out=out)
        np.copyto(out, 0.0, where=outside)
        return out

    def quantile(u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0 - 1e-16)
        return -np.log1p(-u) / lam

    def central(k):
        # E[(X - 1/lam)^k] = derangements(k) / lam^k
        d = 1
        for i in range(1, k + 1):
            d = i * d + (-1) ** i
        return d / lam ** k

    return DensityModel(
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
        # lam exp(-lam z) right of 0, where Re z >= max(lo, 0) - h a, and 0 left of it
        ellipse_log_bound=lambda lo, hi, h, a, b: lam * (h * a - np.maximum(lo, 0.0)),
        jumps=(0.0,),
    )


def make_uniform(lo: float, hi: float) -> DensityModel:
    if not lo < hi:
        raise ConfigError("need lo < hi")
    w = hi - lo
    dens = 1.0 / w
    mid = 0.5 * (lo + hi)

    def pdf(x, out):
        return np.multiply((x >= lo) & (x <= hi), dens, out=out)

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
    return DensityModel(
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
        ellipse_log_bound=lambda lo_, hi_, h, a, b: 0.0,  # the peak on [lo, hi] and 0 off it
        jumps=(lo, hi),
    )


@dataclass(frozen=True)
class Envelope:
    """Radially non-increasing majorant of a unimodal density.

    f_hat(x) equals the peak below |mode| and max{f(x), f(-x)} beyond it, so
    f_hat dominates the density at +/-x for every x >= 0.
    """

    model: DensityModel

    def weighted_integral(self, k: int) -> float:
        """Integral of x^k f_hat(x) over x >= 0."""
        f = self.model.density
        ax = abs(self.model.mode)
        head = self.model.peak * ax ** (k + 1) / (k + 1.0)
        cuts = [abs(v) for v in self.model.moment_range(k)]
        tail, _ = adaptive_quad(lambda x: x ** k * np.maximum(f(x), f(-x)), ax, max(cuts), breakpoints=cuts)
        return head + tail


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
        both = np.array([x, 2.0 * self.center - x])
        f = self.model.density(both, out=both)
        return np.maximum(f[0] - f[1], 0.0)

    def h_integral(self, j: int, lo: float, hi: float) -> float:
        """Integral of x^j h(x) over [lo, hi]."""
        r_lo, r_hi = self.model.moment_range(j)
        cuts = (r_lo, r_hi, 2.0 * self.center - r_lo, 2.0 * self.center - r_hi, self.center, 0.0)
        val, _ = adaptive_quad(lambda x: x ** j * self.h(x), lo, hi, breakpoints=cuts)
        return val

    def bump_sup_sum(self) -> float:
        """Sum of per-bump suprema of h, cached on the model per exact center.

        The cancellation bound charges one cell-integral term per connected
        level-set interval, so h with several bumps (a decreasing density
        split about a positive center, say) pays once per bump.
        """
        key = ("bump_sup_sum", self.center)
        if key not in self.model._cache:
            self.model._cache[key] = self._scan_bumps()
        return self.model._cache[key]

    def _scan_bumps(self) -> float:
        model, center = self.model, self.center
        lo, hi = model.effective_range()
        span_lo = min(lo, 2.0 * center - hi)
        span_hi = max(hi, 2.0 * center - lo)
        xs = np.linspace(span_lo, span_hi, 4001)
        # the mode too: once the span is many supports wide, the even samples
        # can all miss a density that is 0 at both ends (a semicircle)
        extras = np.asarray(sorted({lo, hi, 2.0 * center - lo, 2.0 * center - hi, center, model.mode}))
        extras = extras[(extras >= span_lo) & (extras <= span_hi)]
        at = np.searchsorted(xs, extras)
        new = xs[np.minimum(at, xs.size - 1)] != extras
        xs = np.insert(xs, at[new], extras[new])
        ys = self.h(xs)
        top = float(ys.max())
        if top <= 0.0:
            return 0.0
        # bumps are the runs of samples above the threshold: [start, stop)
        active = np.concatenate([[False], ys > 1e-9 * top, [False]])
        starts, stops = np.flatnonzero(np.diff(active)).reshape(-1, 2).T
        total = 0.0
        for i, j in zip(starts, stops):
            seg_max = float(ys[i:j].max())
            # refine the bump peak so the scan cannot undercut the true supremum
            a = xs[max(i - 1, 0)]
            b = xs[min(j, xs.size - 1)]
            total += max(seg_max, scan_max(self.h, a, b, n=257))
        return total


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

