"""The analytic bound engine.

Every bound is emitted as a :class:`BoundReport` that splits the total into
a leading term and a higher-order term (each tagged coefficient * base^power)
so callers can study asymptotics.  Tiers label how much structure the bound
assumes: A needs only the worst-case error model, B adds round-to-nearest
(or stochastic) cancellation, C adds uniform spacing with unknown offset,
and D a known offset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .distributions import (
    DensityModel,
    SymmetricSplit,
    best_mesh_center,
    envelope,
    scan_max,
)
from .errors import (
    BadOrderError,
    ConfigError,
    DivergentMomentError,
    InfeasibleBudgetError,
    PreconditionError,
    SymmetryUnavailableError,
)
from .grids import FloatSystem, UniformMesh
from .quadrature import adaptive_quad
from .rounding import CANCELLING_SCHEMES, RoundingScheme, scheme_constants, scheme_eps_delta

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True)
class BoundTerm:
    """One bound contribution, coef * base^power."""

    coef: float
    power: int
    base: float

    @property
    def value(self) -> float:
        return self.coef * self.base ** self.power


@dataclass(frozen=True)
class BoundReport:
    value: float
    leading: BoundTerm
    higher_order: BoundTerm
    theorem: str
    tier: str | None
    mode: str
    notes: tuple[str, ...] = ()
    two_sided: tuple[float, float] | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        out["notes"] = list(self.notes)
        # re-emitted last, and only when set, as {"center", "radius"}
        if out.pop("two_sided") is not None:
            out["two_sided"] = {"center": self.two_sided[0], "radius": self.two_sided[1]}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BoundReport":
        ts = obj.get("two_sided")
        return cls(**{
            **obj,
            "leading": BoundTerm(**obj["leading"]),
            "higher_order": BoundTerm(**obj["higher_order"]),
            "notes": tuple(obj["notes"]),
            "two_sided": (ts["center"], ts["radius"]) if ts is not None else None,
        })


def _report(leading, higher, theorem, tier=None, mode=ADDITIVE, notes=()):
    try:
        value = leading.value + higher.value
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{theorem} bound overflows a double at base {leading.base!r}")
    return BoundReport(
        value=value,
        leading=leading,
        higher_order=higher,
        theorem=theorem,
        tier=tier,
        mode=mode,
        notes=tuple(notes),
    )


def _check_mode(mode: str):
    if mode not in (MULTIPLICATIVE, ADDITIVE):
        raise ConfigError(f"mode must be {MULTIPLICATIVE!r} or {ADDITIVE!r}")


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise DivergentMomentError(f"{what} is not finite")
    return x


def strong_bound(model: DensityModel, n: int, mode: str, eps_or_delta: float) -> BoundReport:
    """First-order bound on E|rd(X) - X|^n: the plain mixed-moment bound at
    m = 0 about 0.

    Multiplicative: E|X|^n * eps^n.  Additive: delta^n, model-free.
    """
    if n < 1:
        raise ConfigError("n must be a positive integer")
    report = mixed_moment_bound(model, 0.0, 0, n, mode, eps_or_delta)
    return replace(report, theorem="strong_convergence")


def mixed_moment_bound(
    model: DensityModel,
    mu0: float,
    m: int,
    n: int,
    mode: str,
    eps_or_delta: float,
    use_symmetry: bool = False,
) -> BoundReport:
    """Bound on |E[(X - mu0)^m err(X)^n]|.

    The plain form needs only the worst-case error model.  With
    ``use_symmetry`` (odd-symmetric rounding on a sign-symmetric grid,
    m + n odd) the coefficient drops to a signed moment corrected by the
    asymmetric density remainder about zero.
    """
    _check_mode(mode)
    if m < 0 or n < 0:
        raise ConfigError("m and n must be non-negative")
    notes = ()
    if use_symmetry:
        if (m + n) % 2 == 0:
            raise SymmetryUnavailableError("symmetry form needs m + n odd")
        if mode == ADDITIVE and m % 2 == 0:
            raise SymmetryUnavailableError("additive symmetry form needs m odd")
        split = SymmetricSplit(model, 0.0)
        j = (n + m) if mode == MULTIPLICATIVE else m
        lo = model.support[0]
        correction = 0.0
        if lo < 0.0:
            correction = split.h_integral(j, lo, 0.0)
        coef = model.raw_moment(j) - 2.0 * correction
        coef = max(coef, 0.0)
        theorem = "mixed_moment_symmetric"
        notes = ("requires rd(-x) = -rd(x) on a sign-symmetric grid",)
    else:
        # the multiplicative error model weighs err^n by |X|^n
        j = n if mode == MULTIPLICATIVE else 0
        coef = _finite(model.abs_mixed_moment(m, j, mu0), f"E[|X-mu0|^{m} |X|^{j}]")
        theorem = "mixed_moment"
    leading = BoundTerm(coef, n, eps_or_delta)
    return _report(leading, BoundTerm(0.0, n + 1, eps_or_delta), theorem, tier="A", mode=mode, notes=notes)


def centered_moment_first_order(model: DensityModel, k: int, mode: str, eps_or_delta: float) -> BoundReport:
    """First-order bound on |M_k[rd(X)] - M_k[X]| for centered moments.

    Expands the shifted moment binomially around the exact one; every term
    mixing the error is bounded by the mixed-moment rule, while pure
    central moments of X enter exactly.  A term with i error factors is a
    coefficient times base^i; those with i >= 2 form the higher-order term.
    For k = 2 the classic three-term variance split (covariance, raw second
    error moment, squared error mean) gives a slightly tighter assembly and
    is used directly.
    """
    _check_mode(mode)
    if k < 2:
        raise ConfigError("k must be >= 2")
    base = eps_or_delta

    def coef(m: int, n: int) -> float:
        """Coefficient of base^n in the mixed-moment bound about the mean."""
        return mixed_moment_bound(model, model.mean, m, n, mode, base).leading.coef

    d = coef(0, 1)  # |E err| <= d base
    if k == 2:
        lead = 2.0 * coef(1, 1)
        high = coef(0, 2) + 2.0 * d * d
    else:
        lead = 0.0
        high = 0.0
        for i in range(1, k + 1):
            for j in range(0, i + 1):
                c = math.comb(k, i) * math.comb(i, j)
                if j == 0:
                    central = abs(model.central_moment(k - i)) if k - i != 1 else 0.0
                    term = c * d ** i * central
                else:
                    term = c * d ** (i - j) * coef(k - i, j)
                if i == 1:
                    lead += term
                else:
                    high += term * base ** (i - 2)
    leading = BoundTerm(lead, 1, base)
    higher = BoundTerm(high, 2, base)
    return _report(leading, higher, "centered_moment_first_order", tier="A", mode=mode)


def _abs_power_integral(a: float, b: float, k: int) -> float:
    def anti(t):
        return math.copysign(abs(t) ** (k + 1) / (k + 1.0), t)

    return anti(b) - anti(a)


def interval_error_bound(
    a: float,
    b: float,
    k: int,
    scheme: RoundingScheme,
    mode: str,
    eps_or_delta: float,
    endpoints_on_grid: bool = False,
    signed: bool = False,
) -> BoundReport:
    """Bound on the error-power integral over [a, b].

    Absolute variant: integral of |err|^k, leading in eps^k / delta^k with
    endpoint spill at the next order (zero when the endpoints are grid
    points under a deterministic scheme; the additive uniform-mesh case is
    then an equality).  Signed variant (k odd, nearest or stochastic):
    whole cells cancel, leaving only the endpoint term of order k + 1.
    """
    _check_mode(mode)
    if not a < b:
        raise ConfigError("need a < b")
    if k < 1:
        raise ConfigError("k must be a positive integer")
    cs = scheme_constants(scheme)
    base = eps_or_delta
    notes = ()
    if signed:
        if k % 2 == 0:
            raise BadOrderError("signed error-power bound needs odd k")
        if scheme not in CANCELLING_SCHEMES:
            raise SymmetryUnavailableError("signed cancellation needs nearest or stochastic rounding")
        leading = BoundTerm(0.0, k, base)
        exact_zero = endpoints_on_grid and scheme is RoundingScheme.NEAREST
        if exact_zero:
            higher = BoundTerm(0.0, k + 1, base)
            notes = ("grid-aligned endpoints: integral is exactly zero",)
        elif mode == MULTIPLICATIVE:
            higher = BoundTerm(cs.d(k) * max(abs(a), abs(b)) ** (k + 1), k + 1, base)
        else:
            higher = BoundTerm(cs.d(k), k + 1, base)
        return _report(leading, higher, "interval_error_signed", tier="B", mode=mode, notes=notes)

    if mode == MULTIPLICATIVE:
        leading = BoundTerm(cs.c(k) * _abs_power_integral(a, b, k), k, base)
        hcoef = 2.0 * cs.c(k) * (abs(a) ** (k + 1) + abs(b) ** (k + 1)) * cs.beta(base) ** (k + 1)
    else:
        leading = BoundTerm(cs.c(k) * (b - a), k, base)
        hcoef = 4.0 * cs.c(k)
    if endpoints_on_grid and scheme is not RoundingScheme.STOCHASTIC:
        if scheme is RoundingScheme.NEAREST or not a < 0.0 < b:
            hcoef = 0.0
            if mode == ADDITIVE:
                notes = ("equality on a uniform mesh with grid-aligned endpoints",)
        else:
            # directed rounding jumps at zero, not at a grid point: a cell
            # straddling zero exceeds the per-cell equality by <= c(k) d^(k+1)
            hcoef = cs.c(k)
    higher = BoundTerm(hcoef, k + 1, base)
    return _report(leading, higher, "interval_error_abs", tier="B", mode=mode, notes=notes)


def unimodal_moment_bound(
    model: DensityModel,
    k: int,
    scheme: RoundingScheme,
    mode: str,
    eps_or_delta: float,
    signed: bool = False,
) -> BoundReport:
    """Error-moment bound for a unimodal density via its radial envelope."""
    _check_mode(mode)
    if k < 1:
        raise ConfigError("k must be a positive integer")
    if scheme not in CANCELLING_SCHEMES:
        raise SymmetryUnavailableError("envelope bound needs nearest or stochastic rounding")
    env = envelope(model)
    cs = scheme_constants(scheme)
    base = eps_or_delta
    if signed:
        if k % 2 == 0:
            raise BadOrderError("signed error-power bound needs odd k")
        leading = BoundTerm(0.0, k, base)
        if mode == MULTIPLICATIVE:
            # no endpoint inflation here: the signed endpoint term never
            # reaches past the query point, unlike the absolute variant
            hcoef = (k + 1.0) * cs.d(k) * env.weighted_integral(k)
        else:
            hcoef = cs.d(k) * model.peak
        return _report(leading, BoundTerm(hcoef, k + 1, base), "unimodal_signed", tier="B", mode=mode)

    if mode == MULTIPLICATIVE:
        leading = BoundTerm(_finite(model.abs_mixed_moment(0, k, 0.0), "E|X|^k"), k, base)
        hcoef = 4.0 * (k + 1.0) * cs.c(k) * env.weighted_integral(k) * cs.beta(base) ** (k + 1)
    else:
        leading = BoundTerm(cs.c(k), k, base)
        hcoef = 4.0 * cs.c(k) * model.peak
    return _report(leading, BoundTerm(hcoef, k + 1, base), "unimodal_abs", tier="B", mode=mode)


def sheppard_two_sided(
    weight_integral: float | None,
    a: float,
    b: float,
    n: int,
    delta: float,
    sup_weight: float = 1.0,
) -> BoundReport:
    """Two-sided bound for the |err|^n integral on a uniform mesh (nearest).

    Centered at weight_integral * delta^n / (n + 1) with radius
    4 * sup_weight * delta^(n+1) / (n + 1).  Pass ``weight_integral=None``
    for the unweighted integral over [a, b]; for an f-weighted integral pass
    its mass and supremum.  Recovers the classical variance correction:
    with full-gap spacing delta0 = 2*delta the center at n = 2 is
    delta0^2 / 12.
    """
    if n < 1:
        raise ConfigError("n must be a positive integer")
    if weight_integral is None:
        if not a < b:
            raise ConfigError("need a < b")
        weight_integral = b - a
    center_coef = weight_integral / (n + 1.0)
    radius_coef = 4.0 * sup_weight / (n + 1.0)
    leading = BoundTerm(center_coef, n, delta)
    higher = BoundTerm(radius_coef, n + 1, delta)
    rep = _report(leading, higher, "sheppard_two_sided", tier="C", mode=ADDITIVE)
    # from the checked report, so an overflowing term is a ConfigError
    return replace(rep, two_sided=(rep.leading.value, rep.higher_order.value))


def _tier_delta(scheme: RoundingScheme, mesh: UniformMesh | None, delta: float | None) -> float:
    if delta is not None:
        return delta
    if mesh is None:
        raise ConfigError("need an explicit delta or a mesh to derive it from")
    return scheme_eps_delta(scheme, 0.0, mesh.step)[1]


def _h_region_sum(model: DensityModel, center: float) -> float:
    """Sum of per-bump suprema of the asymmetric remainder h about center.

    The cancellation bound charges one cell-integral term per connected
    level-set interval, so h with several bumps (a decreasing density split
    about a positive center, say) pays once per bump.
    """
    split = SymmetricSplit(model, center)
    lo, hi = model.effective_range()
    span_lo = min(lo, 2.0 * center - hi)
    span_hi = max(hi, 2.0 * center - lo)
    xs = np.linspace(span_lo, span_hi, 4001)
    # the mode too: once the span is many supports wide, the even samples
    # can all miss a density that is 0 at both ends (a semicircle)
    extras = np.asarray([lo, hi, 2.0 * center - lo, 2.0 * center - hi, center, model.mode])
    xs = np.unique(np.concatenate([xs, extras[(extras >= span_lo) & (extras <= span_hi)]]))
    ys = np.asarray(split.h(xs), dtype=float)
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
        total += max(seg_max, scan_max(split.h, a, b, n=257))
    return total


def mean_and_variance_diff_bounds(
    model: DensityModel,
    tier: str,
    mesh: UniformMesh | None = None,
    delta: float | None = None,
    scheme: RoundingScheme = RoundingScheme.NEAREST,
) -> tuple[BoundReport, BoundReport]:
    """Additive-mode bounds on |E[rd(X)] - E[X]| and |V[rd(X)] - V[X]|.

    The variance bound assembles the three-term split
    2|E[(X-mean) err]| + E[err^2] + 2 E[err]^2, each term bounded at the
    requested tier.  Tier D's known offset only sharpens the mean term, so
    the variance report is tagged C at tiers C and D.
    """
    tier = tier.upper()
    if tier not in ("A", "B", "C", "D"):
        raise ConfigError("tier must be one of A, B, C, D")
    dlt = _tier_delta(scheme, mesh, delta)
    if tier in ("C", "D") and mesh is None:
        raise PreconditionError(f"tier {tier} requires a uniform mesh")
    if tier != "A" and scheme not in CANCELLING_SCHEMES:
        raise PreconditionError("tiers beyond A need nearest or stochastic rounding")

    mu = model.mean
    if tier == "A":
        de = mixed_moment_bound(model, mu, 0, 1, ADDITIVE, dlt)
        dv = centered_moment_first_order(model, 2, ADDITIVE, dlt)
        return replace(de, theorem="mean_diff"), replace(dv, theorem="variance_diff")

    envelope(model)  # only its unimodality check: raises NotUnimodalError
    cs = scheme_constants(scheme)
    d1 = cs.d(1)
    c2 = cs.c(2)

    if tier == "B":
        de_coef = d1 * model.peak
    else:
        if tier == "C":
            # Unknown offset: mesh points and midpoints form a half_gap
            # lattice, so some admissible center satisfies |c| <= half_gap/2.
            half = 0.5 * mesh.half_gap
            h_sum = max(_h_region_sum(model, c) for c in np.linspace(-half, half, 5))
        else:
            h_sum = _h_region_sum(model, best_mesh_center(mesh))
        de_coef = d1 * h_sum
    de = _report(BoundTerm(de_coef, 2, dlt), BoundTerm(0.0, 3, dlt), "mean_diff", tier=tier)

    # 2|E[(X-mu) err]|: the weight (x-mu) f(x) changes sign at the mean, so
    # each signed region contributes d(1) * sup of its magnitude.
    cov_coef = 2.0 * (2.0 * d1 * model.sup_centered_weight())
    err2_lead = c2
    err2_high = 4.0 * c2 * model.peak
    lead = BoundTerm(cov_coef + err2_lead, 2, dlt)
    # 2 E[err]^2 <= 2 (de_coef dlt^2)^2 = (2 de_coef^2 dlt) dlt^3, built
    # directly: dividing by dlt^3 would fail once it underflows
    high = BoundTerm(err2_high + 2.0 * de_coef * de_coef * dlt, 3, dlt)
    dv = _report(lead, high, "variance_diff", tier="C" if tier == "D" else tier)
    return de, dv


def _probe_block(model: DensityModel, lo: float, hi: float):
    xs = np.linspace(lo, hi, 33)  # probe points per stretch
    ys = np.asarray(model.density(xs), dtype=float)
    sup = float(ys.max())
    inf = float(ys.min())
    d = np.diff(ys)
    tol = 1e-12 * max(sup, 1e-300)
    signs = np.where(d > tol, 1, np.where(d < -tol, -1, 0))
    signs = signs[signs != 0]
    if signs.size == 0:
        return sup, inf, 1, 0  # flat stretch: one plateau region
    flips = int(np.sum(signs[1:] != signs[:-1]))
    # Local-maxima regions: interior peaks (+ to - transitions) plus the
    # endpoints when the stretch falls away from them.
    peaks = int(np.sum((signs[:-1] == 1) & (signs[1:] == -1)))
    n_max = peaks + (1 if signs[0] == -1 else 0) + (1 if signs[-1] == 1 else 0)
    return sup, inf, max(n_max, 1), flips


def float_moment_bound(
    model: DensityModel,
    fs: FloatSystem,
    k: int,
    scheme: RoundingScheme = RoundingScheme.NEAREST,
    signed: bool = True,
) -> BoundReport:
    """Bound |integral of f err^k| over a float system, binade by binade.

    Within each uniformly spaced stretch the grid-aligned cancellation
    applies to the density shifted by its infimum, leaving a
    (sup - inf) * half_gap^(k+1) term per maxima region; a binade whose
    probe shows more than one maxima region falls back to the worst-case
    first-order term and is flagged.  The overflow remainder, the report's
    higher-order term, integrates the saturated tail mass beyond
    +/- 2^k_max; when it is negligible it is zero and a note says so.
    """
    if scheme not in CANCELLING_SCHEMES:
        raise SymmetryUnavailableError("per-binade cancellation needs nearest or stochastic rounding")
    if signed and k % 2 == 0:
        raise BadOrderError("signed error-power bound needs odd k")
    cs = scheme_constants(scheme)
    eps = scheme_eps_delta(scheme, 2.0 ** (-fs.mantissa_bits), 0.0)[0]
    supp_lo, supp_hi = model.effective_range()
    notes = []
    total = 0.0
    for sign, anchor, step, a, b in fs.stretches(supp_lo, supp_hi):
        lo, hi = (a, b) if sign > 0 else (-b, -a)
        sup, inf, n_max, flips = _probe_block(model, lo, hi)
        if sup == 0.0:
            continue
        # stochastic rounding sees the full gap as its additive error
        dlt = scheme_eps_delta(scheme, 0.0, step)[1]
        if flips > 1:
            # worst-case error-model term for this stretch, flagged
            mass, _ = adaptive_quad(model.density, lo, hi, rtol=1e-10)
            total += mass * dlt ** k
            notes.append(f"binade [{lo:g},{hi:g}) fell back to the first-order bound")
            continue
        if signed:
            total += 2.0 * n_max * cs.d(k) * (sup - inf) * dlt ** (k + 1)
            # a stretch clipped off the grid (support edge inside a binade)
            # loses the aligned cancellation of its infimum part; an end is
            # on the grid when it is on the stretch's lattice anchor + j*step
            # (binade ends, 0 and +/- top always are; both sides are exact)
            if (a - anchor) % step or (b - anchor) % step:
                total += inf * cs.d(k) * dlt ** (k + 1)
        else:
            total += sup * (cs.c(k) * (b - a) * dlt ** k + 4.0 * cs.c(k) * dlt ** (k + 1))
    # overflow remainder: mass rounded onto +/- top keeps an O(1) error
    r_val = 0.0
    if supp_hi > fs.top:
        v, _ = adaptive_quad(lambda x: model.density(x) * (x - fs.top) ** k, fs.top, supp_hi, rtol=1e-10)
        r_val += abs(v)
    if supp_lo < -fs.top:
        v, _ = adaptive_quad(lambda x: model.density(x) * (-fs.top - x) ** k, supp_lo, -fs.top, rtol=1e-10)
        r_val += abs(v)
    if r_val < 1e-300:
        r_val = 0.0
        notes.append("overflow remainder negligible; reported as zero")
    leading = BoundTerm(total / eps ** (k + 1), k + 1, eps)
    higher = BoundTerm(r_val, 0, eps)
    return _report(leading, higher, "float_decomposition", tier="D", mode=MULTIPLICATIVE, notes=notes)


def _gamma_tail(m: int) -> float:
    """Gamma((m+1)/2, x) at x = m/2, integer m >= 0: from Gamma(1/2, x) =
    sqrt(pi) erfc(sqrt(x)) (even m) or Gamma(1, x) = e^-x (odd m) up the
    recurrence Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x (DLMF 8.8.2)."""
    x = m / 2.0
    even = m % 2 == 0
    s = 0.5 if even else 1.0
    g = math.sqrt(math.pi) * math.erfc(math.sqrt(x)) if even else math.exp(-x)
    while s < (m + 1) / 2.0:
        g = s * g + x ** s * math.exp(-x)
        s += 1.0
    return g


def normal_partial_moment_bound(mu: float, sigma2: float, m: int, n: int, eps: float) -> BoundReport:
    """Bound |E[(X-mu)^m err(X)^n]| for a normal X under nearest rounding.

    The weight |x - mu|^m f(x) peaks at mu +/- sqrt(m sigma^2); the right
    envelope dominates the left, giving a closed constant with an upper
    incomplete gamma tail (0^0 = 1 convention at m = 0).
    """
    if n < 1 or n % 2 == 0:
        raise BadOrderError("n must be odd and positive")
    if not (m >= 0 and float(m).is_integer()):
        # the gamma tail's recurrence is exact only at integer m
        raise ConfigError(f"m must be a non-negative integer, got {m!r}")
    if sigma2 <= 0.0:
        raise ConfigError("sigma2 must be positive")
    mu_abs = abs(mu)
    s = math.sqrt(m * sigma2)
    x_r = mu_abs + s
    f_xr = math.exp(-0.5 * m) / math.sqrt(2.0 * math.pi * sigma2)
    s_pow = 1.0 if m == 0 else s ** m
    term1 = 2.0 / (n + 1.0) * x_r ** (n + 1) * s_pow * f_xr
    term2 = 2.0 ** (m / 2.0) / math.sqrt(math.pi) * _gamma_tail(m)
    coef = term1 + term2
    leading = BoundTerm(0.0, n, eps)
    higher = BoundTerm(coef, n + 1, eps)
    return _report(leading, higher, "normal_partial_moment", tier="B", mode=MULTIPLICATIVE)


def rounded_chebyshev(variance: float, n: int, delta: float, t: float) -> float:
    """Concentration of the sample mean of rounded data around the true mean."""
    # each check is written so that a NaN fails it
    if not (0.0 <= variance < math.inf and 0.0 <= delta < math.inf and abs(t) < math.inf):
        raise ConfigError("need a finite t and finite variance, delta >= 0")
    if n < 1:
        raise ConfigError("n must be a positive integer")
    if not t > delta:
        raise PreconditionError("needs t > delta: deviation must exceed the measurement error")
    try:
        if delta == 0.0:
            # classical concentration bound, exactly; n t^2 may underflow to 0
            bound = variance / (n * t * t) if n * t * t else math.inf
        else:
            bound = ((math.sqrt(variance) + delta) / (t - delta)) ** 2 / n
    except OverflowError:
        bound = math.inf
    if not bound < math.inf:
        raise ConfigError(f"probability bound at n = {n}, delta = {delta!r}, t = {t!r} is not a finite double")
    return bound


def plan_measurement(
    variance: float, c: float, p: float, n: int | None = None
) -> tuple[int, float]:
    """Sample count and measurement-error budget for a target confidence.

    Returns (n_min, delta_max): n_min samples guarantee feasibility, and
    delta_max is the largest per-sample absolute error that still leaves
    the sample mean within c standard deviations with probability 1 - p
    (evaluated at ``n`` when given, else at n_min).
    """
    # each check is written so that a NaN fails it
    if not (0.0 <= variance < math.inf and 0.0 < c < math.inf and 0.0 < p < 1.0):
        raise ConfigError("need finite variance >= 0, finite c > 0, 0 < p < 1")
    if p * c * c == 0.0 or 1.0 / (p * c * c) == math.inf:
        raise ConfigError(f"p c^2 = {p * c * c!r} underflows: 1/(p c^2) is not a finite double")
    edge = 1.0 / (p * c * c)
    n_min = math.ceil(edge) + 1
    n_used = n_min if n is None else n
    if n_used <= edge:
        raise InfeasibleBudgetError(
            f"n = {n_used} is within the infeasible budget n <= 1/(p c^2) = {edge:g}"
        )
    root = math.sqrt(n_used * p)
    delta_max = (c * root - 1.0) / (root + 1.0) * math.sqrt(variance)
    if not delta_max < math.inf:
        raise ConfigError(f"delta_max at c = {c!r}, variance = {variance!r} overflows a double")
    return n_min, delta_max


def rounded_sum_bound(abs_means: Sequence[float], eps: float) -> BoundReport:
    """First-order bound on E|S_n - rounded S_n| for a sequential sum."""
    n = len(abs_means)
    for v in abs_means:
        _finite(v, "E|X_i|")
    coef = 0.0 if n <= 1 else (n - 1) * float(sum(abs_means))
    leading = BoundTerm(coef, 1, eps)
    higher = BoundTerm(0.0, 2, eps)
    return _report(
        leading,
        higher,
        "rounded_sum",
        tier="A",
        mode=MULTIPLICATIVE,
        notes=("second-order remainder unquantified; not folded into the value",),
    )
