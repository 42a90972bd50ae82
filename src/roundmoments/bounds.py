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
import sys
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .distributions import DensityModel, Envelope, SymmetricSplit, best_mesh_center
from .errors import ConfigError, PreconditionError
from .grids import FloatSystem, UniformMesh
from .quadrature import adaptive_quad
from .rounding import RoundingScheme

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
        try:
            return self.coef * self.base ** self.power if self.coef else 0.0
        except OverflowError:  # base^power overflowed, so |base| > 1: no partial product exceeds the whole
            return math.prod([self.base] * self.power, start=self.coef)


@dataclass(frozen=True)
class BoundReport:
    value: float
    leading: BoundTerm
    higher_order: BoundTerm
    theorem: str
    tier: str | None
    mode: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = asdict(self)
        out["notes"] = list(self.notes)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BoundReport":
        return cls(**{
            **obj,
            "leading": BoundTerm(**obj["leading"]),
            "higher_order": BoundTerm(**obj["higher_order"]),
            "notes": tuple(obj["notes"]),
        })


def _report(base, power, lead, high, theorem, tier=None, mode=ADDITIVE, notes=(), high_power=None):
    """The report lead * base^power + high * base^high_power; the
    higher-order term sits one power above the leading one by default."""
    leading = BoundTerm(lead, power, base)
    higher = BoundTerm(high, power + 1 if high_power is None else high_power, base)
    value = leading.value + higher.value
    if not math.isfinite(value):
        raise ConfigError(f"{theorem} bound overflows a double at base {base!r}")
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
    # every model's moments are finite (quadrature cannot see a divergent
    # one) and, as weighted moments of a density, positive: one that is
    # not is past a double's range
    if not math.isfinite(x):
        raise ConfigError(f"{what} overflows a double")
    if x == 0.0:
        raise ConfigError(f"{what} underflows a double")
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
            raise PreconditionError("symmetry form needs m + n odd")
        if mode == ADDITIVE and m % 2 == 0:
            raise PreconditionError("additive symmetry form needs m odd")
        split = SymmetricSplit(model, 0.0)
        j = (n + m) if mode == MULTIPLICATIVE else m
        lo = model.moment_range(j)[0]
        correction = split.h_integral(j, lo, 0.0) if lo < 0.0 else 0.0
        coef = model.raw_moment(j) - 2.0 * correction
        coef = max(coef, 0.0)
        theorem = "mixed_moment_symmetric"
        notes = ("requires rd(-x) = -rd(x) on a sign-symmetric grid",)
    else:
        # the multiplicative error model weighs err^n by |X|^n
        j = n if mode == MULTIPLICATIVE else 0
        coef = _finite(model.abs_mixed_moment(m, j, mu0), f"E[|X-mu0|^{m} |X|^{j}]")
        theorem = "mixed_moment"
    return _report(eps_or_delta, n, coef, 0.0, theorem, tier="A", mode=mode, notes=notes)


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
        # a product of binomials, or a central moment built from exact
        # integers, raises once it passes the largest double
        try:
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
        except OverflowError:
            raise ConfigError(f"centered_moment_first_order bound overflows a double at k = {k}") from None
    return _report(base, 1, lead, high, "centered_moment_first_order", tier="A", mode=mode)


def _cell_rule(k: int, scheme: RoundingScheme, signed: bool = False) -> tuple[float, float]:
    """The per-cell argument behind every error-integral bound, as the
    coefficients (lead, high) of a weight's mass M and supremum S: on
    uniformly spaced cells with error bound delta, the integral of the
    weight times |err|^k is at most lead M delta^k + high S delta^(k+1),
    with (lead, high) = (c(k), 4 c(k)).  Signed (odd k), each cell's err^k
    cancels against a constant weight, leaving (0, d(k)), with S the
    weight's variation."""
    if k < 1:
        raise ConfigError("k must be a positive integer")
    if signed and k % 2 == 0:
        raise PreconditionError("signed error-power bound needs odd k")
    return (0.0, scheme.d(k)) if signed else (scheme.c(k), 4.0 * scheme.c(k))


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
    rule_lead, hcoef = _cell_rule(k, scheme, signed)
    base = eps_or_delta
    notes = ()
    if signed:
        if not scheme.cancels:
            raise PreconditionError("signed cancellation needs nearest or stochastic rounding")
        if endpoints_on_grid and scheme is RoundingScheme.NEAREST:
            hcoef = 0.0
            notes = ("grid-aligned endpoints: integral is exactly zero",)
        elif mode == MULTIPLICATIVE:
            hcoef *= max(abs(a), abs(b)) ** (k + 1)
        return _report(base, k, 0.0, hcoef, "interval_error_signed", tier="B", mode=mode, notes=notes)

    if mode == MULTIPLICATIVE:
        # the weight is |x|^k, and each end's cell reaches past it by up to beta
        lead = rule_lead * _abs_power_integral(a, b, k)
        hcoef = 0.5 * hcoef * (abs(a) ** (k + 1) + abs(b) ** (k + 1)) * scheme.beta(base) ** (k + 1)
    else:
        lead = rule_lead * (b - a)
    if endpoints_on_grid and scheme is not RoundingScheme.STOCHASTIC:
        if scheme is RoundingScheme.NEAREST or not a < 0.0 < b:
            hcoef = 0.0
            if mode == ADDITIVE:
                notes = ("equality on a uniform mesh with grid-aligned endpoints",)
        else:
            # directed rounding jumps at zero, not at a grid point: a cell
            # straddling zero exceeds the per-cell equality by <= c(k) d^(k+1)
            hcoef = rule_lead
    return _report(base, k, lead, hcoef, "interval_error_abs", tier="B", mode=mode, notes=notes)


def unimodal_moment_bound(
    model: DensityModel,
    k: int,
    scheme: RoundingScheme,
    mode: str,
    eps_or_delta: float,
    signed: bool = False,
) -> BoundReport:
    """Error-moment bound for a unimodal density via its radial envelope.

    Additive, the cell rule's weight is the density (mass 1, sup its peak).
    Multiplicative, (k + 1) times the envelope's x^k-weighted integral takes
    the peak's place, and the absolute leading term is E|X|^k itself.
    """
    _check_mode(mode)
    lead, hcoef = _cell_rule(k, scheme, signed)
    if not scheme.cancels:
        raise PreconditionError("envelope bound needs nearest or stochastic rounding")
    if mode == MULTIPLICATIVE:
        hcoef = (k + 1.0) * hcoef * Envelope(model).weighted_integral(k)
        # only the absolute variant's end cells reach past the query point
        if not signed:
            lead = _finite(model.abs_mixed_moment(0, k, 0.0), "E|X|^k")
            hcoef *= scheme.beta(eps_or_delta) ** (k + 1)
    else:
        hcoef *= model.peak
    return _report(eps_or_delta, k, lead, hcoef, "unimodal_signed" if signed else "unimodal_abs", tier="B", mode=mode)


def sheppard_two_sided(weight_integral: float, sup_weight: float, n: int, delta: float) -> BoundReport:
    """Two-sided bound for a weighted |err|^n integral on a uniform mesh
    (nearest): the cell rule for a weight of that mass and supremum (b - a
    and 1 for the unweighted integral over [a, b], 1 and the peak for a
    density), centered at its leading term with its higher-order term as
    radius.  Recovers the classical variance correction: with full-gap
    spacing delta0 = 2*delta the center at n = 2 is delta0^2 / 12.
    """
    lead, high = _cell_rule(n, RoundingScheme.NEAREST)
    if not weight_integral > 0.0:
        raise ConfigError(f"weight integral must be positive, got {weight_integral!r}")
    return _report(delta, n, lead * weight_integral, high * sup_weight, "sheppard_two_sided", tier="C")


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
    the variance report is tagged C at tiers C and D.  The error bound
    delta is given, or derived from the mesh; not both.
    """
    tier = tier.upper()
    if tier not in ("A", "B", "C", "D"):
        raise ConfigError("tier must be one of A, B, C, D")
    if (mesh is None) == (delta is None):
        raise ConfigError("need exactly one of delta and a mesh to derive it from")
    dlt = delta if mesh is None else scheme.delta(mesh.step)
    if tier in ("C", "D") and mesh is None:
        raise PreconditionError(f"tier {tier} requires a uniform mesh")
    if tier != "A" and not scheme.cancels:
        raise PreconditionError("tiers beyond A need nearest or stochastic rounding")

    mu = model.mean
    if tier == "A":
        de = mixed_moment_bound(model, mu, 0, 1, ADDITIVE, dlt)
        dv = centered_moment_first_order(model, 2, ADDITIVE, dlt)
        return replace(de, theorem="mean_diff"), replace(dv, theorem="variance_diff")

    _, d1 = _cell_rule(1, scheme, signed=True)

    if tier == "B":
        de_coef = d1 * model.peak
    else:
        if tier == "C":
            # Unknown offset: mesh points and midpoints form a half_gap
            # lattice, so some admissible center satisfies |c| <= half_gap/2.
            half = 0.5 * mesh.half_gap
            h_sum = max(SymmetricSplit(model, c).bump_sup_sum() for c in np.linspace(-half, half, 5))
        else:
            h_sum = SymmetricSplit(model, best_mesh_center(mesh)).bump_sup_sum()
        de_coef = d1 * h_sum
    de = _report(dlt, 2, de_coef, 0.0, "mean_diff", tier=tier)

    # 2|E[(X-mu) err]|: the weight (x-mu) f(x) changes sign at the mean, so
    # each signed region contributes d(1) * sup of its magnitude.
    cov_coef = 2.0 * (2.0 * d1 * model.sup_centered_weight())
    err2_lead, err2_high = _cell_rule(2, scheme)
    # 2 E[err]^2 <= 2 (de_coef dlt^2)^2 = (2 de_coef^2 dlt) dlt^3, built
    # directly: dividing by dlt^3 would fail once it underflows
    high = err2_high * model.peak + 2.0 * de_coef * de_coef * dlt
    dv = _report(dlt, 2, cov_coef + err2_lead, high, "variance_diff", tier="C" if tier == "D" else tier)
    return de, dv


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
    (sup - inf) * half_gap^(k+1) term per maxima region.  Every
    ``DensityModel`` is checked to be unimodal when it is made: it rises to
    its mode and falls after it, so a stretch on one side of the mode is
    monotone and one holding the mode peaks once, and every stretch has
    exactly one maxima region.  Its sup and inf are taken from 33 even
    samples.  The overflow remainder, the report's higher-order term,
    integrates the saturated tail mass beyond +/- 2^k_max; when it is
    negligible it is zero and a note says so.
    """
    if not scheme.cancels:
        raise PreconditionError("per-binade cancellation needs nearest or stochastic rounding")
    lead, high = _cell_rule(k, scheme, signed)
    eps = scheme.eps(2.0 ** (-fs.mantissa_bits))
    supp_lo, supp_hi = model.effective_range()
    notes = []
    total = 0.0
    for sign, anchor, step, a, b in fs.stretches(supp_lo, supp_hi):
        lo, hi = (a, b) if sign > 0 else (-b, -a)
        ys = np.asarray(model.density(np.linspace(lo, hi, 33)), dtype=float)
        sup, inf = float(ys.max()), float(ys.min())
        if sup == 0.0:
            continue
        # stochastic rounding sees the full gap as its additive error
        dlt = scheme.delta(step)
        if signed:
            total += 2.0 * high * (sup - inf) * dlt ** (k + 1)
            # a stretch clipped off the grid (support edge inside a binade)
            # loses the aligned cancellation of its infimum part; an end is
            # on the grid when it is on the stretch's lattice anchor + j*step
            # (binade ends, 0 and +/- top always are; both sides are exact)
            if (a - anchor) % step or (b - anchor) % step:
                total += inf * high * dlt ** (k + 1)
        else:
            total += sup * (lead * (b - a) * dlt ** k + high * dlt ** (k + 1))
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
    return _report(eps, k + 1, total / eps ** (k + 1), r_val, "float_decomposition", tier="D", mode=MULTIPLICATIVE,
                   notes=notes, high_power=0)


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
        raise PreconditionError("n must be odd and positive")
    if not (m >= 0 and float(m).is_integer()):
        # the gamma tail's recurrence is exact only at integer m
        raise ConfigError(f"m must be a non-negative integer, got {m!r}")
    if sigma2 <= 0.0:
        raise ConfigError("sigma2 must be positive")
    mu_abs = abs(mu)
    s = math.sqrt(m * sigma2)
    x_r = mu_abs + s
    f_xr = math.exp(-0.5 * m) / math.sqrt(2.0 * math.pi * sigma2)
    try:  # float ** raises where * and + give inf, which _report rejects
        s_pow = 1.0 if m == 0 else s ** m
        term1 = 2.0 / (n + 1.0) * x_r ** (n + 1) * s_pow * f_xr
        term2 = 2.0 ** (m / 2.0) / math.sqrt(math.pi) * _gamma_tail(m)
    except OverflowError:
        raise ConfigError(f"normal_partial_moment constant overflows a double at m = {m}, n = {n}") from None
    return _report(eps, n, 0.0, term1 + term2, "normal_partial_moment", tier="B", mode=MULTIPLICATIVE)


def rounded_chebyshev(variance: float, n: int, delta: float, t: float) -> float:
    """Concentration of the sample mean of rounded data around the true mean."""
    # each check is written so that a NaN fails it
    if not (0.0 <= variance < math.inf and 0.0 <= delta < math.inf and abs(t) < math.inf):
        raise ConfigError("need a finite t and finite variance, delta >= 0")
    if not 1 <= n <= sys.float_info.max:  # n t^2 and / n convert n to a double
        raise ConfigError("n must be a positive integer no larger than the largest double")
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
    if n is not None and n > sys.float_info.max:  # n p converts n to a double
        raise ConfigError("n must be no larger than the largest double")
    if p * c * c == 0.0 or 1.0 / (p * c * c) == math.inf:
        raise ConfigError(f"p c^2 = {p * c * c!r} underflows: 1/(p c^2) is not a finite double")
    edge = 1.0 / (p * c * c)
    n_min = math.ceil(edge) + 1
    n_used = n_min if n is None else n
    if n_used <= edge:
        raise PreconditionError(
            f"n = {n_used} is within the infeasible budget n <= 1/(p c^2) = {edge:g}"
        )
    root = math.sqrt(n_used * p)
    delta_max = (c * root - 1.0) / (root + 1.0) * math.sqrt(variance)
    if not delta_max < math.inf:
        raise ConfigError(f"delta_max at c = {c!r}, variance = {variance!r} overflows a double")
    return n_min, delta_max


def rounded_sum_bound(abs_means: Sequence[float], eps: float) -> BoundReport:
    """First-order bound on E|S_n - rounded S_n| for a sequential sum.

    The first-order analysis needs (n - 1) * eps < 1 (Higham's
    gamma_{n-1}); past it the bound is not one, and PreconditionError says
    so."""
    n = len(abs_means)
    if (n - 1) * eps >= 1.0:
        raise PreconditionError(f"a rounded sum of {n} terms needs (n - 1) * eps < 1, got {(n - 1) * eps!r}")
    for v in abs_means:
        _finite(v, "E|X_i|")
    coef = 0.0 if n <= 1 else (n - 1) * float(sum(abs_means))
    return _report(eps, 1, coef, 0.0, "rounded_sum", tier="A", mode=MULTIPLICATIVE,
                   notes=("second-order remainder unquantified; not folded into the value",))
