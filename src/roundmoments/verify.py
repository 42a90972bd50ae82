"""Randomized dominance suite and offset sweeps: every bound must beat its oracle.

Instances draw a model, grid, scheme and order, compute the analytic bound
and the corresponding brute-force oracle, and record the margin.  A negative
margin (beyond the quadrature budget) is a genuine regression.  Multiplicative
instances place the support away from zero (or use a float grid whose
near-zero lattice contributes negligibly) so the relative error model holds
over the integration range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

import numpy as np

from . import bounds as B
from .distributions import DensityModel, make_exponential, make_normal, make_semicircle, make_uniform
from .errors import ConfigError, PreconditionError
from .grids import FloatSystem, UniformMesh, ceil_to, floor_to, gap_stats
from .oracle import Weight, centered_moment_of_rounded, delta_e_and_v, err_weighted_integral
from .rounding import RoundingScheme

QUAD_BUDGET = 1e-12
SWEEP_BUDGET = 1e-9  # slack of the offset sweep's dominance checks
# (label, base name) of each error model in check descriptions
_MODE_TAGS = {B.ADDITIVE: ("additive", "delta"), B.MULTIPLICATIVE: ("mult", "eps")}


@dataclass(frozen=True)
class CheckResult:
    kind: str
    description: str
    oracle: float
    bound: float
    margin: float
    ok: bool


def _result(kind: str, desc: str, oracle: float, bound: float) -> CheckResult:
    margin = bound - abs(oracle)
    return CheckResult(kind, desc, abs(oracle), bound, margin, abs(oracle) <= bound + QUAD_BUDGET)


def _any_model(rng: random.Random):
    k = rng.choice(("semicircle", "normal", "exponential", "uniform"))
    if k == "semicircle":
        return make_semicircle(rng.uniform(0.6, 1.8), rng.uniform(-1.0, 1.0))
    if k == "normal":
        return make_normal(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5))
    if k == "exponential":
        return make_exponential(rng.uniform(0.6, 2.0))
    lo = rng.uniform(-1.5, 0.5)
    return make_uniform(lo, lo + rng.uniform(0.5, 2.0))


def _positive_model(rng: random.Random):
    """Support bounded away from zero, for multiplicative-mode instances."""
    if rng.random() < 0.5:
        r = rng.uniform(0.5, 1.2)
        return make_semicircle(r, r + rng.uniform(0.5, 1.5))
    lo = rng.uniform(0.5, 1.2)
    return make_uniform(lo, lo + rng.uniform(0.5, 1.5))


def _mesh(rng: random.Random, lo=0.02, hi=0.12) -> UniformMesh:
    d = rng.uniform(lo, hi)
    return UniformMesh(d, rng.uniform(0.0, 2.0 * d))


def _mult_eps(mesh: UniformMesh, scheme: RoundingScheme, supp: tuple[float, float]) -> float:
    pad = mesh.step
    gs = gap_stats(mesh, supp[0] - pad, supp[1] + pad)
    return scheme.eps(gs.eps0)


def _error_model(rng: random.Random, scheme: RoundingScheme):
    """An additive instance (any model, delta from the mesh) or a
    multiplicative one (support away from zero, eps from its gap stats),
    each with probability 1/2: (model, mesh, mode, delta or eps)."""
    if rng.random() < 0.5:
        model = _any_model(rng)
        mesh = _mesh(rng)
        return model, mesh, B.ADDITIVE, scheme.delta(mesh.step)
    model = _positive_model(rng)
    mesh = _mesh(rng, 0.01, 0.05)
    return model, mesh, B.MULTIPLICATIVE, _mult_eps(mesh, scheme, model.support)


def _pick(rng, pool, cancelling=False):
    # in the pool's (enum) order, so a seed always draws the same instances
    options = [s for s in pool if s.cancels or not cancelling]
    return rng.choice(options) if options else None


def _gen_strong(rng, pool):
    scheme = _pick(rng, pool)
    n = rng.randint(1, 3)
    model, mesh, mode, base = _error_model(rng, scheme)
    rep = B.strong_bound(model, n, mode, base)
    a, b = model.effective_range()
    orc = err_weighted_integral(mesh, scheme, model, a, b, n, signed=False)
    tag, sym = _MODE_TAGS[mode]
    desc = f"strong {tag} {model.name} {scheme.value} n={n} {sym}={base:.3g}"
    return [_result("strong", desc, orc.value, rep.value)]


def _gen_mixed(rng, pool):
    scheme = _pick(rng, pool)
    m = rng.randint(0, 2)
    n = rng.randint(1, 2)
    use_sym = rng.random() < 0.35
    if use_sym:
        model = _any_model(rng)
        mesh_d = rng.uniform(0.02, 0.12)
        # symmetric grid: offset 0 puts points at +/- multiples, offset d
        # puts midpoints at zero; both give rd(-x) = -rd(x)
        mesh = UniformMesh(mesh_d, rng.choice((0.0, mesh_d)))
        if rng.random() < 0.5:
            mode = B.MULTIPLICATIVE
            if (m + n) % 2 == 0:
                m += 1
            model = _positive_model(rng)
            mesh = UniformMesh(mesh_d, rng.choice((0.0, mesh_d)))
            eps = _mult_eps(mesh, scheme, model.support)
            base = eps
        else:
            mode = B.ADDITIVE
            if m % 2 == 0:
                m += 1
            if (m + n) % 2 == 0:
                n += 1
            base = scheme.delta(mesh.step)
        rep = B.mixed_moment_bound(model, 0.0, m, n, mode, base, use_symmetry=True)
        mu0 = 0.0
        desc = f"mixed symmetric {model.name} {scheme.value} m={m} n={n} {mode}"
    else:
        mu0 = rng.uniform(-1.0, 1.0)
        model, mesh, mode, base = _error_model(rng, scheme)
        rep = B.mixed_moment_bound(model, mu0, m, n, mode, base)
        desc = f"mixed {model.name} {scheme.value} m={m} n={n} {mode}"
    a, b = model.effective_range()
    orc = err_weighted_integral(mesh, scheme, Weight(model, mu0, m), a, b, n, signed=True)
    return [_result("mixed", desc, orc.value, rep.value)]


def _gen_centered(rng, pool):
    scheme = _pick(rng, pool)
    k = rng.randint(2, 4)
    model = _any_model(rng)
    mesh = _mesh(rng)
    dlt = scheme.delta(mesh.step)
    rep = B.centered_moment_first_order(model, k, B.ADDITIVE, dlt)
    mk = centered_moment_of_rounded(model, mesh, scheme, k)
    orc = mk.value - model.central_moment(k)
    desc = f"centered {model.name} {scheme.value} k={k} delta={dlt:.3g}"
    return [_result("centered", desc, orc, rep.value)]


def _gen_interval(rng, pool):
    signed = rng.random() < 0.5
    scheme = _pick(rng, pool, cancelling=signed)
    if scheme is None:
        return None
    k = rng.choice((1, 3)) if signed else rng.randint(1, 4)
    mesh = _mesh(rng)
    if rng.random() < 0.5:
        a = rng.uniform(-3.0, 1.0)
        b = a + rng.uniform(4.0 * mesh.step, 3.0)
        aligned = rng.random() < 0.5
        if aligned:
            a = ceil_to(mesh, a)
            b = floor_to(mesh, b)
        dlt = scheme.delta(mesh.step)
        rep = B.interval_error_bound(a, b, k, scheme, B.ADDITIVE, dlt, endpoints_on_grid=aligned, signed=signed)
        desc = f"interval additive {scheme.value} k={k} aligned={aligned} signed={signed}"
    else:
        a = rng.uniform(0.5, 2.0)
        b = a + rng.uniform(4.0 * mesh.step, 2.0)
        eps = _mult_eps(mesh, scheme, (a, b))
        rep = B.interval_error_bound(a, b, k, scheme, B.MULTIPLICATIVE, eps, signed=signed)
        desc = f"interval mult {scheme.value} k={k} signed={signed}"
    orc = err_weighted_integral(mesh, scheme, Weight(), a, b, k, signed=signed)
    return [_result("interval", desc, orc.value, rep.value)]


def _gen_unimodal(rng, pool):
    scheme = _pick(rng, pool, cancelling=True)
    if scheme is None:
        return None
    signed = rng.random() < 0.5
    k = rng.choice((1, 3)) if signed else rng.randint(1, 3)
    model, mesh, mode, base = _error_model(rng, scheme)
    rep = B.unimodal_moment_bound(model, k, scheme, mode, base, signed=signed)
    desc = f"unimodal {_MODE_TAGS[mode][0]} {model.name} {scheme.value} k={k} signed={signed}"
    a, b = model.effective_range()
    orc = err_weighted_integral(mesh, scheme, model, a, b, k, signed=signed)
    return [_result("unimodal", desc, orc.value, rep.value)]


def _gen_sheppard(rng, pool):
    if RoundingScheme.NEAREST not in pool:
        return None
    n = rng.randint(1, 3)
    mesh = _mesh(rng)
    dlt = mesh.half_gap
    if rng.random() < 0.5:
        a = rng.uniform(-2.0, 0.5)
        b = a + rng.uniform(4.0 * mesh.step, 2.5)
        rep = B.sheppard_two_sided(b - a, 1.0, n, dlt)
        orc = err_weighted_integral(mesh, RoundingScheme.NEAREST, Weight(), a, b, n, signed=False)
        desc = f"sheppard unweighted n={n} delta={dlt:.3g}"
    else:
        model = _any_model(rng)
        a, b = model.effective_range()
        rep = B.sheppard_two_sided(1.0, model.peak, n, dlt)
        orc = err_weighted_integral(mesh, RoundingScheme.NEAREST, model, a, b, n, signed=False)
        desc = f"sheppard weighted {model.name} n={n} delta={dlt:.3g}"
    # the report is centered at its leading term, with its higher-order term as radius
    return [_result("sheppard", desc, orc.value - rep.leading.value, rep.higher_order.value)]


def _gen_tiers(rng, pool):
    tier = rng.choice(("A", "B", "C", "D"))
    scheme = _pick(rng, pool, cancelling=tier != "A")
    if scheme is None:
        return None
    model = _any_model(rng)
    mesh = _mesh(rng)
    de_b, dv_b = B.mean_and_variance_diff_bounds(model, tier, mesh=mesh, scheme=scheme)
    de, dv = delta_e_and_v(model, mesh, scheme)
    desc = f"tier {tier} {model.name} {scheme.value} delta={mesh.half_gap:.3g} offset={mesh.offset:.3g}"
    return [
        _result("tier", desc + " [mean]", de.value, de_b.value),
        _result("tier", desc + " [variance]", dv.value, dv_b.value),
    ]


def _gen_float(rng, pool):
    scheme = _pick(rng, pool, cancelling=True)
    if scheme is None:
        return None
    signed = rng.random() < 0.6
    k = rng.choice((1, 3)) if signed else rng.randint(1, 2)
    kind = rng.choice(("exponential", "semicircle", "normal"))
    if kind == "exponential":
        model = make_exponential(rng.uniform(0.6, 2.0))
    elif kind == "semicircle":
        r = rng.uniform(0.5, 1.2)
        model = make_semicircle(r, rng.uniform(r + 0.1, 3.0))
    else:
        model = make_normal(rng.uniform(0.3, 2.0), rng.uniform(0.25, 1.0))
    fs = FloatSystem(rng.randint(5, 9), rng.randint(-12, -6), rng.randint(5, 7))
    rep = B.float_moment_bound(model, fs, k, scheme, signed=signed)
    a, b = model.effective_range()
    orc = err_weighted_integral(fs, scheme, model, a, b, k, signed=signed)
    desc = f"float {model.name} {scheme.value} m={fs.mantissa_bits} k={k} signed={signed}"
    return [_result("float", desc, orc.value, rep.value)]


def _gen_normal_partial(rng, pool):
    if RoundingScheme.NEAREST not in pool:
        return None
    mu = rng.uniform(0.3, 2.0)
    sigma2 = rng.uniform(0.25, 1.0)
    m = rng.randint(0, 3)
    n = rng.choice((1, 3))
    fs = FloatSystem(7, -40, 6)
    eps = RoundingScheme.NEAREST.eps(2.0 ** -7)
    rep = B.normal_partial_moment_bound(mu, sigma2, m, n, eps)
    model = make_normal(mu, sigma2)
    a, b = model.effective_range()
    orc = err_weighted_integral(fs, RoundingScheme.NEAREST, Weight(model, mu, m), a, b, n, signed=True)
    desc = f"normal-partial mu={mu:.2f} s2={sigma2:.2f} m={m} n={n}"
    return [_result("normal_partial", desc, orc.value, rep.value)]


_GENERATORS = (
    _gen_strong,
    _gen_mixed,
    _gen_centered,
    _gen_interval,
    _gen_unimodal,
    _gen_sheppard,
    _gen_tiers,
    _gen_float,
    _gen_normal_partial,
)


def run_suite(
    n_instances: int = 200,
    seed: int = 0,
    scheme: RoundingScheme | None = None,
    bound_scale: float = 1.0,
) -> list[CheckResult]:
    """Generate and evaluate the randomized instance suite.

    ``bound_scale`` shrinks every bound before comparison; 1.0 is the real
    check, 0.5 is the self-test that must produce violations.
    """
    if n_instances < 1:
        raise ConfigError(f"need at least one instance, got {n_instances}")
    rng = random.Random(seed)
    pool = tuple(RoundingScheme) if scheme is None else (scheme,)
    results: list[CheckResult] = []
    i = 0
    # terminates: _gen_strong, once per cycle, returns a check for any pool
    while len(results) < n_instances:
        gen = _GENERATORS[i % len(_GENERATORS)]
        i += 1
        out = gen(rng, pool)
        if not out:
            continue
        if bound_scale != 1.0:
            out = [_result(r.kind, r.description, r.oracle, r.bound * bound_scale) for r in out]
        results.extend(out)
    return results[:n_instances]


def worst_margin(results: list[CheckResult]) -> CheckResult:
    return min(results, key=lambda r: r.margin)


@dataclass(frozen=True)
class SweepRow:
    """One sweep offset; the field names are the CSV header and the JSON keys.
    Bounds for tiers a scheme cannot support are None (directed rounding
    has no cancellation tiers) and serialize as empty."""

    offset: float
    delta_E: float
    delta_V: float
    bound_A_E: float
    bound_B_E: float | None
    bound_C_E: float | None
    bound_D_E: float | None
    bound_A_V: float
    bound_B_V: float | None
    bound_C_V: float | None

    def violations(self) -> list[str]:
        out = []
        for name in (f.name for f in fields(self) if f.name.startswith("bound_")):
            # bound_<tier>_<E|V> bounds the shift delta_<E|V>
            bound, q = getattr(self, name), name[-1]
            shift = abs(getattr(self, f"delta_{q}"))
            if bound is not None and shift > bound + SWEEP_BUDGET:
                out.append(f"|Delta_{q}| = {shift:.3e} exceeds tier {name[6:]} bound {bound:.3e}")
        return out


def offset_sweep(
    model: DensityModel,
    delta: float,
    n_offsets: int,
    scheme: RoundingScheme = RoundingScheme.NEAREST,
) -> list[SweepRow]:
    """Quadrature Delta_E / Delta_V against tier bounds over a full period
    of mesh offsets [0, 2*delta); each row's ``violations`` judges it."""
    if n_offsets < 2:
        raise PreconditionError("need at least 2 offsets")
    mesh0 = UniformMesh(delta, 0.0)
    de_a, dv_a = B.mean_and_variance_diff_bounds(model, "A", mesh=mesh0, scheme=scheme)
    tiered = scheme.cancels
    if tiered:
        de_b, dv_b = B.mean_and_variance_diff_bounds(model, "B", mesh=mesh0, scheme=scheme)
        de_c, dv_c = B.mean_and_variance_diff_bounds(model, "C", mesh=mesh0, scheme=scheme)
    rows = []
    for a in np.linspace(0.0, mesh0.step, n_offsets, endpoint=False):
        mesh = UniformMesh(delta, float(a))
        if tiered:
            de_d, _ = B.mean_and_variance_diff_bounds(model, "D", mesh=mesh, scheme=scheme)
        de, dv = delta_e_and_v(model, mesh, scheme)
        row = SweepRow(
            offset=float(a),
            delta_E=de.value,
            delta_V=dv.value,
            bound_A_E=de_a.value,
            bound_B_E=de_b.value if tiered else None,
            bound_C_E=de_c.value if tiered else None,
            bound_D_E=de_d.value if tiered else None,
            bound_A_V=dv_a.value,
            bound_B_V=dv_b.value if tiered else None,
            bound_C_V=dv_c.value if tiered else None,
        )
        rows.append(row)
    return rows
