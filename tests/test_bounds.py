import dataclasses
import json
import math

import numpy as np
import pytest

from roundmoments import (
    FloatSystem,
    UniformMesh,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
)
from roundmoments.bounds import (
    ADDITIVE,
    MULTIPLICATIVE,
    BoundReport,
    _gamma_tail,
    centered_moment_first_order,
    float_moment_bound,
    interval_error_bound,
    mean_and_variance_diff_bounds,
    mixed_moment_bound,
    normal_partial_moment_bound,
    plan_measurement,
    rounded_chebyshev,
    rounded_sum_bound,
    sheppard_two_sided,
    strong_bound,
    unimodal_moment_bound,
)
from roundmoments.errors import ConfigError, PreconditionError
from roundmoments.oracle import delta_e_and_v
from roundmoments.quadrature import adaptive_quad
from roundmoments.rounding import RoundingScheme as RS

NEGLIGIBLE_NOTE = "overflow remainder negligible; reported as zero"


def test_strong_bound_values(semicircle):
    assert strong_bound(semicircle, 2, ADDITIVE, 0.1).value == pytest.approx(0.01)
    got = strong_bound(semicircle, 1, MULTIPLICATIVE, 0.01).value
    assert got == pytest.approx(4 / (3 * math.pi) * 0.01, rel=1e-10)
    assert strong_bound(semicircle, 3, MULTIPLICATIVE, 0.0).value == 0.0


def test_mixed_moment_part_one(semicircle):
    # m=0, n=1 additive bounds |E err| by delta itself
    assert mixed_moment_bound(semicircle, 0.0, 0, 1, ADDITIVE, 0.3).value == pytest.approx(0.3)
    got = mixed_moment_bound(semicircle, 0.0, 1, 1, ADDITIVE, 0.1).value
    assert got == pytest.approx(4 / (3 * math.pi) * 0.1, rel=1e-12)


def test_mixed_moment_symmetry_reduces_to_raw_moment():
    # density fully right of zero: no asymmetric remainder on the negatives
    model = make_semicircle(0.5, 2.0)
    rep = mixed_moment_bound(model, 0.0, 1, 2, MULTIPLICATIVE, 0.01, use_symmetry=True)
    assert rep.value == pytest.approx(model.raw_moment(3) * 0.01 ** 2, rel=1e-10)


def test_mixed_moment_symmetry_requires_odd_sum(semicircle):
    with pytest.raises(PreconditionError, match=r"symmetry form needs m \+ n odd"):
        mixed_moment_bound(semicircle, 0.0, 1, 1, MULTIPLICATIVE, 0.01, use_symmetry=True)
    with pytest.raises(PreconditionError, match="additive symmetry form needs m odd"):
        mixed_moment_bound(semicircle, 0.0, 2, 1, ADDITIVE, 0.01, use_symmetry=True)


def test_centered_k2_matches_three_term_assembly(semicircle):
    # brute-force the expansion from its mixed-bound pieces
    delta = 0.1
    b11 = mixed_moment_bound(semicircle, semicircle.mean, 1, 1, ADDITIVE, delta).value
    b02 = mixed_moment_bound(semicircle, semicircle.mean, 0, 2, ADDITIVE, delta).value
    b01 = mixed_moment_bound(semicircle, semicircle.mean, 0, 1, ADDITIVE, delta).value
    want = 2 * b11 + b02 + 2 * b01 ** 2
    rep = centered_moment_first_order(semicircle, 2, ADDITIVE, delta)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.value == pytest.approx(2 * (4 / (3 * math.pi)) * 0.1 + 3 * 0.01, rel=1e-12)


def test_centered_zero_delta(semicircle):
    assert centered_moment_first_order(semicircle, 3, ADDITIVE, 0.0).value == 0.0


def test_centered_k3_brute_force_binomial_sum(std_normal):
    # independently evaluate the expansion term by term
    delta = 0.05
    model = std_normal
    d = delta  # bound on |E err|

    def bmn(m, n):
        return model.abs_mixed_moment(m, 0, model.mean) * delta ** n

    total = 0.0
    for i in range(1, 4):
        for j in range(0, i + 1):
            coef = math.comb(3, i) * math.comb(i, j)
            if j == 0:
                central = abs(model.central_moment(3 - i)) if (3 - i) != 1 else 0.0
                total += coef * d ** i * central
            else:
                total += coef * d ** (i - j) * bmn(3 - i, j)
    rep = centered_moment_first_order(model, 3, ADDITIVE, delta)
    assert rep.value == pytest.approx(total, rel=1e-12)


def test_interval_error_closed_form_cell_integral():
    # per-cell |err| integral under nearest: two triangles of area delta^2/2
    # per cell of width 2*delta, so [0,1] on the integer mesh gives 1/4
    rep = interval_error_bound(0.0, 1.0, 1, RS.NEAREST, ADDITIVE, 0.5, endpoints_on_grid=True)
    assert rep.value == pytest.approx(0.25, rel=1e-14)
    assert rep.higher_order.coef == 0.0


def test_interval_error_signed_aligned_zero():
    rep = interval_error_bound(0.0, 1.0, 1, RS.NEAREST, ADDITIVE, 0.5, endpoints_on_grid=True, signed=True)
    assert rep.value == 0.0


def test_interval_error_stochastic_k1_unbiased():
    rep = interval_error_bound(-2.3, 4.7, 1, RS.STOCHASTIC, ADDITIVE, 1.0, signed=True)
    assert rep.value == 0.0


def test_interval_error_directed_zero_straddle_keeps_slack():
    rep = interval_error_bound(-1.0, 1.0, 1, RS.TOWARD_ZERO, ADDITIVE, 0.5, endpoints_on_grid=True)
    assert rep.higher_order.coef == pytest.approx(0.5)  # c(1) straddle excess


def test_interval_error_signed_requires_odd_k():
    with pytest.raises(PreconditionError, match="signed error-power bound needs odd k"):
        interval_error_bound(0.0, 1.0, 2, RS.NEAREST, ADDITIVE, 0.5, signed=True)
    with pytest.raises(PreconditionError, match="signed cancellation needs nearest or stochastic rounding"):
        interval_error_bound(0.0, 1.0, 1, RS.TOWARD_ZERO, ADDITIVE, 0.5, signed=True)


@pytest.mark.parametrize("scheme", [RS.TOWARD_ZERO, RS.NEAREST])
def test_endpoint_inflation_needs_eps_below_one(scheme):
    # beta(eps) = 1/(1 - eps) would divide by zero at eps = 1 and turn
    # negative past it
    for eps in (1.0, 1.5):
        with pytest.raises(PreconditionError, match="needs eps < 1"):
            interval_error_bound(1.0, 2.0, 1, scheme, MULTIPLICATIVE, eps)
    # below 1 nothing moves
    assert interval_error_bound(1.0, 2.0, 1, scheme, MULTIPLICATIVE, 0.9).value == 405.67500000000024
    assert interval_error_bound(1.0, 2.0, 2, scheme, MULTIPLICATIVE, 0.9).value == 4374.630000000004


def test_unimodal_signed_mult_constant(semicircle):
    # (k+1) d(k) * envelope moment * eps^(k+1), with no endpoint inflation
    from roundmoments import Envelope

    env = Envelope(semicircle)
    rep = unimodal_moment_bound(semicircle, 1, RS.NEAREST, MULTIPLICATIVE, 0.01, signed=True)
    want = 2.0 * 0.5 * env.weighted_integral(1) * 0.01 ** 2
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_unimodal_bounds_semicircle(semicircle):
    got = unimodal_moment_bound(semicircle, 1, RS.NEAREST, ADDITIVE, 0.1, signed=True)
    assert got.value == pytest.approx(0.01 / math.pi, rel=1e-12)
    got = unimodal_moment_bound(semicircle, 2, RS.NEAREST, ADDITIVE, 0.1)
    assert got.value == pytest.approx(0.01 / 3 + 8 * 0.001 / (3 * math.pi), rel=1e-12)
    assert unimodal_moment_bound(semicircle, 1, RS.NEAREST, ADDITIVE, 0.0, signed=True).value == 0.0
    assert unimodal_moment_bound(semicircle, 2, RS.NEAREST, MULTIPLICATIVE, 0.0).value == 0.0


def test_sheppard_two_sided_values(semicircle):
    rep = sheppard_two_sided(1.0, 1.0, 2, 0.1)
    center, radius = rep.leading.value, rep.higher_order.value
    assert center == pytest.approx(0.01 / 3, rel=1e-14)
    assert radius == pytest.approx(4 / 3 * 0.001, rel=1e-14)
    rep = sheppard_two_sided(1.0, semicircle.peak, 2, 0.1)
    center, radius = rep.leading.value, rep.higher_order.value
    assert center == pytest.approx(0.01 / 3, rel=1e-14)
    assert radius == pytest.approx(8 * 0.001 / (3 * math.pi), rel=1e-12)
    rep = sheppard_two_sided(1.0, semicircle.peak, 2, 0.0)
    assert (rep.leading.value, rep.higher_order.value) == (0.0, 0.0)


def test_sheppard_two_sided_overflow_is_a_config_error():
    # delta^3 overflows: a ConfigError, as for every other report
    with pytest.raises(ConfigError):
        sheppard_two_sided(1.0, 1.0, 2, 1e200)


@pytest.mark.parametrize("weight_integral", [0.0, -1.0, math.nan])
def test_sheppard_two_sided_needs_a_positive_weight_integral(weight_integral):
    with pytest.raises(ConfigError, match="weight integral must be positive"):
        sheppard_two_sided(weight_integral, 1.0, 2, 0.1)


def test_sheppard_recovers_classical_variance_correction():
    # full-gap spacing delta0: the n = 2 center is delta0^2 / 12
    delta0 = 0.3
    rep = sheppard_two_sided(1.0, 1.0, 2, delta0 / 2)
    assert rep.leading.value == pytest.approx(delta0 ** 2 / 12.0, rel=1e-14)


def test_tier_values_semicircle(semicircle):
    de, dv = mean_and_variance_diff_bounds(semicircle, "A", delta=0.1)
    assert de.value == pytest.approx(0.1)
    assert dv.value == pytest.approx(2 * (4 / (3 * math.pi)) * 0.1 + 3 * 0.01, rel=1e-12)
    de, _ = mean_and_variance_diff_bounds(semicircle, "B", delta=0.1)
    assert de.value == pytest.approx(0.01 / math.pi, rel=1e-12)
    de, _ = mean_and_variance_diff_bounds(semicircle, "C", mesh=UniformMesh(0.1, 0.0))
    want = 0.5 * float(semicircle.density(np.array(0.1 - 1.0))) * 0.01
    assert de.value == pytest.approx(want, rel=1e-6)
    de, _ = mean_and_variance_diff_bounds(semicircle, "D", mesh=UniformMesh(0.1, 0.0))
    assert de.value == 0.0


def test_tier_monotonicity_on_semicircle_family():
    for r in (0.8, 1.0, 1.5):
        model = make_semicircle(r, 0.0)
        for delta in (0.02, 0.05, 0.1, 0.2 * r):
            mesh = UniformMesh(delta, 0.37 * delta)
            vals = {}
            for tier in ("A", "B", "C", "D"):
                de, dv = mean_and_variance_diff_bounds(model, tier, mesh=mesh)
                vals[tier] = (de.value, dv.value)
            assert vals["B"][0] <= vals["A"][0]
            assert vals["B"][1] <= vals["A"][1]
            assert vals["C"][0] <= vals["B"][0] + 1e-12
            assert vals["D"][0] <= vals["C"][0] + 1e-12


def test_cancellation_tiers_dominate_on_a_coarse_mesh(semicircle):
    # the mesh is thousands of supports wide, so the remainder's even scan
    # steps clean over the semicircle, which is 0 at both ends
    mesh = UniformMesh(8000.0, 4000.0)
    de, dv = delta_e_and_v(semicircle, mesh, RS.NEAREST)
    assert abs(de.value) == pytest.approx(4000.0)
    for tier in ("C", "D"):
        de_b, dv_b = mean_and_variance_diff_bounds(semicircle, tier, mesh=mesh)
        assert abs(de.value) <= de_b.value
        assert abs(dv.value) <= dv_b.value


def test_tier_b_order_is_exactly_two(semicircle):
    # log-log slope of the tier-B mean bound in delta is 2 by construction
    d1, d2 = 0.05, 0.1
    b1, _ = mean_and_variance_diff_bounds(semicircle, "B", delta=d1)
    b2, _ = mean_and_variance_diff_bounds(semicircle, "B", delta=d2)
    slope = math.log(b2.value / b1.value) / math.log(d2 / d1)
    assert slope == pytest.approx(2.0, abs=1e-12)


def test_tier_preconditions():
    model = make_semicircle(1.0, 0.0)
    with pytest.raises(PreconditionError):
        mean_and_variance_diff_bounds(model, "C", delta=0.1)  # no mesh
    with pytest.raises(PreconditionError):
        mean_and_variance_diff_bounds(model, "B", delta=0.1, scheme=RS.TOWARD_ZERO)


@pytest.mark.parametrize("kw", [{}, {"mesh": UniformMesh(0.1, 0.03), "delta": 0.01}], ids=["neither", "both"])
def test_tier_bounds_take_a_mesh_or_a_delta(semicircle, kw):
    # an explicit delta beside a mesh would scale the mesh's tier-D center
    # by the wrong delta
    with pytest.raises(ConfigError, match="exactly one of delta and a mesh"):
        mean_and_variance_diff_bounds(semicircle, "D", **kw)


def test_float_bound_exponential_terms():
    # monotone density: per-binade terms (f(a) - f(b)) * half_gap^2
    lam = 1.0
    model = make_exponential(lam)
    fs = FloatSystem(4, -4, 4)
    rep = float_moment_bound(model, fs, 1, RS.NEAREST, signed=True)
    want = 0.0
    f = lambda t: lam * math.exp(-lam * t)
    want += (lam - f(2.0 ** -4)) * (2.0 ** (-4 - 4 - 1)) ** 2  # subnormal stretch
    for i in range(-4, 4):
        hg = 2.0 ** (i - 4 - 1)
        want += (f(2.0 ** i) - f(2.0 ** (i + 1))) * hg ** 2
    # remainder beyond the top is genuinely nonzero here (top = 16)
    tail, _ = adaptive_quad(lambda x: model.density(x) * (x - 16.0), 16.0, np.inf)
    remainder = rep.higher_order.coef
    assert remainder == pytest.approx(tail, rel=1e-6)
    assert NEGLIGIBLE_NOTE not in rep.notes
    assert rep.value == pytest.approx(want + remainder, rel=1e-6)
    # factored coefficient is finite and scales the right power
    eps = 2.0 ** -5
    assert rep.leading.coef == pytest.approx((rep.value - remainder) / eps ** 2, rel=1e-12)


def test_float_bound_constant_density_single_binade():
    # constant density on a grid-aligned binade cancels exactly: the
    # sup - inf term vanishes and the support edges are grid points
    model = make_uniform(1.0, 2.0)
    fs = FloatSystem(6, -6, 6)
    rep = float_moment_bound(model, fs, 1, RS.NEAREST, signed=True)
    assert NEGLIGIBLE_NOTE in rep.notes
    assert rep.value <= 1e-12


def test_float_bound_clipped_stretch_keeps_infimum_term():
    # one binade [1, 2] with step 1/8: a support edge off the grid loses the
    # aligned cancellation of the flat part, inf * d(1) * (step / 2)^2
    fs = FloatSystem(3, -4, 2)
    rep = float_moment_bound(make_uniform(1.0, 1.5), fs, 1, RS.NEAREST, signed=True)
    assert rep.value == 0.0
    for lo, hi in ((1.05, 1.5), (-1.5, -1.05)):
        rep = float_moment_bound(make_uniform(lo, hi), fs, 1, RS.NEAREST, signed=True)
        assert rep.value == 1.0 / (1.5 - 1.05) * 0.5 * (1.0 / 16.0) ** 2


def test_float_bound_overflow_remainder_below_minus_top():
    # a support wholly below -top keeps only the lower remainder, the mirror
    # of the upper one: the integral of f(x) (-top - x)^2 over [-5.5, -4]
    fs, below = FloatSystem(4, -4, 2), make_semicircle(1.0, -4.5)
    low = float_moment_bound(below, fs, 2, RS.NEAREST, signed=False)
    high = float_moment_bound(make_semicircle(1.0, 4.5), fs, 2, RS.NEAREST, signed=False)
    want, _ = adaptive_quad(lambda x: below.density(x) * (-4.0 - x) ** 2, -5.5, -4.0)
    assert low.higher_order.coef == pytest.approx(want, rel=1e-10) and want > 0.0
    assert low.higher_order.coef == pytest.approx(high.higher_order.coef, rel=1e-12)
    assert low.value == pytest.approx(high.value, rel=1e-12)


def test_float_bound_negligible_tail_flag():
    model = make_semicircle(1.0, 0.0)
    rep = float_moment_bound(model, FloatSystem(6, -6, 6), 1, RS.NEAREST, signed=True)
    assert NEGLIGIBLE_NOTE in rep.notes and rep.higher_order.coef == 0.0


@pytest.mark.parametrize("scheme", [RS.NEAREST, RS.STOCHASTIC])
@pytest.mark.parametrize("k,signed", [(1, True), (3, True), (2, False)])
def test_float_bound_two_bump_binade_is_not_unimodal(scheme, k, signed):
    # two bumps inside the binade [1, 2]: the one-region-per-stretch argument
    # needs a unimodal density, so no such model can be made, let alone
    # reach the bound (declared at 1.25, the top of the first bump)
    def pdf(x, out):
        out[...] = np.where((x >= 1.0) & (x <= 2.0), 1.0 - np.cos(4.0 * math.pi * (x - 1.0)), 0.0)
        return out

    with pytest.raises(PreconditionError, match="density increases right of the declared mode"):
        model = dataclasses.replace(make_uniform(1.0, 2.0), _pdf=pdf, mode=1.25)
        float_moment_bound(model, FloatSystem(4, -4, 3), k, scheme, signed=signed)


def test_normal_partial_constant():
    rep = normal_partial_moment_bound(1.0, 1.0, 0, 1, 0.01)
    want = (1 / math.sqrt(2 * math.pi) + 1.0) * 0.01 ** 2
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert normal_partial_moment_bound(1.0, 1.0, 2, 1, 0.0).value == 0.0
    with pytest.raises(PreconditionError, match="n must be odd and positive"):
        normal_partial_moment_bound(1.0, 1.0, 0, 2, 0.01)


@pytest.mark.parametrize("m", [1.5, -1])
def test_normal_partial_rejects_non_integer_or_negative_m(m):
    # the gamma tail's recurrence is exact only at integer m >= 0
    with pytest.raises(ConfigError):
        normal_partial_moment_bound(1.0, 1.0, m, 1, 0.01)


@pytest.mark.parametrize("m", [300, 400, 2048])
def test_normal_partial_overflow_is_a_config_error(m):
    # s^m, 2^(m/2) and the gamma tail's x^s overflow a double here
    with pytest.raises(ConfigError, match="overflows a double"):
        normal_partial_moment_bound(0.7, 0.6, m, 1, 2.0 ** -8)


def test_gamma_tail_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for m in range(41):
        with mpmath.workdps(40):
            want = mpmath.gammainc(mpmath.mpf(m + 1) / 2, mpmath.mpf(m) / 2)
            assert abs((_gamma_tail(m) - want) / want) <= 4e-16, m


def test_normal_partial_gamma_tail_identity():
    # the gamma tail term equals the integral it stands for (sigma = 1)
    m = 2
    tail = 2.0 ** (m / 2.0) / math.sqrt(math.pi) * _gamma_tail(m)
    want, _ = adaptive_quad(
        lambda x: 2.0 * x ** m * np.exp(-x * x / 2.0) / math.sqrt(2 * math.pi), math.sqrt(m), np.inf
    )
    assert tail == pytest.approx(want, rel=1e-10)


def test_planner_closed_form():
    n_min, dmax = plan_measurement(1.0, 1.0, 0.01, n=400)
    assert n_min == 101
    assert dmax == pytest.approx(1.0 / 3.0, rel=1e-14)
    with pytest.raises(PreconditionError, match="within the infeasible budget"):
        plan_measurement(1.0, 1.0, 0.01, n=100)


def test_chebyshev_reduces_classically():
    assert rounded_chebyshev(2.0, 50, 0.0, 0.5) == pytest.approx(2.0 / (50 * 0.25), rel=1e-14)
    with pytest.raises(PreconditionError):
        rounded_chebyshev(1.0, 10, 0.5, 0.4)


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_planner_and_chebyshev_reject_n_beyond_a_double(delta):
    # n p and n t^2 would convert n to a double and overflow
    with pytest.raises(ConfigError):
        plan_measurement(1.0, 1.0, 0.01, n=10 ** 400)
    with pytest.raises(ConfigError):
        rounded_chebyshev(1.0, 10 ** 400, delta, 1.0)


def test_rounded_sum_values():
    assert rounded_sum_bound([1.0], 0.01).value == 0.0
    assert rounded_sum_bound([1.0, 1.0, 1.0], 0.01).value == pytest.approx(0.06, rel=1e-14)
    assert rounded_sum_bound([2.0, 3.0], 0.0).value == 0.0
    rep = rounded_sum_bound([1.0, 2.0], 0.01)
    assert rep.notes  # unquantified remainder is flagged, not folded in


def test_rounded_sum_needs_n_minus_one_eps_below_one():
    assert rounded_sum_bound([1.0] * 3, 0.5 - 2.0 ** -53).value == pytest.approx(2.0 * 3.0 * 0.5)
    assert rounded_sum_bound([1.0], 1.0).value == 0.0
    for abs_means, eps in (([1.0] * 3, 0.5), ([1.0] * 200, 2.0 ** -5)):
        with pytest.raises(PreconditionError):
            rounded_sum_bound(abs_means, eps)


def test_report_json_round_trip(semicircle):
    reports = [
        strong_bound(semicircle, 2, ADDITIVE, 0.1),
        unimodal_moment_bound(semicircle, 1, RS.NEAREST, ADDITIVE, 0.1, signed=True),
        sheppard_two_sided(1.0, 1.0, 2, 0.1),
        rounded_sum_bound([0.5, 1.5], 2.0 ** -10),
        float_moment_bound(semicircle, FloatSystem(6, -6, 6), 1, RS.NEAREST, signed=True),
    ]
    assert reports[-1].notes and reports[-2].notes
    for rep in reports:
        blob = json.dumps(rep.to_json())
        assert BoundReport.from_json(json.loads(blob)) == rep
        assert json.loads(blob).keys() >= {"value", "leading", "higher_order", "theorem", "tier", "mode", "notes"}


def test_report_invariant_value_is_sum(semicircle):
    rep = unimodal_moment_bound(semicircle, 2, RS.NEAREST, ADDITIVE, 0.1)
    assert rep.value == rep.leading.value + rep.higher_order.value
