import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundmoments import FloatSystem, UniformMesh, gap_stats, round_value
from roundmoments.errors import ConfigError, PreconditionError
from roundmoments.oracle import Weight, err_weighted_integral
from roundmoments.quadrature import gauss_legendre_nodes
from roundmoments.rounding import RoundingScheme, err_power, int_power, stoch_err_power, stoch_expectation

DETERMINISTIC_SCHEMES = (RoundingScheme.TOWARD_ZERO, RoundingScheme.AWAY_FROM_ZERO, RoundingScheme.NEAREST)

INT_MESH = UniformMesh(0.5, 0.0)  # spacing 1: the integers


def test_nearest_basic():
    assert round_value(INT_MESH, RoundingScheme.NEAREST, 0.3) == 0.0
    assert round_value(INT_MESH, RoundingScheme.NEAREST, 0.3) - 0.3 == pytest.approx(-0.3)


def test_toward_zero_negative():
    assert round_value(INT_MESH, RoundingScheme.TOWARD_ZERO, -0.3) == 0.0


def test_away_from_zero():
    assert round_value(INT_MESH, RoundingScheme.AWAY_FROM_ZERO, 0.3) - 0.3 == pytest.approx(0.7)


def test_stochastic_threshold():
    assert round_value(INT_MESH, RoundingScheme.STOCHASTIC, 0.25, u=0.2) == 1.0
    assert round_value(INT_MESH, RoundingScheme.STOCHASTIC, 0.25, u=0.3) == 0.0


def test_stochastic_needs_variate():
    with pytest.raises(PreconditionError, match="stochastic rounding needs a uniform variate"):
        round_value(INT_MESH, RoundingScheme.STOCHASTIC, 0.25)


def test_grid_points_are_fixed_for_every_scheme():
    xs = INT_MESH.points_in(-5.0, 5.0)
    for scheme in RoundingScheme:
        u = np.full(xs.shape, 0.37)
        out = round_value(INT_MESH, scheme, xs, u)
        np.testing.assert_array_equal(out, xs)


def test_nearest_tie_goes_away_from_zero():
    assert round_value(INT_MESH, RoundingScheme.NEAREST, 1.5) == 2.0
    assert round_value(INT_MESH, RoundingScheme.NEAREST, -1.5) == -2.0


def test_table_eps_delta():
    nearest = RoundingScheme.NEAREST
    assert (nearest.eps(0.01), nearest.delta(0.001)) == (0.005, 0.0005)
    tz = RoundingScheme.TOWARD_ZERO
    assert tz.eps(0.01) == pytest.approx(0.01 / 1.01)
    assert tz.delta(0.001) == 0.001
    for scheme in (RoundingScheme.AWAY_FROM_ZERO, RoundingScheme.STOCHASTIC):
        assert (scheme.eps(0.01), scheme.delta(0.001)) == (0.01, 0.001)
    for scheme in RoundingScheme:
        assert (scheme.eps(0.0), scheme.delta(0.0)) == (0.0, 0.0)
    assert [s for s in RoundingScheme if s.cancels] == [RoundingScheme.NEAREST, RoundingScheme.STOCHASTIC]


def test_constant_table():
    for scheme in DETERMINISTIC_SCHEMES:
        for k in range(1, 6):
            assert scheme.c(k) == pytest.approx(1.0 / (k + 1))
            assert scheme.d(k) == pytest.approx(1.0 / (k + 1))
    nearest = RoundingScheme.NEAREST
    assert nearest.c(2) == pytest.approx(1.0 / 3.0)
    assert nearest.beta(0.25) == pytest.approx(1.0 / 0.75)
    assert RoundingScheme.TOWARD_ZERO.beta(0.25) == pytest.approx(1.0 / 0.75)
    assert RoundingScheme.AWAY_FROM_ZERO.beta(0.25) == 1.0
    with pytest.raises(PreconditionError, match="eps < 1"):
        nearest.beta(1.0)
    st_ = RoundingScheme.STOCHASTIC
    assert st_.d(1) == 0.0
    assert st_.c(2) == pytest.approx(1.0 / 6.0)
    assert st_.c(1) == pytest.approx(1.0 / 3.0)
    assert st_.d(2) == pytest.approx((1 - 5 / 8) / 12)
    assert st_.beta(0.25) == 1.0


def stoch_expected_err_pows(lo, hi, x, k):
    """(E|err|^k, E err^k) under stochastic rounding of x in its cell [lo, hi],
    taken as the oracle takes them: the expectation over the cell ends."""
    return tuple(
        float(stoch_expectation(x, lo, hi, err_power(lo, x, k, signed), err_power(hi, x, k, signed)))
        for signed in (False, True)
    )


def test_stoch_expected_pows_two_outcome():
    # two-outcome expectation computed directly: p = 0.25 on the unit cell
    abs_pow, signed_pow = stoch_expected_err_pows(0.0, 1.0, 0.25, 2)
    assert abs_pow == pytest.approx(0.0625 * 0.75 + 0.5625 * 0.25)
    assert signed_pow == pytest.approx(abs_pow)  # squares coincide
    _, signed1 = stoch_expected_err_pows(0.0, 1.0, 0.25, 1)
    assert signed1 == 0.0
    assert stoch_expected_err_pows(0.0, 1.0, 0.0, 3) == (0.0, 0.0)
    assert stoch_expected_err_pows(0.5, 0.5, 0.5, 2) == (0.0, 0.0)


def test_stoch_expected_pows_saturated_cell_rounds_to_clamp():
    # beyond +/- top the cell is degenerate and rd(x) is the clamp itself
    assert stoch_expected_err_pows(-4.0, -4.0, -5.0, 3) == (1.0, 1.0)
    assert stoch_expected_err_pows(4.0, 4.0, 6.0, 3) == (8.0, -8.0)


def test_stochastic_pointwise_unbiased_everywhere():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-40.0, 40.0, 1000)
    mesh = UniformMesh(0.37, 0.11)
    lo, hi = mesh.neighbors(xs)
    for x, a, b in zip(xs, lo, hi):
        if a == b:
            continue
        _, signed = stoch_expected_err_pows(float(a), float(b), float(x), 1)
        assert abs(signed) < 1e-15


# --- closed-form stochastic error moments ------------------------------------

U = 2.0 ** -53


def exact_two_end(x, lo, hi, k, signed):
    """E[err^k] (or E|err|^k) over the two cell ends, (lo - x)^k (1 - p) +
    (hi - x)^k p, evaluated at 50 digits on the given doubles."""
    with mpmath.workdps(50):
        x, lo, hi = mpmath.mpf(x), mpmath.mpf(lo), mpmath.mpf(hi)
        p = (x - lo) / (hi - lo)
        e_lo, e_hi = (e if signed else abs(e) for e in (lo - x, hi - x))
        return e_lo ** k * (1 - p) + e_hi ** k * p


def stochastic_test_points():
    """Cells [lo, hi] of random place and width, each with the 20- and
    10-node Gauss points mapped into it as the oracle maps them, and points
    within 1e-12 w of either end."""
    rng = np.random.default_rng(21)
    lo = rng.uniform(-8.0, 8.0, 32)
    hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, lo.size)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = np.concatenate([gauss_legendre_nodes(n)[0] for n in (20, 10)])
    ends = np.array([1e-12, 3e-13, 1e-13, 2e-15])
    w = (hi - lo)[:, None]
    x = np.hstack([mid[:, None] + half[:, None] * nodes, lo[:, None] + w * ends, hi[:, None] - w * ends])
    lo, hi = (np.broadcast_to(v[:, None], x.shape).ravel() for v in (lo, hi))
    x = x.ravel()
    inside = (lo < x) & (x < hi)
    return x[inside], lo[inside], hi[inside]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stoch_err_power_matches_exact_expectation(k):
    x, lo, hi = stochastic_test_points()
    assert x.size > 1000
    abs_exact = np.array([float(exact_two_end(*v, k, False)) for v in zip(x, lo, hi)])
    assert np.all(abs_exact > 0.0)
    for signed in (True, False):
        exact = [exact_two_end(*v, k, signed) for v in zip(x, lo, hi)]
        closed = stoch_err_power(x, lo, hi, k, signed)
        err = np.array([float(abs(mpmath.mpf(c) - e)) for c, e in zip(closed, exact)]) / abs_exact
        assert err.max() <= 8.0 * U, (signed, err.max() / U)
        # the two-end form f(lo) (1 - p) + f(hi) p loses 1 - p's digits near hi
        two_end = stoch_expectation(x, lo, hi, err_power(lo, x, k, signed), err_power(hi, x, k, signed))
        old = np.array([float(abs(mpmath.mpf(t) - e)) for t, e in zip(two_end, exact)]) / abs_exact
        assert old.max() > 8.0 * U, (signed, old.max() / U)
    if k == 1:
        assert np.all(stoch_err_power(x, lo, hi, 1, True) == 0.0)


def test_stoch_err_power_degenerate_cells_and_k0():
    # a saturated or on-grid point keeps the clamp error (lo - x)^k
    x, lo = np.array([-5.0, 6.0, 0.5]), np.array([-4.0, 4.0, 0.5])
    for k in range(5):
        for signed in (True, False):
            np.testing.assert_array_equal(stoch_err_power(x, lo, lo, k, signed), err_power(lo, x, k, signed))
    np.testing.assert_array_equal(stoch_err_power(np.array([0.1, 0.7]), 0.0, 1.0, 0, True), [1.0, 1.0])
    assert stoch_err_power(0.25, 0.0, 1.0, 2, True) == 0.25 * 0.75


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stochastic_unit_cell_integrals_are_the_constants(k):
    # weight 1 on the integers' unit cells: E|err|^k integrates to c(k), up
    # to the 8 u of each node and the sum over the cell's graded pieces
    c = RoundingScheme.STOCHASTIC.c(k)
    for i in range(-3, 4):
        got = err_weighted_integral(INT_MESH, RoundingScheme.STOCHASTIC, Weight(), i, i + 1.0, k)
        assert got.value == pytest.approx(c, rel=16.0 * U)
        signed = err_weighted_integral(INT_MESH, RoundingScheme.STOCHASTIC, Weight(), i, i + 1.0, k, signed=True)
        if k % 2 == 0:
            assert signed.value == got.value
        elif k == 1:
            assert (signed.value, signed.abs_error_estimate) == (0.0, 0.0)
        else:
            # mirrored Gauss nodes do not round to mirrored points
            assert abs(signed.value) <= 8.0 * U * c


def test_odd_symmetry_on_symmetric_grids():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-50.0, 50.0, 100_000)
    # grids containing zero mirror bit for bit; the midpoint-symmetric mesh
    # (offset = half_gap) is symmetric up to 1 ulp of canonical-form skew
    for grid in (UniformMesh(0.31, 0.0), FloatSystem(4, -6, 6)):
        for scheme in DETERMINISTIC_SCHEMES:
            plus = round_value(grid, scheme, xs)
            minus = round_value(grid, scheme, -xs)
            np.testing.assert_array_equal(minus, -plus)
    grid = UniformMesh(0.31, 0.31)
    for scheme in DETERMINISTIC_SCHEMES:
        plus = round_value(grid, scheme, xs)
        minus = round_value(grid, scheme, -xs)
        np.testing.assert_allclose(minus, -plus, rtol=1e-13, atol=0.0)


def test_deterministic_monotonicity():
    # Directed schemes jump downward across a cell that straddles zero
    # (floor on positives, ceil on negatives), so monotonicity is a
    # grids-containing-zero property; nearest is monotone everywhere.
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(-20.0, 20.0, 50_000))
    for grid in (UniformMesh(0.25, 0.0), FloatSystem(4, -5, 5)):
        for scheme in DETERMINISTIC_SCHEMES:
            out = round_value(grid, scheme, xs)
            assert np.all(np.diff(out) >= 0.0)
    out = round_value(UniformMesh(0.25, 0.1), RoundingScheme.NEAREST, xs)
    assert np.all(np.diff(out) >= 0.0)


def test_error_model_compliance():
    # Assumption: |err| <= eps |x| and |err| <= delta with the Table-1 pair
    rng = np.random.default_rng(13)
    grid = FloatSystem(5, -8, 8)
    xs = rng.uniform(1.0 / 64.0, 255.0, 50_000) * rng.choice([-1.0, 1.0], 50_000)
    gs = gap_stats(grid, 1.0 / 64.0, 256.0)
    for scheme in DETERMINISTIC_SCHEMES:
        eps, delta = scheme.eps(gs.eps0), scheme.delta(gs.delta0)
        errs = round_value(grid, scheme, xs) - xs
        assert np.all(np.abs(errs) <= eps * np.abs(xs) * (1 + 1e-12))
        assert np.all(np.abs(errs) <= delta * (1 + 1e-12))
    # stochastic: both realizations stay inside the cell
    u = rng.random(xs.size)
    eps = RoundingScheme.STOCHASTIC.eps(gs.eps0)
    errs = round_value(grid, RoundingScheme.STOCHASTIC, xs, u) - xs
    assert np.all(np.abs(errs) <= eps * np.abs(xs) * (1 + 1e-12))


def test_stochastic_mc_mean_error_unbiased():
    rng = np.random.default_rng(2024)
    mesh = UniformMesh(0.25, 0.1)
    x = 0.4321
    u = rng.random(1_000_000)
    errs = round_value(mesh, RoundingScheme.STOCHASTIC, np.full(u.shape, x), u) - x
    se = errs.std() / math.sqrt(errs.size)
    assert abs(errs.mean()) < 4.0 * se


@settings(max_examples=300)
@given(
    x=st.floats(-30.0, 30.0),
    half_gap=st.floats(0.01, 2.0),
    offset=st.floats(0.0, 4.0),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_round_value_lands_on_neighbor(x, half_gap, offset, u):
    mesh = UniformMesh(half_gap, offset)
    lo, hi = (float(v) for v in mesh.neighbors(x))
    for scheme in RoundingScheme:
        out = round_value(mesh, scheme, x, u)
        assert out in (lo, hi)


# --- int_power ---------------------------------------------------------------

# Repeated squaring rounds once in each of its k - 1 multiplications and libm
# pow is within one ulp, so the two agree to about k ulp; allow twice that.
def _pow_rtol(k):
    return k * 2.0 ** -52


# signed, zero, tiny and large entries whose 8th powers are still normal
POW_SAMPLE = np.array(
    [-7e37, -3.7, -1.0, -0.3, -1e-30, -0.0, 0.0, 5e-31, 0.3, 1.0, 2.5, 123.456, 1e30]
)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_int_power_low_orders_bit_identical(k):
    x = np.concatenate([POW_SAMPLE, [np.nan, np.inf, -np.inf]])
    assert _same_bits(int_power(x, k), x ** k)
    assert _same_bits(int_power(x[:, None], k), x[:, None] ** k)
    assert int_power(-2.5, k) == (-2.5) ** k


@pytest.mark.parametrize("k", range(3, 9))
def test_int_power_matches_pow_within_k_ulp(k):
    rng = np.random.default_rng(k)
    mags = 10.0 ** rng.uniform(-30.0, 30.0, 10_000)
    x = np.concatenate([POW_SAMPLE, mags * rng.choice([-1.0, 1.0], mags.size)])
    got = int_power(x, k)
    want = x ** k
    np.testing.assert_allclose(got, want, rtol=_pow_rtol(k), atol=0.0)
    assert np.all(np.signbit(got) == np.signbit(want))
    assert np.all(np.isfinite(got)) and np.all((got == 0.0) == (x == 0.0))
    assert int_power(1.5, k) == pytest.approx(1.5 ** k, rel=_pow_rtol(k), abs=0.0)


@pytest.mark.parametrize("k", range(0, 9))
def test_int_power_propagates_nan_and_inf(k):
    x = np.array([np.nan, np.inf, -np.inf])
    np.testing.assert_array_equal(int_power(x, k), x ** k)


@pytest.mark.parametrize("k", [-1, 2.0, 1.5, "3", None])
def test_int_power_rejects_bad_exponent(k):
    with pytest.raises(ConfigError):
        int_power(np.ones(3), k)


def test_int_power_accepts_numpy_integer():
    assert _same_bits(int_power(POW_SAMPLE, np.int64(2)), POW_SAMPLE ** 2)
