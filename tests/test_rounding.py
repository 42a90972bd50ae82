import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundmoments import ExplicitSet, FloatSystem, UniformMesh, gap_stats, oracle, round_value
from roundmoments.errors import ConfigError, PreconditionError
from roundmoments.oracle import Weight, err_weighted_integral
from roundmoments.quadrature import gauss_legendre_nodes
from roundmoments.rounding import RoundingScheme, int_power

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
    taken as the oracle takes them: the constant coefficient of its rows on a
    piece whose midpoint is x."""
    cell = (np.array([x], dtype=float), np.array([lo], dtype=float), np.array([hi], dtype=float))
    return tuple(float(oracle._err_rows(RoundingScheme.STOCHASTIC, k, signed, *cell)[0, 0]) for signed in (False, True))


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


# --- the oracle's integrands as coefficient rows -----------------------------

U = 2.0 ** -53

# Partitions whose pieces the rows are checked on: range ends at the centre
# of a cell across zero and of one beside it, so the graded sub-cell pieces
# sit where B - A cancels; 1e-12 of a cell from its end; past a float
# system's top, on saturated cells; and a random explicit set.
ROW_PARTITIONS = [
    (UniformMesh(0.5, 0.3), -0.2, 2.8),
    (UniformMesh(0.37, 0.11), 0.48 + 0.74 * 1e-12, 3.4),
    (UniformMesh(0.05, 0.013), -1.9, 0.013 - 0.1 * 1e-12),
    (FloatSystem(4, -6, 3), -20.0, 0.75 + 0.015625),
    (ExplicitSet(np.sort(np.random.default_rng(8).uniform(-3.0, 3.0, 40)) ** 3), -2.0, 1.5),
]


def row_test_points(scheme):
    """(x - mid as the kernel forms it, mid, half-width, rounding data) at
    the nodes of the 4-node Gauss rule and the two outermost of the 20-node
    rule on every piece of ROW_PARTITIONS."""
    nodes = np.concatenate([gauss_legendre_nodes(4)[0], gauss_legendre_nodes(20)[0][[0, -1]]])[:, None]
    parts = [piece for grid, a, b in ROW_PARTITIONS for piece in oracle._chunks(None, grid, scheme, a, b)]
    lo_p, hi_p = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    rd = [np.concatenate([p[2][i] for p in parts]) for i in range(len(parts[0][2]))]
    mid, half = 0.5 * (lo_p + hi_p), 0.5 * (hi_p - lo_p)
    return nodes * half, mid, half, rd


def exact_expectation(f, x, rd):
    """E[f(rd(x))] at 50 digits: f at the target, or over the two cell ends
    with p = (x - lo) / (hi - lo), and f(lo) on a degenerate cell."""
    if len(rd) == 1:
        return f(rd[0])
    lo, hi = rd
    if lo == hi:
        return f(lo)
    p = (x - lo) / (hi - lo)
    return f(lo) * (1 - p) + f(hi) * p


def worst_row_error(rows, u, mid, half, rd, f):
    """max |sum c_i u^i - exact| / (u P) over the points, P = sum |c_i| h^i,
    with f(target, x) the exact integrand at 50 digits."""
    worst, mp = 0.0, mpmath.mpf
    with mpmath.workdps(50):
        for j in range(mid.size):
            c = [mp(float(r[j])) for r in rows]
            reach = sum(abs(ci) * mp(float(half[j])) ** i for i, ci in enumerate(c))
            ends = [mp(float(r[j])) for r in rd]
            for uj in u[:, j]:
                uj = mp(float(uj))
                x = mp(float(mid[j])) + uj
                err = abs(sum(ci * uj ** i for i, ci in enumerate(c)) - exact_expectation(lambda t: f(t, x), x, ends))
                # an exact 0 is within 1e-50 of its 50-digit value
                if err > 1e-40:
                    worst = max(worst, float(err / (U * reach)) if reach else math.inf)
    return worst


@pytest.mark.parametrize("scheme", list(RoundingScheme))
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_err_rows_match_exact_arithmetic(scheme, k):
    # err^k and |err|^k as the oracle's coefficient rows, summed exactly at the
    # nodes the kernel forms, within 16 u P of the 50-digit value
    u, mid, half, rd = row_test_points(scheme)
    assert u.size >= 1000 and np.any(half < 1e-6 * (half.max()))
    if scheme is RoundingScheme.STOCHASTIC:
        assert np.any(rd[0] == rd[1]) and np.any(rd[0] < rd[1])
    for signed in (True, False):
        rows = oracle._err_rows(scheme, k, signed, mid, *rd)
        # of degree k, and k + 1 for a stochastic |err|^k at odd k
        stochastic_odd_abs = scheme is RoundingScheme.STOCHASTIC and k % 2 and not signed
        assert rows.shape == (k + 2 if stochastic_odd_abs else k + 1, mid.size)
        worst = worst_row_error(rows, u, mid, half, rd, lambda t, x: (t - x) ** k if signed else abs(t - x) ** k)
        assert worst <= 16.0, (signed, worst)


@pytest.mark.parametrize("scheme", [RoundingScheme.NEAREST, RoundingScheme.STOCHASTIC])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_rd_rows_match_exact_arithmetic(scheme, j):
    u, mid, half, rd = row_test_points(scheme)
    for shift in (0.0, 0.3, -1.7):
        rows = oracle._rd_rows(scheme, j, shift, mid, *rd)
        assert rows.shape == (2 if scheme is RoundingScheme.STOCHASTIC and j else 1, mid.size)
        worst = worst_row_error(rows, u, mid, half, rd, lambda t, x: (t - mpmath.mpf(shift)) ** j)
        assert worst <= 16.0, (shift, worst)


def test_err_rows_signed_k1_and_degenerate_cells():
    # stochastic E[err] is exactly 0 off a degenerate cell, and a degenerate
    # (saturated or on-grid) cell takes the clamp error (c_lo - mid) - u
    mid, lo = np.array([-5.0, 6.0, 0.5, 0.3, 0.9]), np.array([-4.0, 4.0, 0.5, 0.0, 0.0])
    hi = np.array([-4.0, 4.0, 0.5, 1.0, 1.0])
    rows = oracle._err_rows(RoundingScheme.STOCHASTIC, 1, True, mid, lo, hi)
    assert np.all(rows[:, 3:] == 0.0)
    for k in range(5):
        for signed in (True, False):
            clamp = oracle._err_rows(RoundingScheme.NEAREST, k, signed, mid[:3], lo[:3])
            rows = oracle._err_rows(RoundingScheme.STOCHASTIC, k, signed, mid[:3], lo[:3], hi[:3])
            np.testing.assert_array_equal(rows[: k + 1], clamp)
            assert np.all(rows[k + 1 :] == 0.0)
    np.testing.assert_array_equal(oracle._err_rows(RoundingScheme.STOCHASTIC, 0, True, mid, lo, hi), np.ones((1, 5)))
    # E[err^2] = a b at a = x - lo, b = hi - x
    assert oracle._err_rows(RoundingScheme.STOCHASTIC, 2, True, mid[3:4], lo[3:4], hi[3:4])[0, 0] == 0.3 * (1.0 - 0.3)


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
