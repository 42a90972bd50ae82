import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundmoments import (
    Envelope,
    SymmetricSplit,
    UniformMesh,
    best_mesh_center,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
    parse_dist_config,
)
from roundmoments import distributions as D
from roundmoments.bounds import mean_and_variance_diff_bounds
from roundmoments.distributions import scan_max
from roundmoments.errors import ConfigError, PreconditionError
from roundmoments.quadrature import adaptive_quad


def mp_integral(model, weight, cuts=()):
    """Integral of weight(x) times the density over the whole support, by
    mpmath's tanh-sinh rule (infinite ends included), split at ``cuts``."""
    lo, hi = model.support
    ends = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    return float(mpmath.quad(lambda x: weight(x) * float(model.density(float(x))), ends))


def quad_moment(model, k, about=0.0):
    return mp_integral(model, lambda x: (x - about) ** k, (about,))


def test_normalization(all_models):
    for model in all_models:
        mass = mp_integral(model, lambda x: 1.0)
        assert mass == pytest.approx(1.0, abs=1e-10), model.name


def test_semicircle_peak_and_abs_mean(semicircle):
    assert semicircle.peak == pytest.approx(2 / math.pi, rel=1e-14)
    assert semicircle.abs_mixed_moment(1, 0, semicircle.mean) == pytest.approx(4 / (3 * math.pi), rel=1e-14)
    assert semicircle.variance == pytest.approx(0.25)
    # independent quadrature oracle for the variance
    assert quad_moment(semicircle, 2) == pytest.approx(0.25, rel=1e-10)


def test_exponential_shape(unit_exponential):
    ex = make_exponential(2.0)
    assert float(ex.density(0.0)) == pytest.approx(2.0)
    xs = np.linspace(0.0, 3.0, 50)
    assert np.all(np.diff(ex.density(xs)) < 0.0)


def test_normal_fourth_moment(std_normal):
    assert std_normal.raw_moment(4) == pytest.approx(3.0)
    assert quad_moment(std_normal, 4) == pytest.approx(3.0, rel=1e-10)


def test_uniform_variance(unit_uniform):
    assert unit_uniform.variance == pytest.approx(1.0 / 12.0)
    assert quad_moment(unit_uniform, 2, about=0.5) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_analytic_vs_quadrature_moments(all_models):
    for model in all_models:
        for k in range(7):
            got = model.raw_moment(k)
            want = quad_moment(model, k)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10), (model.name, k)
            gotc = model.central_moment(k)
            wantc = quad_moment(model, k, about=model.mean)
            assert gotc == pytest.approx(wantc, rel=1e-8, abs=1e-10), (model.name, k)


def test_abs_moments_match_quadrature(all_models):
    for model in all_models:
        for m, mu0 in ((1, 0.2), (2, -0.4), (3, 0.0)):
            want = mp_integral(model, lambda x: abs(x - mu0) ** m, (mu0,))
            assert model.abs_mixed_moment(m, 0, mu0) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_envelope_semicircle_mass(semicircle):
    env = Envelope(semicircle)
    assert env.weighted_integral(0) == pytest.approx(0.5, rel=1e-10)


def test_envelope_shifted_semicircle_max_scan():
    model = make_semicircle(1.0, 2.0)
    env = Envelope(model)
    # dense numerical max-scan oracle over |x|
    xs = np.linspace(0.0, 3.0, 20_001)
    fhat_oracle = np.maximum(model.density(xs), model.density(-xs))
    fhat_oracle[xs < 2.0] = model.peak
    want = np.trapezoid(fhat_oracle, xs)
    assert env.weighted_integral(0) == pytest.approx(want, rel=1e-6)
    # f_hat >= max{f(x), f(-x)} >= (f(x) + f(-x)) / 2 on x >= 0
    for k in range(4):
        assert env.weighted_integral(k) >= 0.5 * model.abs_mixed_moment(0, k, 0.0) * (1.0 - 1e-12)


def test_envelope_exponential_first_moment(unit_exponential):
    env = Envelope(unit_exponential)
    assert env.weighted_integral(1) == pytest.approx(1.0, rel=1e-10)


def test_envelope_dominates_density(all_models):
    # f_hat dominates f at +/-x, so its x^k integral over x >= 0 is at least
    # half of E|X|^k (equal for a density symmetric about 0, up to the
    # quadratures' relative 1e-12)
    for model in all_models:
        env = Envelope(model)
        for k in range(4):
            assert env.weighted_integral(k) >= 0.5 * model.abs_mixed_moment(0, k, 0.0) * (1.0 - 1e-12), (model.name, k)


def test_not_unimodal_rejected(semicircle):
    # a mode declared halfway to the support edge breaks the right-side probe
    with pytest.raises(PreconditionError, match="density increases right of the declared mode"):
        replace(semicircle, mode=-0.5)


@pytest.mark.parametrize("changes", [
    {"mode": -1.0},  # the support edge: peak 0
    {"variance": math.inf},
    {"mean": math.nan},
    {"mean": 1e17},  # doubles 16 apart, sd 1/2
], ids=["zero-peak", "infinite-variance", "nan-mean", "coarse-mean"])
def test_replace_is_checked_like_a_constructor(semicircle, changes):
    with pytest.raises(ConfigError):
        replace(semicircle, **changes)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_non_finite_rate_is_refused_before_its_density_is_evaluated(lam):
    # an infinite rate once reached the model check, whose pdf warned on inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            make_exponential(lam)


# Each family's density in its one-expression form, allocating every
# temporary; the in-place bodies must give the same bits.
def _reference_pdf(model, x):
    p = dict(model.params)
    if model.name == "semicircle":
        r, t = p["r"], x - p["mu"]
        coef = 2.0 / (math.pi * r * r)
        return np.where(np.abs(t) < r, coef * np.sqrt(np.maximum(r * r - t * t, 0.0)), 0.0)
    if model.name == "normal":
        t = (x - p["mu"]) / math.sqrt(p["sigma2"])
        return 1.0 / math.sqrt(2.0 * math.pi * p["sigma2"]) * np.exp(-0.5 * t * t)
    if model.name == "exponential":
        lam = p["lambda"]
        return np.where(x >= 0.0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0)
    return np.where((x >= p["lo"]) & (x <= p["hi"]), 1.0 / (p["hi"] - p["lo"]), 0.0)


@pytest.mark.parametrize(
    "model",
    [make_semicircle(0.8, 0.3), make_normal(0.3, 2.0), make_exponential(1.5), make_uniform(-0.5, 1.25)],
    ids=["semicircle", "normal", "exponential", "uniform"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_density_writes_into_out(model):
    lo, hi = model.effective_range()
    edges = [v for v in model.support if math.isfinite(v)]
    # inside the support, outside it, on its edges and one double either side
    x = np.concatenate([
        np.linspace(lo, hi, 37),
        [lo - 1.0, hi + 1.0, -1e300, 1e300, -math.inf, math.inf, math.nan, model.mode, 0.0, -0.0],
        edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_pdf(model, x)
    assert np.any(want > 0.0) and np.any(want == 0.0)
    for shape in (x.shape, (x.size // 3, 3)):
        pts = x[: math.prod(shape)].reshape(shape)
        # a view into a larger buffer, as the oracle's workspace hands out
        buf = np.full(2 * pts.size, np.nan)[: pts.size].reshape(shape)
        got = model.density(pts, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got.view(np.int64), want[: pts.size].reshape(shape).view(np.int64))
        np.testing.assert_array_equal(model.density(pts).view(np.int64), got.view(np.int64))
    for v in x:
        assert float(model.density(v)).hex() == float(_reference_pdf(model, v)).hex()


def test_replace_starts_with_an_empty_cache():
    m = make_semicircle(1.0, 0.0)
    assert m.effective_range() == (-1.0, 1.0)
    wide = replace(m, support=(-2.0, 2.0), variance=1.0, _pdf=lambda x, out: np.divide(m.density(x / 2), 2, out=out))
    assert wide.effective_range() == (-2.0, 2.0)
    # the cache is no init field, so a copy cannot be handed one
    with pytest.raises(ValueError):
        replace(m, _cache={})


# r, sigma, lambda and widths over 400 decades, past where their squares or
# reciprocals leave the doubles; means and ends up to 2^40 spreads from
# zero, past the ulp rule's 2^32 or so
_SCALE = st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)
_SHIFT = st.builds(lambda u, k: u * 2.0 ** k, st.floats(-1.0, 1.0), st.integers(-60, 40))
_CONSTRUCTIONS = {
    "semicircle": st.builds(lambda r, t: make_semicircle(r, t * r), _SCALE, _SHIFT),
    "normal": st.builds(lambda s, t: make_normal(t * s, s * s), _SCALE, _SHIFT),
    "exponential": st.builds(make_exponential, _SCALE),
    "uniform": st.builds(lambda w, t: make_uniform(t * w - w / 2.0, t * w + w / 2.0), _SCALE, _SHIFT),
}


@pytest.mark.parametrize("family", sorted(_CONSTRUCTIONS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_constructor_makes_unimodal_models(family, data):
    # a constructor's own model always passes the mode probe: it is made,
    # or its parameters are refused as a config error
    try:
        data.draw(_CONSTRUCTIONS[family])
    except ConfigError:
        pass


def test_split_reconstruction(all_models):
    rng = np.random.default_rng(9)
    for model in all_models:
        lo, hi = model.effective_range()
        for c in (-0.3, 0.0, 0.4):
            split = SymmetricSplit(model, c)
            xs = rng.uniform(lo - 0.5, hi + 0.5, 3000)
            f = model.density(xs)
            g = np.minimum(f, model.density(2 * c - xs))
            h = split.h(xs)
            # bit for bit the remainder f - g clipped at zero
            assert np.array_equal(h, np.maximum(f - g, 0.0))
            assert np.all(np.abs(g + h - f) < 1e-12)
            assert np.all(g >= -1e-15) and np.all(h >= -1e-15)
            # g is even about the center
            assert np.allclose(np.minimum(model.density(2 * c - xs), f), g, atol=1e-12)


def test_split_semicircle_center_zero_vanishes(semicircle):
    split = SymmetricSplit(semicircle, 0.0)
    xs = np.linspace(-1.2, 1.2, 1001)
    assert np.max(np.abs(split.h(xs))) < 1e-15


def test_split_pointwise_example(semicircle):
    # center 0.1: left stretch has no reflected mass, so h equals f there
    split = SymmetricSplit(semicircle, 0.1)
    assert float(split.h(np.array(-0.9))) == pytest.approx(float(semicircle.density(-0.9)), rel=1e-14)
    assert float(semicircle.density(1.1)) == 0.0


def test_split_exponential_overlap(unit_exponential):
    # g lives on the overlap of the support and its reflection
    split = SymmetricSplit(unit_exponential, 0.7)
    xs = np.linspace(-1.0, 3.0, 500)
    g = unit_exponential.density(xs) - split.h(xs)
    inside = (xs >= 0.0) & (xs <= 1.4)
    assert np.all(g[~inside] == 0.0)
    expected = np.minimum(unit_exponential.density(xs), unit_exponential.density(1.4 - xs))
    assert np.allclose(g, expected, atol=1e-14)


def test_quantile_density_consistency(all_models):
    for model in all_models:
        us = np.linspace(0.05, 0.95, 19)
        q = np.asarray(model.quantile(us))
        h = 1e-6
        dq = (np.asarray(model.quantile(us + h)) - np.asarray(model.quantile(us - h))) / (2 * h)
        f = model.density(q)
        assert np.allclose(f * dq, 1.0, atol=1e-5), model.name


def test_quantile_round_trip_semicircle(semicircle):
    us = np.linspace(0.001, 0.999, 101)
    xs = semicircle.quantile(us)
    # numeric CDF via quadrature must invert the quantile
    for u, x in zip(us[::10], xs[::10]):
        mass, _ = adaptive_quad(semicircle.density, -1.0, float(x), rtol=1e-12)
        assert mass == pytest.approx(u, abs=1e-9)


SEMICIRCLE_EDGE_US = (0.0, 5e-324, 1e-300, 1e-16, 1e-8, 0.3, 0.5, 1.0 - 1e-16, 1.0)


def semicircle_quantile_mp(mpmath, u, mu, r):
    """x with psi - sin(psi) = 2 pi min(u, 1 - u), psi = pi - 2|asin((x - mu)/r)|,
    by Newton in enough digits that psi - sin(psi) does not cancel."""
    w = min(u, 1.0 - u)
    sign = -1 if u < 0.5 else 1
    if w == 0.0:
        return mpmath.mpf(mu) + sign * mpmath.mpf(r)
    with mpmath.workdps(40 + int(-math.log10(w))):
        z = 2 * mpmath.pi * mpmath.mpf(w)
        # right of the root (psi <= 1.19 cbrt(6z)); g is convex, so Newton
        # falls monotonically onto it
        psi = min(mpmath.pi, 2 * mpmath.cbrt(6 * z))
        for _ in range(60):
            psi -= (psi - mpmath.sin(psi) - z) / (2 * mpmath.sin(psi / 2) ** 2)
        return mpmath.mpf(mu) + sign * r * mpmath.cos(psi / 2)


@pytest.mark.parametrize("r, mu", [(1.0, 0.0), (1.0, 0.3), (0.5, 2.0), (3.0, -1.0)])
def test_semicircle_quantile_matches_mpmath(r, mu):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    us = np.concatenate([SEMICIRCLE_EDGE_US, rng.random(200), 10.0 ** rng.uniform(-320.0, -1.0, 50)])
    xs = make_semicircle(r, mu).quantile(us)
    tol = 4.0 * math.ulp(abs(mu) + r)
    for u, x in zip(us, xs):
        assert abs(mpmath.mpf(float(x)) - semicircle_quantile_mp(mpmath, float(u), mu, r)) <= tol, u


def test_semicircle_quantile_endpoints_and_monotone(shifted_semicircle):
    q = shifted_semicircle.quantile
    assert float(q(0.0)) == 0.3 - 1.0
    assert float(q(0.5)) == 0.3
    assert float(q(1.0)) == 0.3 + 1.0
    xs = q(np.linspace(0.0, 1.0, 100_001))
    assert np.all(np.diff(xs) >= 0.0)


def test_normal_quantile_matches_ndtri():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    ps = np.concatenate([rng.random(200_000), 10.0 ** rng.uniform(-300.0, -1.0, 20_000),
                         1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 20_000)])
    z = make_normal(0.0, 1.0).quantile(ps)
    want = special.ndtri(ps)
    far = np.abs(want) >= 1e-3
    assert np.max(np.abs(z[far] - want[far]) / np.abs(want[far])) <= 2e-15


def test_normal_quantile_matches_stdlib_inv_cdf():
    from statistics import NormalDist

    rng = np.random.default_rng(13)
    ps = np.concatenate([[1e-300, 1.0 - 1e-16, 0.5, 0.075, 0.925], rng.random(20_000),
                         10.0 ** rng.uniform(-300.0, -1.0, 2_000)])
    model = make_normal(0.0, 1.0)
    z = model.quantile(ps)
    want = np.array([NormalDist().inv_cdf(p) for p in ps])
    ulps = np.array([math.ulp(v) for v in want])
    assert np.all(np.abs(z - want) <= 4.0 * ulps)
    # u outside [1e-300, 1 - 1e-16] is clipped to those points
    assert float(model.quantile(0.0)) == float(model.quantile(1e-300))
    assert float(model.quantile(1.0)) == float(model.quantile(1.0 - 1e-16))


@pytest.mark.parametrize("model, want", [
    (make_normal(0.0, 1.0), ("-0x1.983bb8f833166p+3", "0x1.86b48528cea51p+3")),
    (make_normal(0.3, 1.0), ("-0x1.8ea21f5e997ccp+3", "0x1.904e1ec2683ebp+3")),
    (make_normal(-2.0, 0.25), ("-0x1.0c1ddc7c198b3p+3", "0x1.06b48528cea51p+2")),
    (make_exponential(1.0), ("0x0.0p+0", "0x1.45e4f7b2737fap+5")),
    (make_exponential(2.5), ("0x0.0p+0", "0x1.04b72c8ec2cc8p+4")),
], ids=lambda v: v.name if hasattr(v, "name") else None)
def test_effective_range_cached_and_unchanged(model, want):
    # the window the per-sample stdlib inv_cdf gave, bit for bit
    window = model.effective_range()
    assert model.effective_range() is window
    assert tuple(float.hex(v) for v in window) == want


def test_best_mesh_center_branches():
    assert best_mesh_center(UniformMesh(0.5, 0.2)) == pytest.approx(0.2)
    assert best_mesh_center(UniformMesh(0.5, 0.6)) == pytest.approx(0.1)
    assert best_mesh_center(UniformMesh(0.5, 1.0)) == 0.0
    for a in np.linspace(0.0, 1.0, 41):
        c = best_mesh_center(UniformMesh(0.5, float(a)))
        assert abs(c) <= 0.25 + 1e-12


def test_dist_config_round_trip(all_models):
    for model in all_models:
        again = parse_dist_config({"kind": model.name, **dict(model.params)})
        assert again.name == model.name
        assert again.mean == model.mean
        assert again.variance == model.variance


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.sin(3.0 * x) * np.exp(-x * x), -2.0, 2.0),
        (make_semicircle(1.0, 0.3).density, -1.0, 1.5),
        (lambda x: -np.abs(x - 0.123456789), 0.0, 1.0),
        (make_uniform(0.2, 0.7).density, 0.0, 1.0),
    ],
)
def test_scan_max_reaches_a_dense_scan(f, lo, hi):
    def vectorized_only(x):
        assert np.ndim(x) == 1
        return f(x)

    assert scan_max(vectorized_only, lo, hi) >= float(np.max(f(np.linspace(lo, hi, 2_000_001))))


def test_scan_max_reaches_a_peak_on_a_kink():
    # h peaks on the kink x = 2c - 1, where the reflected support edge cuts
    # it; a golden-section search assuming a smooth peak stopped at
    # 0.10034336017939957 here
    c = 0.0062500000000000056
    h = SymmetricSplit(make_semicircle(1.0, 0.0), c).h
    dense = float(np.max(h(np.linspace(2.0 * c - 1.0 - 1e-3, 2.0 * c - 1.0 + 1e-3, 2_000_001))))
    assert dense == 0.10034337359515721
    assert scan_max(h, -1.0, c, n=257) >= dense


def test_scan_max_of_one_point():
    assert scan_max(lambda x: 1.0 - x * x, 0.5, 0.5) == 0.75


def _rescans(monkeypatch, run):
    """The 33-point rescans of every scan_max call that run() makes."""
    rounds = []

    def recording(f, *args, **kwargs):
        def g(xs):
            rounds.append(np.array(xs))
            return f(xs)

        return scan_max(g, *args, **kwargs)

    monkeypatch.setattr(D, "scan_max", recording)
    run()
    return [xs for xs in rounds if xs.size == 33]


@pytest.mark.parametrize(
    "run, subnormal",
    [
        (lambda: D.scan_max(lambda x: np.exp(-((x - 0.3) ** 2)), -2.0, 3.0), False),
        # the zoom onto the jump at 0 reaches (-1.5e-323, 1.5e-323)
        (lambda: SymmetricSplit(make_exponential(1.0), 0.025).bump_sup_sum(), True),
        # sup_centered_weight's zoom onto the jump at 0 reaches (0, 2e-323)
        (lambda: mean_and_variance_diff_bounds(make_uniform(0.0, 1.0), "D", mesh=UniformMesh(0.1, 0.0123)), True),
    ],
    ids=["smooth-peak", "exponential-remainder", "uniform-tier-D"],
)
def test_scan_max_rescans_exactly_linspace(monkeypatch, run, subnormal):
    rounds = _rescans(monkeypatch, run)
    assert len(rounds) > 10
    for xs in rounds:
        assert xs.tobytes() == np.linspace(xs[0], xs[-1], 33).tobytes()
    # a bracket whose (b - a)/32 underflows to 0, where linspace divides first
    assert any((xs[-1] - xs[0]) / 32.0 == 0.0 for xs in rounds) == subnormal
