import math
from dataclasses import replace

import numpy as np
import pytest

from roundmoments import (
    SymmetricSplit,
    UniformMesh,
    best_mesh_center,
    envelope,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
    parse_dist_config,
)
from roundmoments.distributions import dist_config, scan_max
from roundmoments.errors import NotUnimodalError
from roundmoments.quadrature import adaptive_quad


def quad_moment(model, k, about=0.0):
    lo, hi = model.support
    val, _ = adaptive_quad(
        lambda x: (x - about) ** k * model.density(x), lo, hi, rtol=1e-13, breakpoints=(about,)
    )
    return val


def test_normalization(all_models):
    for model in all_models:
        lo, hi = model.support
        mass, _ = adaptive_quad(model.density, lo, hi, rtol=1e-13)
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
        lo, hi = model.support
        for m, mu0 in ((1, 0.2), (2, -0.4), (3, 0.0)):
            want, _ = adaptive_quad(
                lambda x: np.abs(x - mu0) ** m * model.density(x), lo, hi, rtol=1e-13, breakpoints=(mu0,)
            )
            assert model.abs_mixed_moment(m, 0, mu0) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_envelope_semicircle_mass(semicircle):
    env = envelope(semicircle)
    assert env.weighted_integral(0) == pytest.approx(0.5, rel=1e-10)


def test_envelope_shifted_semicircle_max_scan():
    model = make_semicircle(1.0, 2.0)
    env = envelope(model)
    # dense numerical max-scan oracle over |x|
    xs = np.linspace(0.0, 3.0, 20_001)
    fhat_oracle = np.maximum(model.density(xs), model.density(-xs))
    fhat_oracle[xs < 2.0] = model.peak
    want = np.trapezoid(fhat_oracle, xs)
    assert env.weighted_integral(0) == pytest.approx(want, rel=1e-6)
    # constant part below the mode
    assert float(env.f_hat(np.array(0.5))) == pytest.approx(2 / math.pi)


def test_envelope_exponential_first_moment(unit_exponential):
    env = envelope(unit_exponential)
    assert env.weighted_integral(1) == pytest.approx(1.0, rel=1e-10)


def test_envelope_dominates_density(all_models):
    rng = np.random.default_rng(5)
    for model in all_models:
        env = envelope(model)
        lo, hi = model.effective_range()
        xs = rng.uniform(lo, hi, 10_000)
        assert np.all(env.f_hat(np.abs(xs)) >= model.density(xs) - 1e-12)


def test_not_unimodal_rejected(semicircle):
    # declaring the mode at the support edge breaks the right-side probe
    broken = replace(semicircle, mode=-1.0, _cache={})
    with pytest.raises(NotUnimodalError):
        envelope(broken)


def test_split_reconstruction(all_models):
    rng = np.random.default_rng(9)
    for model in all_models:
        lo, hi = model.effective_range()
        for c in (-0.3, 0.0, 0.4):
            split = SymmetricSplit(model, c)
            xs = rng.uniform(lo - 0.5, hi + 0.5, 3000)
            g = split.g(xs)
            h = split.h(xs)
            f = model.density(xs)
            assert np.all(np.abs(g + h - f) < 1e-12)
            assert np.all(g >= -1e-15) and np.all(h >= -1e-15)
            # g is even about the center
            assert np.allclose(split.g(2 * c - xs), g, atol=1e-12)


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
    g = split.g(xs)
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


def test_best_mesh_center_branches():
    assert best_mesh_center(UniformMesh(0.5, 0.2)) == pytest.approx(0.2)
    assert best_mesh_center(UniformMesh(0.5, 0.6)) == pytest.approx(0.1)
    assert best_mesh_center(UniformMesh(0.5, 1.0)) == 0.0
    for a in np.linspace(0.0, 1.0, 41):
        c = best_mesh_center(UniformMesh(0.5, float(a)))
        assert abs(c) <= 0.25 + 1e-12


def test_dist_config_round_trip(all_models):
    for model in all_models:
        again = parse_dist_config(dist_config(model))
        assert again.name == model.name
        assert again.mean == model.mean
        assert again.variance == model.variance


def two_probe_scan_max(f, lo, hi, n=4001):
    """scan_max with both golden-section probes evaluated on every step."""
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs))
    i = int(np.argmax(ys))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(80):
        if float(f(np.asarray(c))) > float(f(np.asarray(d))):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    return max(float(ys[i]), float(f(np.asarray(0.5 * (a + b)))))


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.sin(3.0 * x) * np.exp(-x * x), -2.0, 2.0),
        (make_semicircle(1.0, 0.3).density, -1.0, 1.5),
        (lambda x: -np.abs(x - 0.123456789), 0.0, 1.0),
        (make_uniform(0.2, 0.7).density, 0.0, 1.0),
    ],
)
def test_scan_max_evaluates_each_probe_once(f, lo, hi):
    probes = []

    def counted(x):
        if np.ndim(x) == 0:
            probes.append(float(x))
        return f(x)

    assert scan_max(counted, lo, hi) == two_probe_scan_max(f, lo, hi)
    # two starting probes, one new probe per step, and the final midpoint
    assert len(probes) == 2 + 80 + 1
