"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and enforces its runtime limit.
"""

import math
import time

import numpy as np
import pytest

from roundmoments import (
    FloatSystem,
    UniformMesh,
    ceil_to,
    floor_to,
    gap_stats,
    make_normal,
    make_semicircle,
    make_uniform,
    make_exponential,
)
from roundmoments.bounds import (
    float_moment_bound,
    plan_measurement,
    rounded_chebyshev,
    rounded_sum_bound,
    sheppard_two_sided,
)
from roundmoments.cli import main as cli_main
from roundmoments.oracle import (
    Weight,
    convergence_slope,
    err_weighted_integral,
    mc_rounded_moments,
    simulated_sum,
)
from roundmoments.rounding import RoundingScheme as RS
from roundmoments.verify import offset_sweep

ONE = Weight()
DETERMINISTIC_SCHEMES = (RS.TOWARD_ZERO, RS.AWAY_FROM_ZERO, RS.NEAREST)


class _Clock:
    def __init__(self, limit):
        self.limit = limit
        self.t0 = time.monotonic()

    def done(self, name):
        dt = time.monotonic() - self.t0
        assert dt < self.limit, f"{name} took {dt:.1f}s, limit {self.limit}s"
        print(f"ACCEPTANCE {name}: PASS ({dt:.2f}s < {self.limit}s)")


def test_criterion_01_aligned_cell_equalities():
    clock = _Clock(1.0)
    c = RS.NEAREST.c
    for mesh, lo_z, n_cells in ((UniformMesh(0.25, 0.13), 1, 6), (UniformMesh(0.25, 0.13), -4, 7)):
        a = mesh.offset + lo_z * mesh.step
        b = a + n_cells * mesh.step
        assert floor_to(mesh, a) == a and ceil_to(mesh, b) == b
        for k in (1, 3):
            got = err_weighted_integral(mesh, RS.NEAREST, ONE, a, b, k, signed=True)
            assert abs(got.value) < 1e-12
        for k in (1, 2, 3, 4):
            got = err_weighted_integral(mesh, RS.NEAREST, ONE, a, b, k, signed=False)
            want = c(k) * (b - a) * mesh.half_gap ** k
            assert got.value == pytest.approx(want, rel=1e-12), (k, a, b)
    clock.done("1 aligned-cell equalities")


def test_criterion_02_sheppard_recovery():
    clock = _Clock(30.0)
    model = make_semicircle(1.0, 0.0)
    for delta in (0.05, 0.1, 0.2):
        radius = 8.0 * delta ** 3 / (3.0 * math.pi)
        center = delta ** 2 / 3.0
        rep = sheppard_two_sided(1.0, model.peak, 2, delta)
        assert (rep.leading.value, rep.higher_order.value) == (pytest.approx(center), pytest.approx(radius))
        for a in np.linspace(0.0, 2.0 * delta, 64, endpoint=False):
            mesh = UniformMesh(delta, float(a))
            got = err_weighted_integral(mesh, RS.NEAREST, model, -1.0, 1.0, 2, signed=False)
            assert abs(got.value - center) <= radius + 1e-12, (delta, a)
    clock.done("2 Sheppard recovery")


def test_criterion_03_sweep_dominance():
    clock = _Clock(60.0)
    model = make_semicircle(1.0, 0.0)
    for delta in (0.05, 0.1, 0.2):
        rows = offset_sweep(model, delta, 64, RS.NEAREST)
        assert len(rows) == 64
        for row in rows:
            assert not row.violations()
    clock.done("3 sweep dominance")


def test_criterion_04_convergence_orders():
    clock = _Clock(120.0)
    deltas = [2.0 ** -e for e in range(3, 9)]
    models = {
        "semicircle": make_semicircle(1.0, 0.3),
        "normal": make_normal(0.3, 1.0),
    }
    for name, model in models.items():
        for scheme in (RS.NEAREST, RS.STOCHASTIC):
            fit = convergence_slope(model, scheme, "delta_e", deltas, n_probe=12)
            # a quantity that underflows everywhere (stochastic rounding is
            # pointwise unbiased; the Gaussian mean shift under nearest decays
            # faster than any power) has converged beyond second order and
            # reports an infinite slope
            assert fit.slope >= 1.9, (name, scheme, fit)
            if fit.all_underflow:
                dv = convergence_slope(model, scheme, "delta_v", deltas, n_probe=12)
                assert dv.slope >= 1.9, (name, scheme, dv)
        fit = convergence_slope(model, RS.TOWARD_ZERO, "delta_e", deltas, n_probe=12)
        assert 0.9 <= fit.slope <= 1.3, (name, fit)
    clock.done("4 convergence orders")


def test_criterion_05_stochastic_constants():
    clock = _Clock(30.0)
    cs = RS.STOCHASTIC
    assert cs.d(1) == 0.0
    mesh = UniformMesh(0.5, 0.0)  # unit spacing: [0, 1] is one cell
    got = err_weighted_integral(mesh, RS.STOCHASTIC, ONE, 0.0, 1.0, 2, signed=False)
    assert got.value == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert got.value == pytest.approx(cs.c(2) * 1.0 * 1.0 ** 2, abs=1e-12)
    model = make_semicircle(1.0, 0.0)
    mc = mc_rounded_moments(model, UniformMesh(0.25, 0.1), RS.STOCHASTIC, 2, 1_000_000, seed=42)
    assert abs(mc.delta_e.value) < mc.delta_e.abs_error_estimate  # 4 standard errors
    clock.done("5 stochastic constants")


def test_criterion_06_ieee_single_parameters():
    clock = _Clock(1.0)
    fs = FloatSystem(23, -126, 128)
    gs = gap_stats(fs, 2.0 ** -126, 2.0 ** 128)
    eps = RS.NEAREST.eps(gs.eps0)
    assert eps == 2.0 ** -24
    assert abs(eps - 6e-8) / 6e-8 < 0.05
    sub = gap_stats(fs, 0.0, 2.0 ** -126)
    delta = RS.NEAREST.delta(sub.delta0)
    assert delta == 2.0 ** -150
    assert abs(delta - 7e-46) / 7e-46 < 0.05
    clock.done("6 IEEE single parameters")


def test_criterion_07_exponential_over_floats():
    clock = _Clock(10.0)
    model = make_exponential(1.0)
    fs = FloatSystem(8, -8, 8)
    rep = float_moment_bound(model, fs, 1, RS.NEAREST, signed=True)
    lo, hi = model.effective_range()
    oracle = err_weighted_integral(fs, RS.NEAREST, model, lo, hi, 1, signed=True)
    assert abs(oracle.value) <= rep.value
    assert math.isfinite(rep.leading.coef) and rep.leading.coef > 0.0
    assert rep.leading.base == 2.0 ** -9
    clock.done("7 exponential over floats")


def test_criterion_08_measurement_planner():
    clock = _Clock(1.0)
    # delta = 0 reduces to the classical concentration bound, exactly
    for v, n, t in ((1.0, 100, 0.5), (2.5, 7, 1.2)):
        assert rounded_chebyshev(v, n, 0.0, t) == v / (n * t * t)
    # n -> infinity recovers the full budget c * sqrt(V); the gap at finite n
    # is (c+1) sqrt(V) / (sqrt(np) + 1), so the 1e-6 target at n = 1e9 needs
    # a small variance scale
    v = 1e-8
    _, dmax = plan_measurement(v, 1.0, 0.01, n=10 ** 9)
    assert abs(dmax - 1.0 * math.sqrt(v)) < 1e-6
    # just above the infeasibility edge the budget collapses to zero
    _, dmax = plan_measurement(1.0, 1.0, 1e-9, n=10 ** 9 + 1000)
    assert 0.0 < dmax < 1e-6
    clock.done("8 measurement planner")


def test_criterion_09_rounded_sum():
    clock = _Clock(30.0)
    models = [make_uniform(0.0, 1.0) for _ in range(10)]
    fs = FloatSystem(8, -8, 8)
    eps0 = gap_stats(fs, 2.0 ** -8, 2.0 ** 8).eps0
    for scheme in DETERMINISTIC_SCHEMES:
        eps = scheme.eps(eps0)
        bound = rounded_sum_bound([m.abs_mixed_moment(0, 1, 0.0) for m in models], eps)
        est = simulated_sum(models, fs, scheme, 100_000, seed=9)
        assert est.value <= bound.value, (scheme, est.value, bound.value)
        assert est.details["overflow_events"] == 0
    clock.done("9 rounded sum")


def test_criterion_10_master_dominance_suite(capsys):
    clock = _Clock(300.0)
    code = cli_main(["verify", "--instances", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "200 checks, 0 violations" in out
    with capsys.disabled():
        clock.done("10 master dominance suite")
