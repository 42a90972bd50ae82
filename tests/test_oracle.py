import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from roundmoments import (
    DensityModel,
    ExplicitSet,
    FloatSystem,
    UniformMesh,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
    oracle,
)
from roundmoments import grids
from roundmoments.errors import ConfigError, PreconditionError
from roundmoments.quadrature import gauss_legendre_nodes
from roundmoments.oracle import (
    Weight,
    centered_moment_of_rounded,
    convergence_slope,
    delta_e_and_v,
    err_weighted_integral,
    mc_rounded_moments,
    rd_moment_integral,
    simulated_sum,
)
from roundmoments.rounding import RoundingScheme as RS, int_power, round_value
from roundmoments.verify import offset_sweep, run_suite

from conftest import enumerate_float_system

ONE = Weight()
INT_MESH = UniformMesh(0.5, 0.0)
DETERMINISTIC_SCHEMES = (RS.TOWARD_ZERO, RS.AWAY_FROM_ZERO, RS.NEAREST)


def test_signed_integral_vanishes_on_aligned_cells():
    got = err_weighted_integral(INT_MESH, RS.NEAREST, ONE, 0.0, 3.0, 1, signed=True)
    assert abs(got.value) < 1e-15


def test_abs_integral_triangle_areas():
    # two triangles of area (1/2)(1/2)^2 per unit cell
    got = err_weighted_integral(INT_MESH, RS.NEAREST, ONE, 0.0, 1.0, 1, signed=False)
    assert got.value == pytest.approx(0.25, rel=1e-14)


def test_stochastic_second_power_symbolic():
    # E|err|^2 on the unit cell integrates x(1-x): exactly 1/6
    got = err_weighted_integral(INT_MESH, RS.STOCHASTIC, ONE, 0.0, 1.0, 2, signed=False)
    assert got.value == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_toward_zero_ramp_integral():
    # |err| = x - floor(x) on positives: each unit cell holds area 1/2
    got = err_weighted_integral(INT_MESH, RS.TOWARD_ZERO, ONE, 0.0, 4.0, 1, signed=False)
    assert got.value == pytest.approx(2.0, rel=1e-14)


def test_zero_straddle_directed_jump():
    # toward zero on the offset mesh: cell [-0.3, 0.7] jumps at zero
    mesh = UniformMesh(0.5, 0.7)
    got = err_weighted_integral(mesh, RS.TOWARD_ZERO, ONE, -0.3, 0.7, 1, signed=False)
    # err = 0.7 - x on [-0.3, 0) and x + 0.3 on [0, 0.7): areas by hand
    want = (0.7 * 0.3 + 0.3 ** 2 / 2) + (0.7 ** 2 / 2 + 0.3 * 0.7)
    assert got.value == pytest.approx(want, rel=1e-13)


def test_quadrature_self_consistency(semicircle):
    # the oracle at its own order against the reference at a lower one
    mesh = UniformMesh(0.05, 0.017)
    hi = err_weighted_integral(mesh, RS.NEAREST, semicircle, -1.0, 1.0, 2)
    lo, _ = reference_quad(mesh, RS.NEAREST, semicircle.density, -1.0, 1.0, 12, 2, signed=False)
    assert abs(hi.value - lo) < 1e-11 * abs(hi.value)
    assert hi.abs_error_estimate < 1e-11 * abs(hi.value)


def test_explicit_set_cells(semicircle):
    grid = ExplicitSet(np.array([-2.0, -0.5, 0.25, 1.0, 2.5]))
    got = err_weighted_integral(grid, RS.NEAREST, ONE, -2.0, 2.5, 1, signed=False)
    want = sum(((b - a) / 2.0) ** 2 for a, b in ((-2, -0.5), (-0.5, 0.25), (0.25, 1.0), (1.0, 2.5)))
    assert got.value == pytest.approx(want, rel=1e-13)


def test_float_grid_oracle_matches_uniform_within_binade():
    # inside one binade the float lattice is a uniform mesh
    fs = FloatSystem(4, -4, 4)
    um = UniformMesh(2.0 ** -5, 0.0)  # spacing 2^-4 anchored at 1.0 works too
    a, b = 1.0, 2.0
    got_f = err_weighted_integral(fs, RS.NEAREST, ONE, a, b, 2, signed=False)
    got_u = err_weighted_integral(um, RS.NEAREST, ONE, a, b, 2, signed=False)
    assert got_f.value == pytest.approx(got_u.value, rel=1e-13)


def test_saturated_tail_contribution():
    fs = FloatSystem(3, -3, 3)  # top = 8
    got = err_weighted_integral(fs, RS.NEAREST, ONE, 8.0, 10.0, 1, signed=False)
    # beyond the top everything clamps to 8: integral of (x - 8) over [8, 10]
    assert got.value == pytest.approx(2.0, rel=1e-13)


def test_rd_moment_integral_identity_grid(semicircle):
    dense = ExplicitSet(np.linspace(-1.5, 1.5, 20_001))
    m1 = rd_moment_integral(dense, RS.NEAREST, semicircle, -1.0, 1.0, 1)
    assert m1.value == pytest.approx(semicircle.mean, abs=1e-7)


def test_delta_e_symmetric_mesh_is_zero(semicircle):
    de, dv = delta_e_and_v(semicircle, UniformMesh(0.1, 0.0), RS.NEAREST)
    assert abs(de.value) < 1e-15
    assert abs(dv.value) < 0.02


def test_delta_v_identity_cross_check(semicircle):
    # V[rd] - V[X] must equal 2 E[(X-mu) err] + E[err^2] - Delta_E^2
    mesh = UniformMesh(0.1, 0.033)
    de, dv = delta_e_and_v(semicircle, mesh, RS.NEAREST)
    a, b = semicircle.effective_range()
    w = Weight(semicircle, semicircle.mean, 1)
    cov = err_weighted_integral(mesh, RS.NEAREST, w, a, b, 1, signed=True).value
    err2 = err_weighted_integral(mesh, RS.NEAREST, semicircle, a, b, 2, signed=False).value
    assert dv.value == pytest.approx(2 * cov + err2 - de.value ** 2, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="Delta_V = m2 - m1^2 - V[X] cancels far from zero (ROADMAP item 12)")
def test_delta_v_far_from_zero_is_sheppards_correction():
    # a spread ten steps wide: Delta_V is step^2 / 12 at every offset; at
    # mu = 1e7 one ulp of m2 is 0.016, twenty times that, and Delta_V reads 0
    model = make_normal(1e7, 1.0)
    for offset in (0.0, 0.05):
        _, dv = delta_e_and_v(model, UniformMesh(0.05, offset), RS.NEAREST)
        assert dv.value == pytest.approx(0.1 ** 2 / 12.0, rel=0.01)


def test_stochastic_delta_e_identically_zero(semicircle):
    # the expected error is 0 at every node, so no roundoff is summed
    de, _ = delta_e_and_v(semicircle, UniformMesh(0.1, 0.033), RS.STOCHASTIC)
    assert (de.value, de.abs_error_estimate) == (0.0, 0.0)


@pytest.mark.parametrize("model,grid", [
    (make_normal(0.5, 1.0), FloatSystem(7, -12, 6)),
    (make_semicircle(1.0, 0.3), ExplicitSet(np.linspace(-60.0, 60.0, 1201) ** 3 / 3600.0)),
], ids=["float", "explicit"])
def test_stochastic_delta_e_identically_zero_on_other_grids(model, grid):
    de, _ = delta_e_and_v(model, grid, RS.STOCHASTIC)
    assert (de.value, de.abs_error_estimate) == (0.0, 0.0)
    assert de.details["pieces"] > 100


def test_centered_moment_of_rounded_dense_grid(semicircle):
    dense = ExplicitSet(np.linspace(-1.5, 1.5, 40_001))
    mk = centered_moment_of_rounded(semicircle, dense, RS.NEAREST, 2)
    assert mk.value == pytest.approx(semicircle.variance, abs=1e-7)


def test_mc_identity_grid_delta_e_zero(semicircle):
    dense = ExplicitSet(np.linspace(-1.5, 1.5, 2_000_001))
    mc = mc_rounded_moments(semicircle, dense, RS.NEAREST, 2, 20_000, seed=7)
    assert abs(mc.delta_e.value) <= max(4e-6, mc.delta_e.abs_error_estimate)


def test_mc_symmetric_nearest_delta_e_within_error(semicircle):
    mc = mc_rounded_moments(semicircle, UniformMesh(0.1, 0.0), RS.NEAREST, 2, 200_000, seed=3)
    assert abs(mc.delta_e.value) < mc.delta_e.abs_error_estimate


def test_mc_stochastic_unbiased(semicircle):
    mc = mc_rounded_moments(semicircle, UniformMesh(0.2, 0.07), RS.STOCHASTIC, 2, 200_000, seed=5)
    assert abs(mc.delta_e.value) < mc.delta_e.abs_error_estimate


def test_mc_determinism(semicircle):
    a = mc_rounded_moments(semicircle, UniformMesh(0.1, 0.03), RS.STOCHASTIC, 3, 50_000, seed=11)
    b = mc_rounded_moments(semicircle, UniformMesh(0.1, 0.03), RS.STOCHASTIC, 3, 50_000, seed=11)
    assert a.delta_e.value == b.delta_e.value
    assert a.delta_v.value == b.delta_v.value
    assert [r.value for r in a.raw] == [r.value for r in b.raw]


def test_mc_quadrature_agreement(semicircle):
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = rng.uniform(0.05, 0.2)
        mesh = UniformMesh(d, rng.uniform(0, 2 * d))
        scheme = RS.NEAREST if rng.random() < 0.5 else RS.STOCHASTIC
        de_q, _ = delta_e_and_v(semicircle, mesh, scheme)
        mc = mc_rounded_moments(semicircle, mesh, scheme, 2, 50_000, seed=int(rng.integers(1 << 30)))
        se = mc.delta_e.abs_error_estimate / 4.0
        assert abs(mc.delta_e.value - de_q.value) < 5.0 * se


def test_offset_sweep_rows(semicircle):
    rows = offset_sweep(semicircle, 0.1, 16, RS.NEAREST)
    assert len(rows) == 16
    assert rows[0].offset == 0.0
    assert abs(rows[0].delta_E) < 1e-14  # symmetric mesh
    for row in rows:
        assert not row.violations()
        assert abs(row.delta_E) <= row.bound_A_E + 1e-9
        assert abs(row.delta_V) <= row.bound_A_V + 1e-9


def test_offset_sweep_two_offsets_minimal(semicircle):
    rows = offset_sweep(semicircle, 0.1, 2, RS.NEAREST)
    assert len(rows) == 2


def test_convergence_slope_orders(shifted_semicircle):
    deltas = [2.0 ** -e for e in range(3, 7)]
    fit = convergence_slope(shifted_semicircle, RS.NEAREST, "delta_e", deltas, n_probe=8)
    assert fit.slope >= 1.9
    fit = convergence_slope(shifted_semicircle, RS.TOWARD_ZERO, "delta_e", deltas, n_probe=8)
    assert 0.9 <= fit.slope <= 1.3
    fit = convergence_slope(shifted_semicircle, RS.NEAREST, "abs_err_mean", deltas, n_probe=8)
    assert 0.9 <= fit.slope <= 1.1


def test_convergence_slope_needs_two_points_above_underflow():
    # the normal's Delta_E under nearest rounding falls like exp(-2 pi^2 / step^2):
    # only the coarsest mesh stays above 1e-15
    with pytest.raises(PreconditionError, match="fewer than 2 usable points"):
        convergence_slope(make_normal(0.0, 1.0), RS.NEAREST, "delta_e", [1.0, 0.1, 0.08, 0.06], n_probe=4)


def test_convergence_slope_underflow_reports_infinite(shifted_semicircle):
    # stochastic rounding is unbiased pointwise: Delta_E is identically zero
    deltas = [2.0 ** -e for e in range(3, 7)]
    fit = convergence_slope(shifted_semicircle, RS.STOCHASTIC, "delta_e", deltas, n_probe=4)
    assert fit.all_underflow and math.isinf(fit.slope)


def test_convergence_slope_needs_enough_deltas(semicircle):
    with pytest.raises(Exception):
        convergence_slope(semicircle, RS.NEAREST, "delta_e", [0.1, 0.05])


def test_simulated_sum_single_term_exact():
    models = [make_uniform(0.0, 1.0)]
    res = simulated_sum(models, FloatSystem(8, -8, 8), RS.NEAREST, 2000, seed=0)
    assert res.value == 0.0


def test_simulated_sum_grid_aligned_inputs_exact():
    # summands supported on the grid with representable partial sums
    models = [make_uniform(1.0, 3.0) for _ in range(3)]
    fs = FloatSystem(8, -8, 8)

    class Snapped:
        def __init__(self, m):
            self._m = m

        def quantile(self, u):
            from roundmoments.grids import floor_to

            return floor_to(UniformMesh(0.125, 0.0), self._m.quantile(u))

    snapped = [Snapped(m) for m in models]
    res = simulated_sum(snapped, fs, RS.NEAREST, 2000, seed=1)
    assert res.value == 0.0
    assert res.details["overflow_events"] == 0


def test_simulated_sum_counts_overflow():
    models = [make_uniform(3.0, 4.0) for _ in range(4)]
    fs = FloatSystem(4, -4, 3)  # top = 8 < typical sums
    res = simulated_sum(models, fs, RS.NEAREST, 2000, seed=2)
    assert res.details["overflow_events"] > 0


def test_too_many_cells_guard(semicircle):
    with pytest.raises(ConfigError, match="grid points in range, more than"):
        err_weighted_integral(UniformMesh(1e-10, 0.0), RS.NEAREST, ONE, 0.0, 1.0, 1)


# --- the blocked per-cell kernel against a single-matrix reference -----------


def whole_partition(grid, scheme, a, b):
    """The pieces of every chunk of ``oracle._partition``, concatenated."""
    lo_p, hi_p, rd_data = zip(*oracle._partition(grid, scheme, a, b))
    return np.concatenate(lo_p), np.concatenate(hi_p), tuple(np.concatenate(r) for r in zip(*rd_data))


def reference_quad(grid, scheme, w, a, b, n, power, signed=True, shift=None, cube_by_squaring=False):
    """Single-matrix per-cell Gauss quadrature with plain ``**`` powers.

    Integrates w(x) err(x)^power (or w(x) E[(rd(x) - shift)^power] when a
    shift is given) at n nodes over every piece at once, in one nodes x
    pieces matrix laid out as the kernel lays out a block.  With
    ``cube_by_squaring`` a deterministic cube is e (e e), as the oracle's
    repeated squaring forms it, for a bit-for-bit comparison.  Returns the value and the per-piece terms.  It pins the
    blocking and chunking; the stochastic error formula itself is pinned
    against exact arithmetic in test_rounding.py.
    """
    lo_p, hi_p, rd_data = whole_partition(grid, scheme, a, b)
    nodes, weights = gauss_legendre_nodes(n)
    X = 0.5 * (lo_p + hi_p) + 0.5 * (hi_p - lo_p) * nodes[:, None]
    if scheme is RS.STOCHASTIC:
        lo, hi = rd_data
        width = np.where(hi > lo, hi - lo, 1.0)
        degenerate = hi <= lo
        if shift is not None:
            p = (X - lo) / width
            vals = (lo - shift) ** power * (1.0 - p) + (hi - shift) ** power * p
            vals = np.where(degenerate, (lo - shift) ** power, vals)
        else:
            # the closed form: with a = x - lo and b = hi - x, E[err^k] is
            # a b (b^(k-1) - (-a)^(k-1)) / w and E|err|^k is
            # a b (b^(k-1) + a^(k-1)) / w, which is a b at k = 2
            a, b = X - lo, hi - X
            other = -((-a) ** (power - 1)) if signed else a ** (power - 1)
            vals = a * b if power == 2 else a * b * (b ** (power - 1) + other) / width
            clamp = lo - X if signed else np.abs(lo - X)
            vals = np.where(degenerate, clamp ** power, vals)
    else:
        tgt = rd_data[0]
        if shift is not None:
            vals = (tgt - shift) ** power * np.ones_like(X)
        else:
            err = tgt - X if signed else np.abs(tgt - X)
            vals = err * err ** 2 if cube_by_squaring and power == 3 else err ** power
    terms = 0.5 * (hi_p - lo_p) * (weights @ (w(X) * vals))
    return float(np.sum(terms)), terms


def assert_matches_reference(got, want, terms):
    # summation order and the k-ulp powers: N u sum|terms| bounds both
    tol = terms.size * 2.0 ** -52 * float(np.sum(np.abs(terms)))
    assert abs(got.value - want) <= tol, (got.value, want, tol)


def cube(d):
    # as int_power forms it, by repeated squaring
    return d * (d * d)


CUBIC = Weight(make_normal(0.0, 0.5), 0.2, 3)


def cubic_weight(x):
    # the reference for CUBIC: the product the kernel forms
    return CUBIC.model.density(x) * cube(x - 0.2)


@pytest.mark.parametrize("scheme", [RS.NEAREST, RS.STOCHASTIC, RS.TOWARD_ZERO])
def test_cubic_integrals_match_pow_reference(scheme):
    mesh = UniformMesh(0.03, 0.011)
    a, b = -2.7, 3.1
    got = err_weighted_integral(mesh, scheme, CUBIC, a, b, 3, signed=True)
    want, terms = reference_quad(mesh, scheme, cubic_weight, a, b, 20, 3)
    assert_matches_reference(got, want, terms)
    got = rd_moment_integral(mesh, scheme, CUBIC, a, b, 3, shift=0.4)
    want, terms = reference_quad(mesh, scheme, cubic_weight, a, b, 20, 3, shift=0.4)
    assert_matches_reference(got, want, terms)


@pytest.mark.parametrize("scheme", [RS.NEAREST, RS.STOCHASTIC, RS.AWAY_FROM_ZERO])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunk_boundaries_match_single_matrix(monkeypatch, scheme, extra):
    # a partition of block + extra pieces: one full block, one short block,
    # or one block and a single leftover piece
    mesh = UniformMesh(0.05, 0.013)
    a, b = -1.9, 2.3
    pieces = whole_partition(mesh, scheme, a, b)[0].size
    monkeypatch.setattr(oracle, "QUAD_BLOCK", pieces - extra)
    for k, signed in ((1, True), (2, False), (3, True), (4, False)):
        got = err_weighted_integral(mesh, scheme, CUBIC, a, b, k, signed=signed)
        want, terms = reference_quad(mesh, scheme, cubic_weight, a, b, got.details["nodes"], k, signed=signed)
        assert_matches_reference(got, want, terms)
        details = dict(got.details)
        assert details.pop("nodes") in [*oracle.LADDER, max(k + 8, 20)]
        assert details.pop("discretization") + details.pop("roundoff") == got.abs_error_estimate
        assert details.pop("runs") >= details["blocks"]
        assert details == {"pieces": pieces, "blocks": 2 if extra == 1 else 1, "chunks": 1}
    got = rd_moment_integral(mesh, scheme, CUBIC, a, b, 2, shift=-0.1)
    want, terms = reference_quad(mesh, scheme, cubic_weight, a, b, 20, 2, shift=-0.1)
    assert_matches_reference(got, want, terms)
    assert (got.details["blocks"], got.details["chunks"]) == (2 if extra == 1 else 1, 1)


def test_single_block_is_bit_identical_to_reference(semicircle):
    # one block: the same operations in the same order as the single-matrix
    # reference at the block's own node count, whether the weight is a
    # model's density written in place, 1, or a cube of (x - center) with or
    # without a density.  The estimate is its two parts, and it covers the
    # distance to a 60-node reference
    mesh = UniformMesh(0.05, 0.013)
    normal = make_normal(0.2, 0.5)
    weights = [(CUBIC, cubic_weight), (normal, normal.density), (semicircle, semicircle.density),
               (Weight(), np.ones_like), (Weight(center=0.3, power=3), lambda x: cube(x - 0.3))]

    def check(got, reference):
        assert (got.details["blocks"], got.details["chunks"]) == (1, 1)
        assert got.value == reference(got.details["nodes"])
        assert got.abs_error_estimate == got.details["discretization"] + got.details["roundoff"]
        assert abs(got.value - reference(60)) <= got.abs_error_estimate

    for scheme, (weight, w) in itertools.product(RS, weights):
        for k in (1, 2, 3):
            for signed in (True, False):
                got = err_weighted_integral(mesh, scheme, weight, -1.0, 1.5, k, signed=signed)
                check(got, lambda n: reference_quad(mesh, scheme, w, -1.0, 1.5, n, k, signed=signed,
                                                    cube_by_squaring=True)[0])
        for j in (1, 2):
            got = rd_moment_integral(mesh, scheme, weight, -1.0, 1.5, j, shift=0.3)
            check(got, lambda n: reference_quad(mesh, scheme, w, -1.0, 1.5, n, j, shift=0.3)[0])


def test_kernel_uses_the_density_it_is_given():
    # a _pdf that returns a new array and leaves ``out`` unwritten still
    # weights the integral, not the kernel's uninitialised buffer
    model = make_normal(0.2, 0.5)
    ignores_out = dataclasses.replace(model, _pdf=lambda x, out: model.density(x))
    mesh = UniformMesh(0.05, 0.013)
    for scheme in RS:
        got = err_weighted_integral(mesh, scheme, ignores_out, -1.0, 1.5, 2)
        assert got.value == err_weighted_integral(mesh, scheme, model, -1.0, 1.5, 2).value, scheme


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("scheme", list(RS))
def test_block_loop_allocates_no_node_matrix(monkeypatch, scheme, k):
    # a one-chunk float integral of several blocks, weighted by the model, by
    # 1 or by (x - c)^m times the model: each run of a block builds X (the
    # nodes of its rule, at most the ceiling's), the weight, the integrand
    # and their product in the kernel's workspace, so from one integrand call
    # to the next nothing as large as a node matrix is allocated; k - 1 of
    # two set bits (k = 4, 6, 7) squares in the workspace too, as (x - c)^m does
    model = make_normal(0.5, 1.0)
    weights = [model, Weight(), *(Weight(model, 0.3, m) for m in (1, 2, 3))]
    fs = FloatSystem(8, -12, 6)
    a, b = model.effective_range()
    node_matrix = oracle.QUAD_BLOCK * max(k + 8, 20) * 8
    tracemalloc.start()
    try:
        chunks = list(oracle._partition(fs, scheme, a, b))
        chunk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) == 1
    del chunks
    # first-call allocations (node tables, numpy internals) are not the loop's
    for weight in weights:
        err_weighted_integral(fs, scheme, weight, a, b, k)
    marks = []

    def marked(integrand):
        def call(*args, **kwargs):
            # traced memory now, and its peak since the last integrand call
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return integrand(*args, **kwargs)
        return call

    for name in ("err_power", "stoch_err_power"):
        monkeypatch.setattr(oracle, name, marked(getattr(oracle, name)))
    for weight in weights:
        marks.clear()
        tracemalloc.start()
        try:
            got = err_weighted_integral(fs, scheme, weight, a, b, k)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert got.details["chunks"] == 1 and got.details["blocks"] >= 3
        assert len(marks) == got.details["runs"] + 1
        growth = [peak - current for (current, _), (_, peak) in zip(marks[:-1], marks[1:])]
        assert max(growth) < node_matrix, (weight, growth, node_matrix)
        workspace = 5 * node_matrix
        peak = max(peak for _, peak in marks)
        assert peak < workspace + chunk_peak + node_matrix / 2, (weight, peak, workspace, chunk_peak)


def test_only_data_weights_reach_the_kernel(monkeypatch):
    # all nine check kinds of the suite, a sweep and a convergence fit hand
    # the kernel a Weight or a model, never a pointwise callable
    kernel, seen = oracle._per_cell_gauss, []

    def checked(weight, *args):
        seen.append(weight)
        return kernel(weight, *args)

    monkeypatch.setattr(oracle, "_per_cell_gauss", checked)
    assert len({r.kind for r in run_suite(90, seed=0)}) == 9
    offset_sweep(make_normal(0.3, 0.8), 0.1, 4, RS.NEAREST)
    convergence_slope(make_semicircle(1.0, 0.3), RS.NEAREST, "delta_v", [0.2, 0.15, 0.1, 0.08], n_probe=2)
    assert seen and all(isinstance(w, (Weight, DensityModel)) for w in seen)
    # the interval and Sheppard checks weigh by 1, the mixed ones by a power times a density
    shapes = {(w.model is None, w.power > 0) for w in seen if isinstance(w, Weight)}
    assert {(True, False), (False, True)} <= shapes


def test_workspace_is_freed_before_the_next_chunk(monkeypatch):
    # a chunk's workspace and pieces are dropped before the next chunk is
    # built, whose temporaries would otherwise stack on them
    model = make_normal(0.5, 1.0)
    fs = FloatSystem(10, -40, 6)
    a, b = model.effective_range()
    # first-call allocations (imports, node tables) are not the walk's
    err_weighted_integral(fs, RS.NEAREST, model, a, b, 1, signed=True)
    pieces = oracle._pieces
    held = []

    def marked_pieces(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return pieces(*args)

    monkeypatch.setattr(oracle, "_pieces", marked_pieces)
    tracemalloc.start()
    try:
        got = err_weighted_integral(fs, RS.NEAREST, model, a, b, 1, signed=True)
    finally:
        tracemalloc.stop()
    assert got.details["chunks"] == len(held) > 1
    assert max(held) < oracle.QUAD_BLOCK * got.details["nodes"] * 8 / 2, held


@pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0)])
@pytest.mark.parametrize("grid", [UniformMesh(0.1), FloatSystem(7, -12, 6), ExplicitSet(np.linspace(-3.0, 3.0, 61))],
                         ids=["mesh", "float", "explicit"])
def test_oracles_refuse_an_infinite_range(grid, a, b):
    # on (-inf, 1) a mesh once raised a bare OverflowError from ceil(inf)
    # and a float system silently returned nan
    model = make_normal(0.0, 1.0)
    with pytest.raises(PreconditionError, match="need finite a < b"):
        err_weighted_integral(grid, RS.NEAREST, model, a, b, 1)
    with pytest.raises(PreconditionError, match="need finite a < b"):
        rd_moment_integral(grid, RS.STOCHASTIC, model, a, b, 1)


def test_float_integral_memory_is_bounded_by_pieces():
    # about 180k pieces: one pieces x nodes float64 matrix is 29 MB
    fs = FloatSystem(10, -40, 6)
    model = make_normal(0.5, 1.0)
    a, b = model.effective_range()
    tracemalloc.start()
    try:
        got = err_weighted_integral(fs, RS.NEAREST, model, a, b, 1, signed=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pieces, nodes = got.details["pieces"], got.details["nodes"]
    assert pieces > 150_000
    # blocks are cut chunk by chunk: each partition chunk ends its last block
    chunks = [lo.size for lo, _, _ in oracle._partition(fs, RS.NEAREST, a, b)]
    assert sum(chunks) == pieces
    assert got.details["blocks"] == sum(math.ceil(size / oracle.QUAD_BLOCK) for size in chunks)
    assert got.details["chunks"] == len(chunks) > 1
    assert peak < pieces * nodes * 8
    want, terms = reference_quad(fs, RS.NEAREST, model.density, a, b, nodes, 1)
    assert_matches_reference(got, want, terms)


def test_float_oracle_memory_does_not_grow_with_the_grid():
    # 183k and 730k pieces: the walk holds one partition chunk and one block
    # at a time, so quadrupling the grid leaves the peak where it was
    model = make_normal(0.5, 1.0)
    a, b = model.effective_range()
    # first-call allocations (node tables, numpy internals) are not the walk's
    err_weighted_integral(FloatSystem(6, -40, 6), RS.NEAREST, model, a, b, 1, signed=True)
    peaks = {}
    for m in (10, 12):
        tracemalloc.start()
        try:
            got = err_weighted_integral(FloatSystem(m, -40, 6), RS.NEAREST, model, a, b, 1, signed=True)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.details["pieces"] > (700_000 if m == 12 else 180_000)
    assert peaks[12] < 1.25 * peaks[10], peaks
    assert peaks[12] < 10e6, peaks


MULTI_CHUNK_CASES = [
    (UniformMesh(0.05, 0.013), -1.9, 2.3),
    # nine binades and the subnormal stretch a side, and a saturated tail
    (FloatSystem(4, -6, 3), -3.3, 9.0),
    (ExplicitSet(np.linspace(-60.0, 60.0, 1201) ** 3 / 3600.0), -2.7, 3.1),
]


def sorted_pieces(lo_p, hi_p, rd_data):
    order = np.argsort(lo_p, kind="stable")
    return lo_p[order], hi_p[order], [r[order] for r in rd_data]


@pytest.mark.parametrize("scheme", list(RS))
@pytest.mark.parametrize("cells", [3, 40])
@pytest.mark.parametrize("grid,a,b", MULTI_CHUNK_CASES)
def test_multi_chunk_walk(monkeypatch, grid, a, b, cells, scheme):
    single = sorted_pieces(*whole_partition(grid, scheme, a, b))
    assert len(list(oracle._partition(grid, scheme, a, b))) == 1
    monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
    chunks = list(oracle._partition(grid, scheme, a, b))
    assert len(chunks) > 1
    # each chunk tiles its own sub-range, whose inner ends are grid points;
    # together they tile [a, b], and every chunk but the last holds exactly
    # CHUNK_CELLS grid cells (a is no grid point)
    start, counts = a, []
    for lo_p, hi_p, _ in chunks:
        lo_s, hi_s = np.sort(lo_p), np.sort(hi_p)
        assert lo_s[0] == start and np.all(lo_s[1:] == hi_s[:-1]) and np.all(hi_s > lo_s)
        end = hi_s[-1]
        assert end == b or grid.neighbors(end)[0] == end
        pts = grid.points_in(start, end)
        counts.append(int(np.sum((pts > start) & (pts < end))) + 1)
        start = end
    assert start == b
    assert counts[:-1] == [cells] * (len(counts) - 1) and counts[-1] <= cells, counts
    # the same pieces, with the same rounding data, as the single-chunk walk
    streamed = sorted_pieces(*whole_partition(grid, scheme, a, b))
    np.testing.assert_array_equal(streamed[0], single[0])
    np.testing.assert_array_equal(streamed[1], single[1])
    for got, want in zip(streamed[2], single[2]):
        np.testing.assert_array_equal(got, want)
    # rounding data that round_value agrees with
    lo_p, hi_p, rd_data = streamed
    x = 0.5 * (lo_p + hi_p)
    strict = (lo_p < x) & (x < hi_p)
    assert strict.sum() > 0.9 * x.size
    if scheme is RS.STOCHASTIC:
        directed = [round_value(grid, s, x[strict]) for s in (RS.TOWARD_ZERO, RS.AWAY_FROM_ZERO)]
        np.testing.assert_array_equal(rd_data[0][strict], np.minimum(*directed))
        np.testing.assert_array_equal(rd_data[1][strict], np.maximum(*directed))
    else:
        np.testing.assert_array_equal(rd_data[0][strict], round_value(grid, scheme, x[strict]))
    # and the streamed integral is the per-piece reference's
    for k, signed in ((1, True), (2, False)):
        got = err_weighted_integral(grid, scheme, CUBIC, a, b, k, signed=signed)
        want, terms = reference_quad(grid, scheme, cubic_weight, a, b, got.details["nodes"], k, signed=signed)
        assert got.details["pieces"] == terms.size
        assert_matches_reference(got, want, terms)


# small grids of each kind, with their points listed independently of the
# grids' numbering
SMALL_GRIDS = [
    (UniformMesh(0.25, 0.1), 0.1 + 0.5 * np.arange(-40, 41)),
    (FloatSystem(3, -4, 2), enumerate_float_system(3, -4, 2)),
    (FloatSystem(2, -3, 1, subnormals=False), enumerate_float_system(2, -3, 1, subnormals=False)),
    (ExplicitSet(np.linspace(-3.0, 3.0, 61) ** 3), np.linspace(-3.0, 3.0, 61) ** 3),
]
SMALL_GRID_IDS = ["mesh", "float", "float-nosub", "explicit"]


@pytest.mark.parametrize("cells", [1, 2, 3, 7])
@pytest.mark.parametrize("grid,pts", SMALL_GRIDS, ids=SMALL_GRID_IDS)
def test_partition_cuts_every_cells_th_point(monkeypatch, grid, pts, cells):
    monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
    # a float system saturates past its top, so its ranges may reach beyond
    reach = 1.0 if isinstance(grid, FloatSystem) else 0.0
    rng = np.random.default_rng(6)
    ranges = [(pts[0] - reach, pts[-1] + reach), (pts[0], pts[-1]), (pts[3], pts[9]),
              (pts[3], 0.5 * (pts[9] + pts[10]))]
    while len(ranges) < 40:
        ends = [float(rng.choice(pts)) if rng.random() < 0.5 else rng.uniform(pts[0] - reach, pts[-1] + reach)
                for _ in range(2)]
        if ends[0] != ends[1]:
            ranges.append((min(ends), max(ends)))
    for a, b in ranges:
        inside = pts[(pts >= a) & (pts <= b)]
        # every cells-th point of the range, counted from its first one
        cuts = [float(p) for p in inside[cells - 1 :: cells] if a < p < b]
        ends = [float(hi_p.max()) for _, hi_p, _ in oracle._partition(grid, RS.NEAREST, a, b)]
        assert ends == cuts + [b], (a, b)
        for start, end in zip([a, *cuts], cuts + [b]):
            # a chunk's cells are its inner points plus one
            assert np.sum((pts > start) & (pts < end)) + 1 <= cells, (a, b, start, end)


@pytest.mark.parametrize("grid,pts", SMALL_GRIDS, ids=SMALL_GRID_IDS)
def test_partition_checks_the_budget_on_the_whole_range(monkeypatch, grid, pts):
    monkeypatch.setattr(grids, "CELL_BUDGET", 10)
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 4)
    # ten points pass, in chunks of 3, 4 and 2 cells
    assert len(list(oracle._partition(grid, RS.NEAREST, pts[20], pts[29]))) == 3
    # eleven are refused when the first chunk is asked for
    chunks = oracle._partition(grid, RS.NEAREST, pts[20], pts[30])
    with pytest.raises(ConfigError, match="11 grid points in range, more than 10"):
        next(chunks)
    with pytest.raises(ConfigError, match="11 grid points in range, more than 10"):
        grid.points_in(pts[20], pts[30])


def test_mc_moment_orders_share_samples(semicircle):
    mesh = UniformMesh(0.1, 0.03)
    low = mc_rounded_moments(semicircle, mesh, RS.STOCHASTIC, 1, 20_000, seed=4)
    high = mc_rounded_moments(semicircle, mesh, RS.STOCHASTIC, 4, 20_000, seed=4)
    assert low.central == () and len(high.central) == 3 and len(high.raw) == 4
    assert low.raw[0] == high.raw[0]
    assert low.delta_v == high.delta_v
    assert high.delta_v.abs_error_estimate == high.central[0].abs_error_estimate


def test_mc_needs_a_moment(semicircle):
    with pytest.raises(PreconditionError):
        mc_rounded_moments(semicircle, UniformMesh(0.1, 0.0), RS.NEAREST, 0, 1000, seed=0)


# --- Monte Carlo blocks -------------------------------------------------------


def whole_sample_moments(model, grid, scheme, k_max, n, seed):
    """mc_rounded_moments drawn and reduced as whole n-sample arrays:
    (value, estimate) of each raw and central moment, Delta_E and Delta_V."""
    u = oracle._philox_stream(seed, 0).random(n)
    ur = oracle._philox_stream(seed, 1).random(n) if scheme is RS.STOCHASTIC else None
    rd = round_value(grid, scheme, np.asarray(model.quantile(u), dtype=float), ur)

    def est(vals):
        return 4.0 * float(np.std(vals)) / math.sqrt(n)

    raw = [(float(np.mean(v)), est(v)) for v in (int_power(rd, k) for k in range(1, k_max + 1))]
    rbar = float(np.mean(rd))
    central = [(float(np.mean(v)), est(v)) for v in (int_power(rd - rbar, k) for k in range(2, max(k_max, 2) + 1))]
    delta_e = (rbar - model.mean, est(rd))
    delta_v = (float(np.var(rd, ddof=1)) - model.variance, central[0][1])
    return raw, central[: k_max - 1], delta_e, delta_v


MC_GRIDS = {
    "uniform": UniformMesh(0.05, 0.01),
    "float": FloatSystem(6, -8, 4),
    "explicit": ExplicitSet(np.linspace(-1.5, 1.5, 10_001) ** 3),
}


@pytest.mark.parametrize("scheme", [RS.NEAREST, RS.STOCHASTIC])
@pytest.mark.parametrize("grid", MC_GRIDS.values(), ids=MC_GRIDS.keys())
@pytest.mark.parametrize("n", [1000, oracle.MC_BLOCK, 3 * oracle.MC_BLOCK + 17])
def test_mc_blocks_are_bit_identical_to_whole_arrays(shifted_semicircle, scheme, grid, n):
    mc = mc_rounded_moments(shifted_semicircle, grid, scheme, 4, n, seed=13)
    raw, central, delta_e, delta_v = whole_sample_moments(shifted_semicircle, grid, scheme, 4, n, 13)

    def pair(res):
        return res.value, res.abs_error_estimate

    assert [pair(r) for r in mc.raw] == raw
    assert [pair(r) for r in mc.central] == central
    assert pair(mc.delta_e) == delta_e
    assert pair(mc.delta_v) == delta_v


def whole_sample_sum(models, fs, scheme, n, seed):
    """simulated_sum over an (n_summands, n) matrix: value, estimate and
    overflow count."""
    xs = np.array([m.quantile(oracle._philox_stream(seed, i).random(n)) for i, m in enumerate(models)])
    exact = xs.sum(axis=0)
    rounded = xs[0].copy()
    overflow = 0
    for step in range(1, len(models)):
        s = rounded + xs[step]
        overflow += int(np.sum(fs.saturates(s)))
        rounded = round_value(fs, scheme, s, oracle._philox_stream(seed, (1 << 32) + step).random(n))
    diff = np.abs(exact - rounded)
    return float(np.mean(diff)), 4.0 * float(np.std(diff)) / math.sqrt(n), overflow


@pytest.mark.parametrize("summands", [1, 5])
def test_simulated_sum_blocks_are_bit_identical_to_whole_arrays(summands):
    models = [make_uniform(0.0, 1.0), make_normal(0.3, 1.0)] * 3
    fs = FloatSystem(6, -8, 2)  # top 4: five summands overflow now and then
    n = 2 * oracle.MC_BLOCK + 5
    res = simulated_sum(models[:summands], fs, RS.STOCHASTIC, n, seed=21)
    want = whole_sample_sum(models[:summands], fs, RS.STOCHASTIC, n, 21)
    assert (res.value, res.abs_error_estimate, res.details["overflow_events"]) == want
    assert (want[0] > 0.0 and want[2] > 0) == (summands > 1)


def test_simulated_sum_single_sample_adds_in_order():
    # a sample's exact sum adds its summands in order at every sample count;
    # one (40, 1) summand matrix summed down its column was summed pairwise
    models = [make_uniform(0.0, 1.0)] * 40
    fs = FloatSystem(8, -8, 8)
    xs = [float(m.quantile(oracle._philox_stream(0, i).random(1))[0]) for i, m in enumerate(models)]
    exact = rounded = xs[0]
    for x in xs[1:]:
        exact += x
        rounded = round_value(fs, RS.NEAREST, rounded + x)
    assert simulated_sum(models, fs, RS.NEAREST, 1, seed=0).value == abs(exact - rounded)


def test_mc_memory_is_a_few_doubles_per_sample(semicircle):
    n = 400_000
    grid = FloatSystem(23, -126, 128)
    # first-call allocations (numpy internals) are not the sampler's
    mc_rounded_moments(semicircle, grid, RS.STOCHASTIC, 4, 1000, seed=0)
    tracemalloc.start()
    try:
        mc_rounded_moments(semicircle, grid, RS.STOCHASTIC, 4, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rounded values, plus O(MC_BLOCK) for the block or slice in hand
    # (12 B per sample here); whole-array powers and deviations took 24
    assert peak <= 16 * n, peak / n


def test_mc_frees_its_samples_without_the_cyclic_collector(semicircle):
    grid = FloatSystem(23, -126, 128)
    mc_rounded_moments(semicircle, grid, RS.STOCHASTIC, 4, 1000, seed=0)
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            mc_rounded_moments(semicircle, grid, RS.STOCHASTIC, 4, 200_000, seed=0)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    # a reference cycle through the samples would hold 1.6 MB per call
    assert held <= 2**20, held


def test_tree_sum_is_np_sum():
    # pins numpy's pairwise blocking: a numpy that sums otherwise fails here
    mixed, block = np.random.default_rng(3), oracle.MC_BLOCK
    for n in (1, 7, 8, 9, 127, 128, 129, block - 1, block, block + 1, 3 * block + 17, 10**6):
        a = mixed.standard_normal(n) * 10.0 ** mixed.integers(-12, 12, n)
        total = oracle._tree_sum(lambda lo, hi: np.sum(a[lo:hi]), 0, n)
        assert total == np.sum(a) and total / n == np.mean(a), n


def test_simulated_sum_memory_does_not_grow_with_the_summands():
    fs = FloatSystem(8, -8, 8)
    n = 50_000
    simulated_sum([make_uniform(0.0, 1.0)] * 2, fs, RS.STOCHASTIC, 1000, seed=0)
    peaks = {}
    for summands in (4, 64):
        tracemalloc.start()
        try:
            simulated_sum([make_uniform(0.0, 1.0)] * summands, fs, RS.STOCHASTIC, n, seed=0)
            peaks[summands] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one block per summand at a time: a summand matrix would take 16x more
    assert peaks[64] <= 1.25 * peaks[4], peaks


# --- the partition's rounding targets -----------------------------------------


def test_one_ulp_piece_above_the_switch_point_rounds_up(semicircle):
    # Grading puts a cut one ulp above the midpoint 0.99375 of the cell
    # [0.94375, 1.04375]; the midpoint of that one-ulp piece rounds down onto
    # the switch point, yet the whole piece lies above it.
    mesh = UniformMesh(0.05, np.linspace(0.0, 0.1, 64, endpoint=False)[28])
    lo_p, hi_p, (targets,) = whole_partition(mesh, RS.NEAREST, *semicircle.effective_range())
    i = np.flatnonzero(lo_p == float.fromhex("0x1.fccccccccccccp-1"))
    assert hi_p[i].tolist() == [float.fromhex("0x1.fcccccccccccdp-1")]
    assert targets[i].tolist() == [1.04375]


@pytest.mark.parametrize("scheme", DETERMINISTIC_SCHEMES)
@pytest.mark.parametrize(
    "grid,a,b",
    [
        (UniformMesh(0.05, 0.04375), -1.0, 1.0),
        (UniformMesh(0.1, 0.033), -0.71, 1.3),
        (FloatSystem(4, -6, 3), -3.3, 9.0),
        (ExplicitSet(np.array([-2.0, -0.5, 0.25, 1.0, 2.5])), -1.7, 2.5),
    ],
)
def test_partition_targets_match_round_value(scheme, grid, a, b):
    lo_p, hi_p, (targets,) = whole_partition(grid, scheme, a, b)
    x = 0.5 * (lo_p + hi_p)
    strict = (lo_p < x) & (x < hi_p)  # a one-ulp piece holds no double
    assert strict.sum() > 0.9 * x.size
    np.testing.assert_array_equal(targets[strict], round_value(grid, scheme, x[strict]))


def test_ungraded_cell_at_a_support_edge_within_its_estimate():
    # Only the outermost sliver is graded, so the full cell [1.2351, 1.4264]
    # ending 1.3e-3 before the square-root edge is integrated ungraded; the
    # oracle's error estimate must still cover the error that leaves.
    model = make_semicircle(1.538536927628753, -0.11084079188731866)
    mesh = UniformMesh(0.0956616221297365, 0.08714204337053821)
    de, _ = delta_e_and_v(model, mesh, RS.AWAY_FROM_ZERO)
    want, _ = reference_quad(mesh, RS.AWAY_FROM_ZERO, model.density, *model.effective_range(), 200, 1)
    assert abs(de.value - want) <= de.abs_error_estimate


# --- the certified error bound of each block ----------------------------------

mpmath = pytest.importorskip("mpmath")

CERT_MODELS = {
    "normal": (make_normal(0.3, 0.5),
               lambda x: mpmath.exp(-(x - 0.3) ** 2 / 1.0) / mpmath.sqrt(mpmath.pi)),
    "exponential": (make_exponential(1.5), lambda x: 1.5 * mpmath.exp(-1.5 * x)),
    "uniform": (make_uniform(-0.5, 1.0), lambda x: mpmath.mpf(1) / mpmath.mpf(1.5)),
    "semicircle": (make_semicircle(1.0, 0.2),
                   lambda x: 2 / mpmath.pi * mpmath.sqrt(1 - (x - 0.2) ** 2)),
}


def mp_gauss(n):
    """The n-node Gauss-Legendre rule at the working precision: double nodes
    refined by Newton's method on the three-term recurrence."""
    rule = []
    for x0 in np.polynomial.legendre.leggauss(n)[0]:
        x = mpmath.mpf(float(x0))
        for _ in range(6):
            p0, p1 = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


def cert_integrands(lo, hi):
    """(name, kernel integrand, its rounding data, low, ceiling, exact
    integrand) of each kind: a deterministic and a stochastic error power,
    and a rounded moment at a target and between two cell ends.  The exact
    integrand takes the piece's half-width and the node t in [-1, 1], so no
    digits cancel: x - lo = half (1 + t) and hi - x = half (1 - t)."""
    width = hi - lo
    c_lo, c_hi = lo - width, hi + 3 * width
    one = lambda v: np.array([v])  # noqa: E731

    def stochastic(half, t, k):
        # E[f(rd(x))] from a = x - c_lo and b = c_hi - x, which sum to 5 width
        a, b = 2 * half + half * (1 + t), 6 * half + half * (1 - t)
        return k(a, b) / (10 * half)

    yield ("err", oracle._err_integrand(RS.NEAREST, 3, True), (one(lo),), 5, 20,
           lambda half, t: (-half * (1 + t)) ** 3)
    yield ("stochastic err", oracle._err_integrand(RS.STOCHASTIC, 3, False), (one(c_lo), one(c_hi)), 5, 20,
           lambda half, t: stochastic(half, t, lambda a, b: b * a ** 3 + a * b ** 3))
    yield ("rd", oracle._rd_integrand(RS.NEAREST, 2, 0.3), (one(hi),), 4, 20,
           lambda half, t: (mpmath.mpf(hi) - mpmath.mpf(0.3)) ** 2)
    yield ("stochastic rd", oracle._rd_integrand(RS.STOCHASTIC, 2, 0.3), (one(c_lo), one(c_hi)), 4, 20,
           lambda half, t: stochastic(half, t, lambda a, b: (mpmath.mpf(c_lo) - mpmath.mpf(0.3)) ** 2 * b
                                      + (mpmath.mpf(c_hi) - mpmath.mpf(0.3)) ** 2 * a))


@pytest.mark.parametrize("power", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(CERT_MODELS))
def test_interior_piece_certificate_bounds_the_exact_error(name, power):
    # one small interior piece, alone in its block: the bound is finite,
    # below 1e-30 of the integral at the rule the kernel picks, and at least
    # that rule's error in exact arithmetic, against mpmath at 40 digits and
    # more, enough to resolve the bound
    model, density = CERT_MODELS[name]
    lo = model.mean + 0.1
    hi = lo + 2.0 ** -19
    center = lo - 0.37
    weight = Weight(model, center, power)
    for kind, integrand, rd, low, n, f in cert_integrands(lo, hi):
        got = oracle._per_cell_gauss(weight, integrand, [(np.array([lo]), np.array([hi]), rd)], low, n)
        bound, nodes = got.details["discretization"], got.details["nodes"]
        assert nodes in oracle.LADDER and nodes >= low, (kind, nodes)
        assert math.isfinite(bound) and 0.0 < bound < 1e-30 * abs(got.value), (kind, bound, got.value)
        with mpmath.workdps(max(40, 20 - int(math.log10(bound / abs(got.value))))):
            half, mid = (mpmath.mpf(hi) - mpmath.mpf(lo)) / 2, (mpmath.mpf(hi) + mpmath.mpf(lo)) / 2

            def g(t):
                return density(mid + half * t) * (0.37 + half * (1 + t)) ** power * f(half, t)

            exact = half * mpmath.quad(g, [-1, 1], method="gauss-legendre")
            rule = half * mpmath.fsum(c * g(t) for t, c in mp_gauss(nodes))
            assert abs(rule - exact) <= bound, (kind, rule - exact, bound)
            assert abs(got.value - exact) <= got.abs_error_estimate, (kind, got.value - exact, got.abs_error_estimate)


@pytest.mark.parametrize("scheme", [RS.NEAREST, RS.AWAY_FROM_ZERO, RS.STOCHASTIC])
@pytest.mark.parametrize("model,a,b", [
    # the pieces at the semicircle's edges, a uniform's ends inside [a, b],
    # and an exponential's 0 inside it
    (make_semicircle(1.0, 0.2), -0.8, 1.2),
    (make_uniform(-0.5, 1.0), -1.0, 1.5),
    (make_exponential(1.5), -0.7, 9.0),
], ids=["semicircle-edges", "uniform-ends", "exponential-zero"])
def test_pieces_at_a_non_analytic_point_within_the_estimate(model, a, b, scheme):
    # such a piece takes the fallback bound, and its block the 20-node
    # ceiling; directed rounding cuts the pieces at 0, so no exponential's
    # piece straddles it there
    mesh = UniformMesh(0.05, 0.013)
    fallback = not (model.name == "exponential" and scheme is RS.AWAY_FROM_ZERO)
    for k, signed in ((1, scheme is not RS.STOCHASTIC), (2, False)):
        got = err_weighted_integral(mesh, scheme, model, a, b, k, signed=signed)
        want, _ = reference_quad(mesh, scheme, model.density, a, b, 200, k, signed=signed)
        assert (got.details["nodes"] == 20) == fallback and got.details["discretization"] > 0.0
        assert abs(got.value - want) <= got.abs_error_estimate, (k, got.value - want, got.abs_error_estimate)


def test_delta_e_and_v_walks_one_kept_partition(monkeypatch):
    # the three integrals of delta_e_and_v pass one Weight, which keeps their
    # partition of one chunk: reuse is scoped to that Weight, so another call,
    # even on an equal grid, builds its own, and so does a walk of more chunks
    pieces, built = oracle._pieces, []

    def counted(*args):
        built.append(args)
        return pieces(*args)

    monkeypatch.setattr(oracle, "_pieces", counted)
    model = make_normal(0.3, 0.8)
    mesh = UniformMesh(0.1, 0.013)
    de, dv = delta_e_and_v(model, mesh, RS.NEAREST)
    assert len(built) == 1
    assert (de.value, dv.value) == tuple(r.value for r in delta_e_and_v(model, UniformMesh(0.1, 0.013), RS.NEAREST))
    assert len(built) == 2
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 7)
    again = err_weighted_integral(mesh, RS.NEAREST, model, *model.effective_range(), 1, signed=True)
    assert again.details["chunks"] > 1 and len(built) > 3
    assert again.value == pytest.approx(de.value, abs=again.abs_error_estimate + de.abs_error_estimate)


def test_a_kept_partition_belongs_to_its_weight(monkeypatch):
    # two equal Weights walked in turn over two grids: each keeps its own
    # partition, and every walk equals a walk that keeps nothing, bit for bit
    model = make_normal(0.3, 0.8)
    a, b = model.effective_range()
    meshes = UniformMesh(0.1, 0.013), UniformMesh(0.07)
    walks = [lambda g, w: err_weighted_integral(g, RS.NEAREST, w, a, b, 1, signed=True),
             lambda g, w: rd_moment_integral(g, RS.NEAREST, w, a, b, 2),
             lambda g, w: rd_moment_integral(g, RS.NEAREST, w, a, b, 3, shift=0.25)]
    want = [[walk(mesh, model) for mesh in meshes] for walk in walks]
    pieces, built = oracle._pieces, []

    def counted(*args):
        built.append(args)
        return pieces(*args)

    monkeypatch.setattr(oracle, "_pieces", counted)
    weights = Weight(model), Weight(model)
    got = [[walk(mesh, weight) for mesh, weight in zip(meshes, weights)] for walk in walks]
    assert got == want
    assert [args[0] for args in built] == list(meshes)


def test_a_bare_model_walk_holds_nothing_after_it_returns():
    # one chunk of 36,211 pieces is 0.88 MB: a walk that is passed a model,
    # not a Weight, keeps none of it
    model = make_normal(0.3, 1.0)
    a, b = model.effective_range()
    # first-call allocations (the model's cached values, node tables) are not the walk's
    err_weighted_integral(UniformMesh(0.1), RS.NEAREST, model, a, b, 1, signed=True)
    tracemalloc.start()
    try:
        got = err_weighted_integral(UniformMesh(6.9e-4), RS.NEAREST, model, a, b, 1, signed=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got.details["chunks"], got.details["pieces"]) == (1, 36_211)
    assert held < 64 * 1024, held


def test_float_oracle_blocks_run_fewer_than_20_nodes(monkeypatch):
    # the four integrals of the float_oracle benchmark: no block of the
    # normal's, which is entire, needs the 20-node ceiling, and the
    # certificates sit below the rounding bound
    model = make_normal(0.5, 1.0)
    fs = FloatSystem(12, -40, 6)
    a, b = model.effective_range()
    run, nodes = oracle._run_block, []

    def spy(rule_nodes, *args):
        nodes.append(rule_nodes.size)
        return run(rule_nodes, *args)

    monkeypatch.setattr(oracle, "_run_block", spy)
    for scheme, k, signed in ((RS.NEAREST, 1, True), (RS.NEAREST, 2, False), (RS.STOCHASTIC, 1, True),
                              (RS.STOCHASTIC, 2, False)):
        nodes.clear()
        got = err_weighted_integral(fs, scheme, model, a, b, k, signed=signed)
        assert len(nodes) == got.details["runs"] >= got.details["blocks"] > 300
        assert max(nodes) < 20 and got.details["nodes"] == max(nodes)
        assert got.details["discretization"] <= got.details["roundoff"]
        assert got.abs_error_estimate == got.details["discretization"] + got.details["roundoff"]
