import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundmoments import (
    ExplicitSet,
    FloatSystem,
    UniformMesh,
    ceil_to,
    floor_to,
    gap_stats,
    parse_grid_config,
)
from roundmoments.errors import BelowGridError, ConfigError, EmptyRangeError, TooManyCellsError

from conftest import brute_ceil, brute_floor, enumerate_float_system


def test_floor_ceil_explicit_three_points():
    es = ExplicitSet(np.array([0.0, 1.0, 2.0]))
    assert floor_to(es, 1.4) == 1.0
    assert ceil_to(es, 1.4) == 2.0


def test_floor_uniform_negative():
    um = UniformMesh(0.5, 0.0)
    assert floor_to(um, -0.3) == -1.0
    assert ceil_to(um, 0.1) == 1.0


def test_ceil_on_grid_point_is_fixed():
    um = UniformMesh(0.5, 0.2)
    assert ceil_to(um, 0.2) == 0.2
    assert floor_to(um, 0.2) == 0.2


def test_float_system_representable_point_idempotent():
    fs = FloatSystem(23, -126, 128)
    assert floor_to(fs, 1.0) == 1.0
    assert ceil_to(fs, 1.0) == 1.0


def test_explicit_below_grid_raises():
    es = ExplicitSet(np.array([0.0, 1.0]))
    with pytest.raises(BelowGridError):
        floor_to(es, -0.5)


def test_float_system_saturates_flagged():
    fs = FloatSystem(3, -2, 3)
    assert floor_to(fs, 100.0) == 8.0
    assert ceil_to(fs, -100.0) == -8.0
    assert fs.saturates(100.0)
    assert not fs.saturates(7.9)


@pytest.mark.parametrize("m,k_min,k_max,subnormals", [
    (2, -2, 2, True),
    (3, -3, 3, True),
    (4, -2, 4, True),
    (1, 0, 1, True),
    (3, -3, 3, False),
    (2, 1, 4, True),
    (3, 2, 4, False),
])
def test_float_neighbors_match_enumeration(m, k_min, k_max, subnormals):
    fs = FloatSystem(m, k_min, k_max, subnormals)
    pts = enumerate_float_system(m, k_min, k_max, subnormals)
    rng = np.random.default_rng(42)
    top = math.ldexp(1.0, k_max)
    # random queries, every cell midpoint, and queries beyond +/- top,
    # which saturate onto it
    xs = np.concatenate([
        rng.uniform(-top, top, 10_000),
        0.5 * (pts[:-1] + pts[1:]),
        rng.uniform(top, 4.0 * top, 100) * rng.choice((-1.0, 1.0), 100),
        [-np.inf, np.inf],
    ])
    lo, hi = fs.neighbors(xs)
    for x, l, h in zip(xs, lo, hi):
        c = min(max(x, -top), top)
        assert l == brute_floor(pts, c), (x, l)
        assert h == brute_ceil(pts, c), (x, h)


def test_float_neighbors_match_float32():
    # IEEE single precision, with numpy's float32 cast and nextafter as an
    # independent reference, on random doubles over every binade and the
    # subnormals, plus the float32 values themselves
    fs = FloatSystem(23, -126, 128)
    rng = np.random.default_rng(11)
    big = float(np.finfo(np.float32).max)
    mags = np.minimum(np.exp2(rng.uniform(-152.0, 128.0, 200_000)), big)
    xs = mags * rng.choice((-1.0, 1.0), mags.size)
    xs = np.concatenate([xs, xs.astype(np.float32).astype(float), [0.0, big, -big]])
    f = xs.astype(np.float32)
    with np.errstate(over="ignore"):  # outward from +/- max gives inf, which np.where drops
        down = np.nextafter(f, np.float32(-np.inf))
        up = np.nextafter(f, np.float32(np.inf))
    want_lo = np.where(f > xs, down, f).astype(float)
    want_hi = np.where(f < xs, up, f).astype(float)
    lo, hi = fs.neighbors(xs)
    np.testing.assert_array_equal(lo, want_lo)
    np.testing.assert_array_equal(hi, want_hi)


def test_float_neighbors_hit_grid_points_exactly():
    fs = FloatSystem(3, -3, 3)
    pts = enumerate_float_system(3, -3, 3)
    lo, hi = fs.neighbors(pts)
    np.testing.assert_array_equal(lo, pts)
    np.testing.assert_array_equal(hi, pts)


@settings(max_examples=200)
@given(
    half_gap=st.floats(1e-3, 10.0),
    offset=st.floats(-30.0, 30.0),
    x=st.floats(-100.0, 100.0),
    y=st.floats(-100.0, 100.0),
)
def test_uniform_mesh_neighbor_properties(half_gap, offset, x, y):
    um = UniformMesh(half_gap, offset)
    lo, hi = (float(v) for v in um.neighbors(x))
    assert lo <= x <= hi
    # members re-round to themselves
    assert floor_to(um, lo) == lo
    assert ceil_to(um, hi) == hi
    # cell width is 0 or the full gap
    assert hi - lo == 0.0 or abs((hi - lo) - um.step) < 1e-9 * um.step
    if x <= y:
        assert floor_to(um, x) <= floor_to(um, y)
        assert ceil_to(um, x) <= ceil_to(um, y)


@settings(max_examples=200)
@given(x=st.floats(-15.9, 15.9), y=st.floats(-15.9, 15.9))
def test_float_system_monotone_and_bracketing(x, y):
    fs = FloatSystem(4, -4, 4)
    lo, hi = (float(v) for v in fs.neighbors(x))
    assert lo <= x <= hi
    assert floor_to(fs, lo) == lo and ceil_to(fs, lo) == lo
    if x <= y:
        assert floor_to(fs, x) <= floor_to(fs, y)
        assert ceil_to(fs, x) <= ceil_to(fs, y)


def test_gap_stats_uniform_width():
    gs = gap_stats(UniformMesh(0.05, 0.0), 1.0, 2.0)
    assert gs.delta0 == pytest.approx(0.1, abs=0.0)
    assert gs.eps0 == pytest.approx(0.1 / 1.0)


def test_gap_stats_ieee_single_relative():
    fs = FloatSystem(23, -126, 128)
    gs = gap_stats(fs, 2.0 ** -126, 2.0 ** 128)
    assert gs.eps0 == 2.0 ** -23


def test_gap_stats_subnormal_absolute():
    fs = FloatSystem(23, -126, 128)
    gs = gap_stats(fs, 0.0, 2.0 ** -126)
    assert gs.delta0 == 2.0 ** -149
    assert math.isinf(gs.eps0)


def test_gap_stats_zero_straddle_is_infinite():
    gs = gap_stats(UniformMesh(0.5, 0.3), -2.0, 2.0)
    assert math.isinf(gs.eps0)
    assert gs.delta0 == 1.0


def test_gap_stats_empty_range():
    with pytest.raises(EmptyRangeError):
        gap_stats(UniformMesh(0.5, 0.0), 1.1, 1.3)


def test_gap_stats_explicit_set():
    es = ExplicitSet(np.array([0.5, 1.0, 2.0, 4.5]))
    gs = gap_stats(es, 0.5, 4.5)
    assert gs.delta0 == 2.5
    assert gs.eps0 == pytest.approx(2.5 / 2.0)  # widest cell, relative to its floor
    gs = gap_stats(ExplicitSet(np.array([-1.0, 0.5, 2.0])), -1.0, 2.0)
    assert math.isinf(gs.eps0)  # a cell straddles zero
    gs = gap_stats(ExplicitSet(np.array([-4.5, -2.0, -1.0, -0.5])), -4.5, -0.5)
    assert gs.delta0 == 2.5
    assert gs.eps0 == pytest.approx(2.5 / 2.0)  # relative to |ceil| on the negative side
    gs = gap_stats(ExplicitSet(np.array([-2.0, -1.0, 0.0])), -2.0, 0.0)
    assert gs.delta0 == 1.0
    assert math.isinf(gs.eps0)  # a cell ends exactly at zero


def test_stretches_small_system():
    fs = FloatSystem(2, 0, 2)
    got = list(fs.stretches(-4.0, 4.0))
    # (sign, anchor, step, a, b): negative side first, then the mirror image
    positive = [(0.0, 2.0 ** -2, 0.0, 1.0), (1.0, 2.0 ** -2, 1.0, 2.0), (2.0, 2.0 ** -1, 2.0, 4.0)]
    assert got == [(-1.0, *s) for s in positive] + [(1.0, *s) for s in positive]
    # cross-check steps against brute-force enumeration gaps, both signs
    pts = enumerate_float_system(2, 0, 2)
    for sign, anchor, step, a, b in got:
        lo, hi = (a, b) if sign > 0 else (-b, -a)
        inside = pts[(pts >= lo) & (pts <= hi)]
        assert np.all(np.diff(inside) == step)
        assert sign * anchor in pts


def test_stretches_single_binade_ieee():
    fs = FloatSystem(23, -126, 128)
    assert list(fs.stretches(1.0, 2.0)) == [(1.0, 1.0, 2.0 ** -23, 1.0, 2.0)]
    assert list(fs.stretches(-2.0, -1.0)) == [(-1.0, 1.0, 2.0 ** -23, 1.0, 2.0)]


def test_stretches_subnormal_step_and_clipped_ends():
    fs = FloatSystem(1, 0, 1)
    pts = enumerate_float_system(1, 0, 1)
    sub = pts[(pts >= 0) & (pts <= 1)]
    # clipped to the query on one side and to the top (2) on the other
    got = list(fs.stretches(-0.3, 5.0))
    assert got == [(-1.0, 0.0, 0.5, 0.0, 0.3), (1.0, 0.0, 0.5, 0.0, 1.0), (1.0, 1.0, 0.5, 1.0, 2.0)]
    assert np.max(np.diff(sub)) == got[1][2]
    # one-point and empty intersections yield nothing
    assert list(fs.stretches(1.0, 1.0)) == [] and list(fs.stretches(2.0, 9.0)) == []


@pytest.mark.parametrize("params", [(3, -4, 2, True), (2, -3, 1, False)])
def test_float_points_in_matches_enumeration(params):
    fs = FloatSystem(*params)
    pts = enumerate_float_system(*params)
    rng = np.random.default_rng(5)
    ranges = [(p, p) for p in pts]  # every one-point range on the grid
    ranges += [(fs.top, 9.0), (-9.0, -fs.top), (-0.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]
    for _ in range(500):
        # ends on or off the grid, some beyond the top
        ends = [float(rng.choice(pts)) if rng.random() < 0.5 else rng.uniform(-5.0, 5.0) for _ in range(2)]
        ranges.append((min(ends), max(ends)))
    for lo, hi in ranges:
        want = pts[(pts >= lo) & (pts <= hi)]
        np.testing.assert_array_equal(fs.points_in(lo, hi), want, err_msg=f"[{lo}, {hi}]")


def test_uniform_offset_normalization():
    assert UniformMesh(0.5, 1.7).offset == pytest.approx(0.7)
    assert UniformMesh(0.5, -0.3).offset == pytest.approx(0.7)
    assert UniformMesh(0.5, 2.0).offset == 0.0


def test_points_in_budget_guard():
    with pytest.raises(TooManyCellsError):
        UniformMesh(1e-9, 0.0).points_in(0.0, 1.0)
    # 2^30 points in one binade: refused before any of them is allocated
    tracemalloc.start()
    try:
        with pytest.raises(TooManyCellsError):
            FloatSystem(30, 0, 2).points_in(1.0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_grid_config_round_trip():
    # every config value lands in the grid it builds
    for cfg, want in (
        ({"kind": "uniform", "half_gap": 0.25, "offset": 0.1}, UniformMesh(0.25, 0.1)),
        ({"kind": "float", "m": 5, "k_min": -3, "k_max": 4, "subnormals": False}, FloatSystem(5, -3, 4, subnormals=False)),
        ({"kind": "explicit", "points": [0.0, 0.5, 2.0]}, ExplicitSet(np.array([0.0, 0.5, 2.0]))),
    ):
        grid = parse_grid_config(cfg)
        assert type(grid) is type(want)
        lo1, hi1 = grid.neighbors(0.3)
        lo2, hi2 = want.neighbors(0.3)
        assert float(lo1) == float(lo2) and float(hi1) == float(hi2)


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        parse_grid_config({"kind": "nope"})
    with pytest.raises(ConfigError):
        UniformMesh(-1.0)
    with pytest.raises(ConfigError):
        FloatSystem(0, -2, 2)
    with pytest.raises(ConfigError):
        ExplicitSet(np.array([1.0, 1.0]))


def test_float_system_mantissa_fits_a_double():
    # wider mantissas put grid points between doubles: |x|/step overflowed
    # to (inf, inf) neighbors for FloatSystem(1990, 990, 1000)
    for m, k_min, k_max in ((53, -2, 2), (1990, 990, 1000)):
        with pytest.raises(ConfigError):
            FloatSystem(m, k_min, k_max)
    fs = FloatSystem(52, -2, 2)
    assert fs.neighbors(1.0 + 2.0 ** -52) == (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52)


def test_grid_config_integral_floats_accepted():
    # the inline parser reads every number as a float
    fs = parse_grid_config({"kind": "float", "m": 3.0, "k_min": -2.0, "k_max": 2})
    assert (fs.mantissa_bits, fs.k_min, fs.k_max) == (3, -2, 2)
    assert isinstance(fs.mantissa_bits, int)
