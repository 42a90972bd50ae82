import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roundmoments import (
    ExplicitSet,
    FloatSystem,
    GapStats,
    UniformMesh,
    ceil_to,
    floor_to,
    gap_stats,
    parse_grid_config,
)
from roundmoments import grids
from roundmoments.errors import ConfigError, PreconditionError

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
    with pytest.raises(PreconditionError, match="no grid point at or below query"):
        floor_to(es, -0.5)


def two_search_neighbors(points, x):
    """ExplicitSet.neighbors as one searchsorted per side."""
    i_lo = np.searchsorted(points, x, side="right") - 1
    i_hi = np.searchsorted(points, x, side="left")
    if np.any(i_lo < 0):
        raise PreconditionError("no grid point at or below query")
    if np.any(i_hi >= points.size):
        raise PreconditionError("no grid point at or above query")
    return points[i_lo], points[i_hi]


def test_explicit_neighbors_one_search_matches_two():
    pts = np.linspace(-60.0, 60.0, 1201) ** 3 / 3600.0
    es = ExplicitSet(pts)
    mids = 0.5 * (pts[:-1] + pts[1:])
    inside = np.concatenate([pts, mids, np.nextafter(pts[1:], -np.inf), np.nextafter(pts[:-1], np.inf), [-0.0]])
    lo, hi = es.neighbors(inside)
    want_lo, want_hi = two_search_neighbors(pts, inside)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    for x in (pts[0], pts[-1], mids[7], pts[600]):  # scalar queries, both endpoints among them
        assert es.neighbors(x) == two_search_neighbors(pts, x)
    below, above = np.nextafter(pts[0], -np.inf), np.nextafter(pts[-1], np.inf)
    for query, side in ((below, "below"), (above, "above"), ([above, below], "below"), ([pts[3], above], "above"),
                        (np.nan, "above")):
        with pytest.raises(PreconditionError, match=f"no grid point at or {side} query"):
            two_search_neighbors(pts, np.asarray(query))
        with pytest.raises(PreconditionError, match=f"no grid point at or {side} query"):
            es.neighbors(query)


def bucket_index_sets():
    """About 300 explicit point sets that stress the bucket index: even,
    crowded, heavy-tailed, two-point, around zero, and spans that over- and
    underflow a double."""
    rng = np.random.default_rng(32)
    sets = [np.array([-1e308, 0.0, 1e308]), np.array([0.0, 5e-324, 1e-323]), np.array([0.0, 5e-324]),
            np.linspace(0.0, 1.0, 2 * grids.INDEX_CHUNK + 3) ** 2]  # the last fills three chunks of edges
    for _ in range(60):
        n = int(rng.integers(3, 300))
        sets.append(np.unique(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 300)))
        sets.append(np.linspace(0.0, 1.0, n) ** int(rng.integers(2, 9)) * 10.0 ** rng.integers(-5, 5))
        sets.append(np.cumsum(rng.pareto(0.7, n) + 1e-3))
        sets.append(np.sort(rng.uniform(-1e3, 1e3, 2)))
        sets.append(np.unique(np.concatenate([[0.0], -rng.random(n // 2), rng.random(n // 2)])))
    return [s for s in sets if s.size >= 2 and np.all(np.diff(s) > 0)]


def test_bucketed_explicit_neighbors_are_exact():
    rng = np.random.default_rng(5)
    for pts in bucket_index_sets():
        es = ExplicitSet(pts)
        pts = es.points
        mids = pts[:-1] + 0.5 * np.diff(pts)
        lam = rng.random(200)  # uniforms on [p_0, p_{N-1}], whose length may be past a double
        queries = np.concatenate([pts, np.nextafter(pts[1:], -np.inf), np.nextafter(pts[:-1], np.inf), mids,
                                  np.clip(lam * pts[0] + (1.0 - lam) * pts[-1], pts[0], pts[-1])])
        count = np.searchsorted(pts, queries, side="right")
        want_lo, want_hi = pts[count - 1], pts[count - (pts[count - 1] == queries)]
        lo, hi = es.neighbors(queries)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi), pts
        lo, hi = es.neighbors(queries[: queries.size // 4 * 4].reshape(-1, 4)[::-1])
        assert np.array_equal(lo.ravel(), want_lo[: lo.size].reshape(-1, 4)[::-1].ravel())
        assert np.array_equal(hi.ravel(), want_hi[: hi.size].reshape(-1, 4)[::-1].ravel())
        for i in rng.integers(0, queries.size, 5):
            assert es.neighbors(queries[i]) == (want_lo[i], want_hi[i])
        below, above = np.nextafter(pts[0], -np.inf), np.nextafter(pts[-1], np.inf)
        for query, side in ((below, "below"), (above, "above"), (-np.inf, "below"), (np.inf, "above"),
                            (np.nan, "above"), ([[pts[0], above], [mids[0], below]], "below"), ([mids[0], np.nan], "above")):
            with pytest.raises(PreconditionError, match=f"^no grid point at or {side} query$"):
                es.neighbors(query)
        # the index is kept out of equality, hashing and repr
        fresh = ExplicitSet(pts.copy())
        assert es == fresh and hash(es) == hash(fresh) and repr(es) == repr(fresh)


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
    for grid, lo, hi in ((UniformMesh(0.5, 0.0), 1.1, 1.3), (FloatSystem(2, -2, 2), 1.1, 1.2),
                         (ExplicitSet(np.array([0.0, 1.0, 2.0])), 0.5, 1.5)):
        with pytest.raises(PreconditionError, match="no full cell in range"):
            gap_stats(grid, lo, hi)


def test_gap_stats_negative_mesh_range():
    # the smallest magnitude of the range's cells is at its right end
    assert gap_stats(UniformMesh(0.5, 0.0), -3.0, -1.0) == GapStats(1.0, 1.0)


def test_gap_stats_float_counts_only_full_cells():
    fs = FloatSystem(2, -2, 2)  # steps 1/16 below 1/4, then 1/16, 1/8, 1/4, 1/2 per binade
    # [2, 2.3] of binade [2, 4] holds no full cell, so its step 1/2 is not a gap of the range
    assert gap_stats(fs, 1.1, 2.3) == GapStats(0.25 / 1.25, 0.25)
    assert gap_stats(fs, 1.1, 2.6) == GapStats(0.5 / 2.0, 0.5)
    # across zero: the cell from 0 is in range on one side or both
    for lo, hi in ((-1.0, 1.0), (-0.05, 0.3), (-0.3, 0.05)):
        assert math.isinf(gap_stats(fs, lo, hi).eps0)
    assert gap_stats(fs, -1.0, 1.0).delta0 == 0.125


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


def _gap_stats_or_refusal(grid, lo, hi):
    try:
        return gap_stats(grid, lo, hi)
    except PreconditionError as exc:
        return str(exc)


# the same points k/16 on [1, 2] and their mirror: FloatSystem(4, -4, 4)'s
# binade, a mesh of step 1/16 and an explicit set
_SAME_POINTS = (FloatSystem(4, -4, 4), UniformMesh(1.0 / 32.0),
                ExplicitSet(np.concatenate([-np.arange(32, 15, -1), np.arange(16, 33)]) / 16.0))


@given(st.floats(1.0, 2.0), st.floats(1.0, 2.0), st.booleans())
@example(1.0, 1.0625 - 2.0 ** -50, False)  # no full cell: [1, 1.0625] ends just past hi
@example(1.0 + 2.0 ** -52, 2.0, False)  # the first full cell is [1.0625, 1.125]: 1 is below lo
@example(1.0 + 2.0 ** -52, 2.0, True)
@example(1.0, 1.0625, False)
@settings(max_examples=300, deadline=None)
def test_gap_stats_same_on_the_same_points(a, b, negative):
    lo, hi = sorted((a, b))
    if negative:
        lo, hi = -hi, -lo
    if not lo < hi:
        return
    got = [_gap_stats_or_refusal(grid, lo, hi) for grid in _SAME_POINTS]
    assert got[0] == got[1] == got[2], (lo, hi, got)


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


@pytest.mark.parametrize("params", [(3, -4, 2, True), (2, -3, 1, False), (1, 0, 3, True), (1, 0, 3, False)])
def test_points_at_inverts_rank(params):
    fs = FloatSystem(*params)
    pts = enumerate_float_system(*params)
    # the points numbered in order, 0 at 0, on both signs; the map back is
    # exact on every point, from -top to top
    ranks = np.arange(-(pts.size // 2), pts.size // 2 + 1)
    assert [fs._rank(p) for p in pts] == list(ranks)
    got = fs.points_at(ranks)
    np.testing.assert_array_equal(got, pts)
    assert not np.signbit(got[ranks == 0]).any()
    assert fs.index_range(-fs.top, fs.top) == (ranks[0], ranks[-1])


MESH_CASES = [UniformMesh(0.05, 0.013), UniformMesh(0.1, 0.0), UniformMesh(0.0037, 0.001), UniformMesh(1.5, -0.0)]


@pytest.mark.parametrize("mesh", MESH_CASES)
def test_uniform_points_in_matches_enumeration(mesh):
    rng = np.random.default_rng(8)
    # near zero and far out, where (x - offset) / step rounds past an index
    for z in [*range(-30, 30), *rng.integers(-10 ** 7, 10 ** 7, 300)]:
        z = int(z)
        pts = mesh.offset + mesh.step * np.arange(z - 12, z + 13)
        p = float(pts[12])
        ranges = [(p, p), (p, float(pts[17])), (float(pts[3]), p)]
        ranges += [tuple(sorted(rng.uniform(pts[1], pts[-2], 2))) for _ in range(3)]
        for lo, hi in ranges:
            want = pts[(pts >= lo) & (pts <= hi)]
            np.testing.assert_array_equal(mesh.points_in(lo, hi), want, err_msg=f"{mesh} [{lo}, {hi}]")


def test_explicit_points_in_matches_enumeration():
    rng = np.random.default_rng(9)
    es = ExplicitSet(np.cumsum(rng.uniform(0.01, 1.0, 200)) - 50.0)
    pts = es.points
    ranges = [(p, p) for p in pts] + [(-99.0, 99.0), (-99.0, pts[0]), (pts[-1], 99.0), (99.0, 100.0)]
    for _ in range(300):
        ends = [float(rng.choice(pts)) if rng.random() < 0.5 else rng.uniform(-60.0, 160.0) for _ in range(2)]
        ranges.append((min(ends), max(ends)))
    for lo, hi in ranges:
        np.testing.assert_array_equal(es.points_in(lo, hi), pts[(pts >= lo) & (pts <= hi)], err_msg=f"[{lo}, {hi}]")


@pytest.mark.parametrize("grid", [
    UniformMesh(0.25, 0.0), UniformMesh(0.25, -0.0), FloatSystem(3, -4, 2), FloatSystem(2, -3, 1, subnormals=False),
    ExplicitSet(np.array([-1.0, -0.0, 2.0])),
], ids=["mesh", "mesh-offset-negative-zero", "float", "float-nosub", "explicit-negative-zero"])
def test_points_in_never_returns_negative_zero(grid):
    for lo, hi in ((-0.0, 0.0), (-0.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (-0.0, 1.0), (-2.0, 2.0)):
        pts = grid.points_in(lo, hi)
        assert 0.0 in pts and not np.signbit(pts[pts == 0.0]).any(), (lo, hi)


def test_grids_compare_and_hash_by_value():
    grids_by_kind = (UniformMesh(0.25, 0.1), FloatSystem(3, -4, 2), ExplicitSet([0.0, 1.0, 2.0]))
    twins = (UniformMesh(0.25, 0.1), FloatSystem(3, -4, 2), ExplicitSet(np.array([-0.0, 1.0, 2.0])))
    for grid, twin in zip(grids_by_kind, twins):
        assert grid == twin and hash(grid) == hash(twin)
    assert ExplicitSet([0.0, 1.0, 2.0]) != ExplicitSet([0.0, 1.0, 3.0])
    assert ExplicitSet([0.0, 1.0, 2.0]) != ExplicitSet([0.0, 1.0, 2.0, 3.0])
    assert ExplicitSet([0.0, 1.0]) != UniformMesh(0.5)
    assert len({*grids_by_kind, *twins}) == 3


def test_uniform_offset_normalization():
    assert UniformMesh(0.5, 1.7).offset == pytest.approx(0.7)
    assert UniformMesh(0.5, -0.3).offset == pytest.approx(0.7)
    assert UniformMesh(0.5, 2.0).offset == 0.0


def test_points_in_budget_guard():
    with pytest.raises(ConfigError, match="grid points in range, more than"):
        UniformMesh(1e-9, 0.0).points_in(0.0, 1.0)
    # 2^30 points in one binade: refused before any of them is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="grid points in range, more than"):
            FloatSystem(30, 0, 2).points_in(1.0, 2.0)
        with pytest.raises(ConfigError, match="grid points in range, more than"):
            FloatSystem(30, 0, 2).index_range(1.0, 2.0)
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
        assert parse_grid_config(cfg) == want


def test_bad_configs_rejected():
    with pytest.raises(ConfigError):
        parse_grid_config({"kind": "nope"})
    with pytest.raises(ConfigError):
        UniformMesh(-1.0)
    # a subnormal step: points_in's ceil of x / step overflowed
    with pytest.raises(ConfigError):
        UniformMesh(1e-320, 0.0)
    with pytest.raises(ConfigError):
        FloatSystem(0, -2, 2)
    with pytest.raises(ConfigError):
        ExplicitSet(np.array([1.0, 1.0]))
    # an infinite point bounds a cell of infinite width
    for bad in ([-math.inf, 0.0, 1.0], [0.0, 1.0, math.inf], [0.0, math.nan, 1.0]):
        with pytest.raises(ConfigError):
            ExplicitSet(np.array(bad))
    # a float system counts points by integer exponents and mantissa bits
    for args in ((5.5, -3, 3), (5, -3.5, 3), (5, -3, 3.0), ("5", -3, 3)):
        with pytest.raises(ConfigError):
            FloatSystem(*args)
    # subnormals takes a JSON boolean only: bool("false") is True
    for flag in ("false", "true", 0, 1, 0.5, None):
        with pytest.raises(ConfigError):
            parse_grid_config({"kind": "float", "m": 3, "k_min": -2, "k_max": 2, "subnormals": flag})


def test_float_system_mantissa_fits_a_double():
    # wider mantissas put grid points between doubles: |x|/step overflowed
    # to (inf, inf) neighbors for FloatSystem(1990, 990, 1000)
    for m, k_min, k_max in ((53, -2, 2), (1990, 990, 1000)):
        with pytest.raises(ConfigError):
            FloatSystem(m, k_min, k_max)
    fs = FloatSystem(52, -2, 2)
    assert fs.neighbors(1.0 + 2.0 ** -52) == (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52)


def test_grid_config_integral_floats_accepted():
    # a count may be given as an integral float
    fs = parse_grid_config({"kind": "float", "m": 3.0, "k_min": -2.0, "k_max": 2})
    assert (fs.mantissa_bits, fs.k_min, fs.k_max) == (3, -2, 2)
    assert isinstance(fs.mantissa_bits, int)
