"""Finite precision number systems and neighbor queries.

Three grid kinds are supported: a uniform mesh ``{2*half_gap*z + offset}``, a
binary float system with ``2^m`` points per binade, and an explicit sorted
point set.  Neighbor queries never enumerate the grid; the float system is
resolved by exponent/mantissa arithmetic so realistic mantissa widths
(m = 23) cost the same as toy ones.

All query functions accept scalars or ndarrays and return matching shapes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Union

import numpy as np

from .errors import ConfigError, PreconditionError

CELL_BUDGET = 100_000_000
# Bucket edges an explicit set's index computes at a time: a 512 KiB array.
INDEX_CHUNK = 65_536


# Each grid kind numbers its points in order and offers two primitives on
# the numbering: index_range(lo, hi), the first and last index of the points
# of [lo, hi], and points_at(i), the points of an integer index array.
def _budget(i0: int, i1: int) -> tuple[int, int]:
    """(i0, i1), unless the range holds more than CELL_BUDGET points; a count past 12 digits is shown to 3."""
    if (n := i1 - i0 + 1) > CELL_BUDGET:
        raise ConfigError(f"{n if n < 10**12 else format(Decimal(n), '.3g')} grid points in range, more than {CELL_BUDGET}")
    return i0, i1


def _points_in(grid, lo: float, hi: float) -> np.ndarray:
    """The grid points of [lo, hi], in order: each grid kind's points_in."""
    i0, i1 = grid.index_range(lo, hi)
    return grid.points_at(np.arange(i0, i1 + 1))


@dataclass(frozen=True)
class UniformMesh:
    """Grid ``{2*half_gap*z + offset : z integer}``.

    ``half_gap`` is the worst additive error under round-to-nearest;
    consecutive points are ``2*half_gap`` apart.  The offset is normalized
    into ``[0, 2*half_gap)`` at construction.
    """

    half_gap: float
    offset: float = 0.0

    def __post_init__(self):
        step = 2.0 * self.half_gap
        # points_in and neighbors divide by the step
        if not (0.0 < step < math.inf and 1.0 / step < math.inf and math.isfinite(self.offset)):
            raise ConfigError(f"need half_gap > 0 with a finite step and 1/step and a finite offset, got {self!r}")
        a = math.fmod(self.offset, step)
        if a < 0.0:
            a += step
        if a == step:
            a = 0.0
        object.__setattr__(self, "offset", a)

    @property
    def step(self) -> float:
        return 2.0 * self.half_gap

    def neighbors(self, x):
        x = np.asarray(x, dtype=float)
        step = self.step
        # Keep every point in canonical offset + z*step form: recomputing a
        # returned neighbor must reproduce it bit for bit (idempotence) and
        # negation must mirror exactly on symmetric meshes.
        z = np.floor((x - self.offset) / step)
        z = np.where(self.offset + z * step > x, z - 1.0, z)
        z = np.where(self.offset + (z + 1.0) * step <= x, z + 1.0, z)
        lo = self.offset + z * step
        hi = np.where(lo == x, lo, self.offset + (z + 1.0) * step)
        return lo, hi

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Indices z0..z1 of the points ``offset + z*step`` of [lo, hi]."""
        at = self.points_at
        q0, q1 = ((x - self.offset) / self.step for x in (lo, hi))
        if not math.isfinite(q1 - q0):  # past a double's range: count in decimal for the budget to refuse
            return _budget(0, int((Decimal(hi) - Decimal(lo)) / Decimal(self.step)))
        z0, z1 = math.ceil(q0), math.floor(q1)
        # the divisions may round past a point: step each end onto [lo, hi]
        z0 += int(at(z0) < lo) - int(at(z0 - 1) >= lo)
        z1 += int(at(z1 + 1) <= hi) - int(at(z1) > hi)
        return _budget(z0, z1)

    def points_at(self, z: np.ndarray) -> np.ndarray:
        return self.offset + self.step * z

    points_in = _points_in


@dataclass(frozen=True)
class FloatSystem:
    """Binary float grid: ``2^m`` evenly spaced points on each binade
    ``[2^i, 2^(i+1))`` for ``i = k_min .. k_max-1``, mirrored for negatives,
    plus ``2^m`` subnormal points on ``[0, 2^k_min)`` when enabled (the
    subnormal region otherwise holds only 0).  ``2^k_max`` itself is the
    largest representable magnitude; queries beyond it saturate and are
    flagged through :meth:`saturates`.
    """

    mantissa_bits: int
    k_min: int
    k_max: int
    subnormals: bool = True

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.mantissa_bits, self.k_min, self.k_max)):
            raise ConfigError(f"mantissa_bits, k_min and k_max must be integers, got {self!r}")
        if not 1 <= self.mantissa_bits <= 52:
            # a wider mantissa puts grid points between adjacent doubles
            raise ConfigError("mantissa_bits must lie in [1, 52]")
        if not self.k_min < self.k_max:
            raise ConfigError("k_min must be < k_max")
        if self.k_min - self.mantissa_bits < -1000 or self.k_max > 1000:
            raise ConfigError("exponent range exceeds double-exact arithmetic")
        # the scale 2^(k_min - m + b) of binade b, for points_at
        scales = np.ldexp(1.0, np.arange(self.k_min - self.mantissa_bits, self.k_max - self.mantissa_bits + 1))
        object.__setattr__(self, "_scales", scales)

    @property
    def top(self) -> float:
        return math.ldexp(1.0, self.k_max)

    @property
    def tiny(self) -> float:
        return math.ldexp(1.0, self.k_min)

    def saturates(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.abs(x) > self.top

    def neighbors(self, x):
        x = np.asarray(x, dtype=float)
        # Queries beyond +/- top saturate onto it, and top is a grid point.
        ax = np.minimum(np.abs(x), self.top)
        # ax lies in [2^(e-1), 2^e); the spacing there is a power of two, so
        # floor(ax/step)*step is exact.
        _, e = np.frexp(ax)
        step = np.ldexp(1.0, np.maximum(e - 1, self.k_min) - self.mantissa_bits)
        if not self.subnormals:
            step = np.where(ax < self.tiny, self.tiny, step)
        lo = np.floor(ax / step) * step
        hi = np.where(lo == ax, lo, lo + step)
        neg = x < 0
        return np.where(neg, -hi, lo), np.where(neg, -lo, hi)

    def stretches(self, lo: float, hi: float):
        """Uniformly spaced stretches of the lattice meeting [lo, hi].

        Yields ``(sign, anchor, step, a, b)``: on the magnitude interval
        [a, b] (a < b, clipped to the query and to [0, top]) the lattice is
        ``anchor + j*step``, so the grid points of [lo, hi] there are
        ``sign * (anchor + j*step)``.  The stretches are the subnormal
        interval [0, 2^k_min] and each binade [2^i, 2^(i+1)], negative side
        first.  Anchors are always grid points, so lattice enumeration
        within a clipped query range stays on the true grid.
        """
        # (sign, a, b) of each side that meets the query
        sides = [(sign, a, b) for sign, a, b in ((-1.0, max(-hi, 0.0), min(-lo, self.top)),
                                                 (1.0, max(lo, 0.0), min(hi, self.top))) if a < b]
        if not sides:
            return
        a_min, b_max = min(a for _, a, _ in sides), max(b for _, _, b in sides)
        # (anchor, step, end) of the subnormal interval and of the binades
        # [2^i, 2^(i+1)] that can meet [a_min, b_max]: x lies in
        # [2^(e-1), 2^e) for e = frexp(x)[1], so those from a_min's to b_max's
        if a_min < self.tiny:
            sub_step = math.ldexp(1.0, self.k_min - self.mantissa_bits) if self.subnormals else self.tiny
            blocks, i0 = [(0.0, sub_step, self.tiny)], self.k_min
        else:
            blocks, i0 = [], math.frexp(a_min)[1] - 1
        for i in range(i0, min(self.k_max, math.frexp(b_max)[1])):
            blocks.append((math.ldexp(1.0, i), math.ldexp(1.0, i - self.mantissa_bits), math.ldexp(1.0, i + 1)))
        for sign, a, b in sides:
            for anchor, step, end in blocks:
                c_lo, c_hi = max(a, anchor), min(b, end)
                if c_lo < c_hi:
                    yield sign, anchor, step, c_lo, c_hi

    def _rank(self, x: float) -> int:
        """The index of grid point x among the grid's points, 0 at 0: the
        points below 2^k_min, then 2^m per binade, negated below 0."""
        m, ax = self.mantissa_bits, abs(x)
        i = math.frexp(max(ax, self.tiny))[1] - 1  # ax lies in [2^i, 2^(i+1)), or below 2^k_min = 2^i
        r = ((i - self.k_min) << m) + int(math.ldexp(ax, m - i))
        if r and not self.subnormals:
            r -= (1 << m) - 1  # counted as if the 2^m - 1 subnormal points were there
        return -r if x < 0.0 else r

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Indices (:meth:`_rank`) of the first and last point of [lo, hi];
        the neighbors saturate at +/- top, past which no point lies."""
        below, above = self.neighbors([lo, hi])
        return _budget(self._rank(above[0]) + (lo > self.top), self._rank(below[1]) - (hi < -self.top))

    def points_at(self, r: np.ndarray) -> np.ndarray:
        """The grid points of indices r, the inverse of :meth:`_rank`."""
        m = self.mantissa_bits
        a = np.abs(r)
        if not self.subnormals:
            a = np.where(a > 0, a + ((1 << m) - 1), 0)  # as in _rank
        # the subnormal points and binade 0 are a * 2^(k_min - m); binade b
        # is its 2^m points a - b*2^m scaled by 2^(k_min - m + b)
        b = np.maximum((a >> m) - 1, 0)
        p = (a - (b << m)) * self._scales[b]
        return np.where(r < 0, -p, p)

    points_in = _points_in


@dataclass(frozen=True)
class ExplicitSet:
    """A strictly increasing finite point set.

    Neighbor queries go through an index built on the first query and kept
    in ``_cache``, outside ``==``, ``hash`` and ``repr``: N equal-width
    buckets over [p_0, p_{N-1}], N the number of points, each with the int32
    count of points at or below its lower edge (4 B per point).
    """

    points: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float) + 0.0  # a -0.0 point is +0.0
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigError("explicit grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            # an infinite point would bound a cell of infinite width
            raise ConfigError("explicit grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ConfigError("explicit grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        return type(other) is ExplicitSet and np.array_equal(self.points, other.points)

    def __hash__(self):  # the points are finite with no -0.0: equal sets have equal bytes
        return hash(self.points.tobytes())

    def _index(self) -> tuple[float, np.ndarray]:
        """The bucket width and the count of points at or below each edge
        p_0 + j * width, j = 0..N, built INDEX_CHUNK edges at a time.  A span
        past a double makes the width inf and the first edge NaN, and a width
        that underflows to 0 makes every edge p_0: then no query lies between
        its bucket's edges, and every query is searched."""
        if "index" not in self._cache:
            pts = self.points
            counts = np.empty(pts.size + 1, dtype=np.int32)
            with np.errstate(over="ignore", invalid="ignore"):
                width = (pts[-1] - pts[0]) / pts.size
                for start in range(0, counts.size, INDEX_CHUNK):
                    j = np.arange(start, min(start + INDEX_CHUNK, counts.size), dtype=float)
                    counts[start : start + j.size] = np.searchsorted(pts, pts[0] + j * width, side="right")
            self._cache["index"] = width, counts
        return self._cache["index"]

    def neighbors(self, x):
        x = np.asarray(x, dtype=float)
        pts, flat = self.points, x.reshape(-1)
        width, counts = self._index()
        # x's bucket j, and whether x lies between its edges as _index
        # computed them; NaN and far queries land in the end buckets
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            j = np.minimum(np.fmax(np.floor((flat - pts[0]) / width), 0.0), pts.size - 1.0)
            fast = (pts[0] + j * width <= flat) & (flat < pts[0] + (j + 1.0) * width)
        j = j.astype(np.intp)
        below, upto = counts[j], counts[j + 1]
        # With at most one point in the bucket, the points at or below x are
        # those at or below its upper edge, less that point if it lies above x.
        fast &= upto - below <= 1
        count = upto - (pts[upto - 1] > flat)
        if not fast.all():
            slow = ~fast
            count[slow] = np.searchsorted(pts, flat[slow], side="right")
        i_lo = count.reshape(x.shape) - 1
        # the point at or below x is x itself exactly when x is on the set
        i_hi = i_lo + (pts[np.maximum(i_lo, 0)] != x)
        if np.any(i_lo < 0):
            raise PreconditionError("no grid point at or below query")
        if np.any(i_hi >= pts.size):
            raise PreconditionError("no grid point at or above query")
        return pts[i_lo], pts[i_hi]

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        return _budget(int(np.searchsorted(self.points, lo, side="left")),
                       int(np.searchsorted(self.points, hi, side="right")) - 1)

    def points_at(self, i: np.ndarray) -> np.ndarray:
        return self.points[i]

    points_in = _points_in


Grid = Union[UniformMesh, FloatSystem, ExplicitSet]


def floor_to(grid: Grid, x):
    """Largest grid point <= x; equals x exactly when x is on the grid."""
    lo, _ = grid.neighbors(x)
    return lo if np.ndim(x) else float(lo)


def ceil_to(grid: Grid, x):
    """Smallest grid point >= x; mirror of :func:`floor_to`."""
    _, hi = grid.neighbors(x)
    return hi if np.ndim(x) else float(hi)


@dataclass(frozen=True)
class GapStats:
    """Worst relative (eps0) and absolute (delta0) gap over a range.

    ``ceil(x) <= (1 + eps0) * floor(x)`` and ``ceil(x) <= floor(x) + delta0``
    for every x whose cell lies fully inside [lo, hi].  eps0 is infinite
    when some cell in range touches or straddles zero, where a relative
    model cannot hold.
    """

    eps0: float
    delta0: float


def gap_stats(grid: Grid, lo: float, hi: float) -> GapStats:
    """Gap statistics over all full cells inside [lo, hi]."""
    if not lo < hi:
        raise ConfigError("gap_stats requires lo < hi")

    if isinstance(grid, UniformMesh):
        step = grid.step
        g0 = ceil_to(grid, lo)
        g1 = floor_to(grid, hi)
        if not g0 < g1:  # two grid points in range bound a full cell
            raise PreconditionError("no full cell in range")
        if g0 <= 0.0 <= g1:
            eps0 = math.inf
        elif g0 > 0.0:
            eps0 = step / g0
        else:
            eps0 = step / abs(g1)
        return GapStats(eps0, step)

    if isinstance(grid, FloatSystem):
        eps0 = 0.0
        delta0 = 0.0
        found = False
        for _, _, step, c_lo, c_hi in grid.stretches(lo, hi):
            # the lattice is symmetric: the first point of magnitude >= c_lo
            # starts the stretch's first cell, full if it ends by c_hi
            p0 = ceil_to(grid, c_lo)
            if p0 + step > c_hi:
                continue
            found = True
            delta0 = max(delta0, step)
            eps0 = math.inf if p0 == 0.0 else max(eps0, step / p0)
        if not found:
            raise PreconditionError("no full cell in range")
        return GapStats(eps0, delta0)

    if isinstance(grid, ExplicitSet):
        pts = grid.points_in(lo, hi)
        if pts.size < 2:
            raise PreconditionError("no full cell in range")
        gaps = np.diff(pts)
        # the cells tile [pts[0], pts[-1]], so one touches zero iff it does
        if pts[0] <= 0.0 <= pts[-1]:
            eps0 = math.inf
        else:
            eps0 = float(np.max(gaps / np.minimum(np.abs(pts[:-1]), np.abs(pts[1:]))))
        return GapStats(eps0, float(np.max(gaps)))

    raise ConfigError(f"unknown grid type {type(grid)!r}")

