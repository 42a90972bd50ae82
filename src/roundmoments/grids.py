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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    AboveGridError,
    BelowGridError,
    ConfigError,
    EmptyRangeError,
    TooManyCellsError,
)

CELL_BUDGET = 100_000_000


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
        if not (0.0 < step < math.inf and math.isfinite(self.offset)):
            raise ConfigError(f"need half_gap > 0 with a finite step and a finite offset, got {self!r}")
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

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        step = self.step
        z0 = math.ceil((lo - self.offset) / step - 1e-12)
        z1 = math.floor((hi - self.offset) / step + 1e-12)
        if z1 - z0 + 1 > CELL_BUDGET:
            raise TooManyCellsError(f"{z1 - z0 + 1} mesh points in range")
        pts = self.offset + step * np.arange(z0, z1 + 1, dtype=float)
        return pts[(pts >= lo) & (pts <= hi)]


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
        if not 1 <= self.mantissa_bits <= 52:
            # a wider mantissa puts grid points between adjacent doubles
            raise ConfigError("mantissa_bits must lie in [1, 52]")
        if not self.k_min < self.k_max:
            raise ConfigError("k_min must be < k_max")
        if self.k_min - self.mantissa_bits < -1000 or self.k_max > 1000:
            raise ConfigError("exponent range exceeds double-exact arithmetic")

    @property
    def top(self) -> float:
        return math.ldexp(1.0, self.k_max)

    @property
    def tiny(self) -> float:
        return math.ldexp(1.0, self.k_min)

    def _sub_step(self) -> float:
        if self.subnormals:
            return math.ldexp(1.0, self.k_min - self.mantissa_bits)
        return self.tiny

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
        blocks = [(0.0, self._sub_step(), self.tiny)]  # (anchor, step, end)
        for i in range(self.k_min, self.k_max):
            blocks.append((math.ldexp(1.0, i), math.ldexp(1.0, i - self.mantissa_bits), math.ldexp(1.0, i + 1)))
        for sign in (-1.0, 1.0):
            a = max(lo, 0.0) if sign > 0 else max(-hi, 0.0)
            b = min(hi, self.top) if sign > 0 else min(-lo, self.top)
            for anchor, step, end in blocks:
                c_lo, c_hi = max(a, anchor), min(b, end)
                if c_lo < c_hi:
                    yield sign, anchor, step, c_lo, c_hi

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        # A side of the range that meets the lattice in one point (lo == hi,
        # or a range that ends at 0 or is clipped to +/- top) holds no
        # stretch; that point is one of the range's ends clipped to the top.
        ends = np.clip([lo, hi], -self.top, self.top)
        chunks = [ends[self.neighbors(ends)[0] == ends]]
        count = 0
        for sign, anchor, step, a, b in self.stretches(lo, hi):
            j0 = math.ceil((a - anchor) / step - 1e-12)
            j1 = math.floor((b - anchor) / step + 1e-12)
            n = max(0, j1 - j0 + 1)
            count += n
            if count > CELL_BUDGET:
                raise TooManyCellsError("float lattice exceeds cell budget")
            if n:
                chunks.append(sign * (anchor + step * np.arange(j0, j1 + 1, dtype=float)))
        pts = np.unique(np.concatenate(chunks))
        # Both sides hold 0, so which signed zero survives np.unique depends
        # on the sort; adding 0.0 always returns +0.0.
        return pts[(pts >= lo) & (pts <= hi)] + 0.0


@dataclass(frozen=True)
class ExplicitSet:
    """A strictly increasing finite point set."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigError("explicit grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ConfigError("explicit grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def neighbors(self, x):
        x = np.asarray(x, dtype=float)
        i_lo = np.searchsorted(self.points, x, side="right") - 1
        i_hi = np.searchsorted(self.points, x, side="left")
        if np.any(i_lo < 0):
            raise BelowGridError("no grid point at or below query")
        if np.any(i_hi >= self.points.size):
            raise AboveGridError("no grid point at or above query")
        return self.points[i_lo], self.points[i_hi]

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        i0 = np.searchsorted(self.points, lo, side="left")
        i1 = np.searchsorted(self.points, hi, side="right")
        return self.points[i0:i1]


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
        g0 = float(ceil_to(grid, lo))
        g1 = float(floor_to(grid, hi))
        if g1 - g0 < step * (1.0 - 1e-12):
            raise EmptyRangeError("no full cell in range")
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
        for _, anchor, step, c_lo, c_hi in grid.stretches(lo, hi):
            j0 = math.ceil((c_lo - anchor) / step - 1e-12)
            p0 = anchor + j0 * step
            if p0 + step > c_hi * (1.0 + 1e-15):
                continue
            found = True
            delta0 = max(delta0, step)
            eps0 = math.inf if p0 == 0.0 else max(eps0, step / p0)
        if not found:
            raise EmptyRangeError("no full cell in range")
        if lo < 0.0 < hi:
            eps0 = math.inf  # cells adjacent to zero are in range
        return GapStats(eps0, delta0)

    if isinstance(grid, ExplicitSet):
        pts = grid.points_in(lo, hi)
        if pts.size < 2:
            raise EmptyRangeError("no full cell in range")
        gaps = np.diff(pts)
        # the cells tile [pts[0], pts[-1]], so one touches zero iff it does
        if pts[0] <= 0.0 <= pts[-1]:
            eps0 = math.inf
        else:
            eps0 = float(np.max(gaps / np.minimum(np.abs(pts[:-1]), np.abs(pts[1:]))))
        return GapStats(eps0, float(np.max(gaps)))

    raise ConfigError(f"unknown grid type {type(grid)!r}")


def config_number(value, name: str, integer: bool = False):
    """The config value ``value`` of parameter ``name`` as a finite float, or
    as an int when ``integer``; anything else is a ConfigError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x) or (integer and not x.is_integer()):
        raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
    return int(x) if integer else x


def parse_grid_config(obj: dict) -> Grid:
    """Build a grid from its JSON-style description."""
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ConfigError("grid config must be an object with a 'kind' field")
    try:
        if kind == "uniform":
            return UniformMesh(
                half_gap=config_number(obj["half_gap"], "half_gap"),
                offset=config_number(obj.get("offset", 0.0), "offset"),
            )
        if kind == "float":
            return FloatSystem(
                mantissa_bits=config_number(obj["m"], "m", integer=True),
                k_min=config_number(obj["k_min"], "k_min", integer=True),
                k_max=config_number(obj["k_max"], "k_max", integer=True),
                subnormals=bool(obj.get("subnormals", True)),
            )
        if kind == "explicit":
            points = obj["points"]
            if not isinstance(points, list):
                raise ConfigError("explicit grid points must be a list")
            return ExplicitSet(points=np.array([config_number(p, "point") for p in points], dtype=float))
    except KeyError as exc:
        raise ConfigError(f"{kind} grid config needs the key {exc.args[0]!r}") from None
    raise ConfigError(f"unknown grid kind {kind!r}")
