"""Brute-force oracles the bounds must dominate.

Everything here works directly from grid geometry: integration pieces are
cut at grid points and at the error function's breakpoints (the cell
midpoint under nearest rounding, zero for the directed schemes), where the
error is linear, so fixed-order Gauss panels integrate it essentially
exactly.  Stochastic rounding replaces the error powers by their per-point
expectations, in closed form.  Nothing in this module calls the bound engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import DensityModel
from .errors import PreconditionError
from .grids import FloatSystem, Grid, UniformMesh
from .quadrature import gauss_legendre_nodes
from .rounding import RoundingScheme, err_power, int_power, round_value, stoch_err_power, stoch_expectation

# Pieces per block of the per-cell kernel.  A block's node matrix has a row
# per node of its rule, at most 20 (k + 8 for k > 12): 160 KiB of float64, so
# the five-buffer workspace (800 KiB) stays in a 2 MB L2 cache (1,024-2,048
# pieces was fastest at 20 nodes; 16,384 was 30% slower).
QUAD_BLOCK = 1024
# The node counts a block may run, the last the integral's ceiling.
LADDER = (4, 6, 8, 12, 20)
# The Bernstein ellipses every bound is minimised over: rho, the semi-axes a
# = (rho + 1/rho)/2 and b = (rho - 1/rho)/2, and log((64/15) / (rho^2 - 1)).
_RHO = np.array([1.5, 2.0, 3.0, 4.0, 6.0, *2.0 ** np.arange(3.0, 33.0)])
_A, _B, _LOG_RHO = 0.5 * (_RHO + 1.0 / _RHO), 0.5 * (_RHO - 1.0 / _RHO), np.log(_RHO)
_LOG_TREFETHEN = math.log(64.0 / 15.0) - np.log(_RHO * _RHO - 1.0)
# Roundings of a node's weight times integrand, relative to its size.
EVAL_ULPS = 32
# Grid cells per partition chunk.  The oracle holds one chunk's pieces (at
# most two per cell, plus the grading at either end) and one block's node
# matrix at a time, so its memory does not grow with the grid; a chunk of 32
# blocks makes its one points_in and one neighbors call cheap per piece.
CHUNK_CELLS = 32 * QUAD_BLOCK
# Samples per Monte Carlo block.  A block's float64 array is 128 KiB, so the
# ten or so temporaries that drawing, transforming and rounding one block
# builds fit a 2 MB L2 cache together (16,384 beat 4,096 and 65,536).  The
# moments are summed over slices of at most MC_BLOCK samples cut along
# np.sum's own pairwise tree, so they equal whole-array sums bit for bit.
# Only the rounded values are kept whole, so memory is O(MC_BLOCK) plus 8 B
# per sample, however many moments or summands there are.
MC_BLOCK = 16_384


@dataclass(frozen=True)
class OracleResult:
    value: float
    abs_error_estimate: float
    method: str  # "per_cell_quadrature" | "monte_carlo"
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Weight:
    """The weight (x - center)^power f(x), f the model's density or 1 with no
    model.  ``_cache``, outside ``==``, ``hash`` and ``repr``, keeps the last
    partition of one chunk walked with this weight and the _weight_bounds
    taken from it, so walks that pass one Weight share them."""

    model: DensityModel | None = None
    center: float = 0.0
    power: int = 0
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _partition(grid: Grid, scheme: RoundingScheme, a: float, b: float):
    """The chunks of :func:`_chunks` for no weight, yielded one at a time and
    kept nowhere; nothing, the checks on [a, b] included, runs before the
    first chunk is asked for."""
    yield from _chunks(None, grid, scheme, a, b)


def _chunks(weight, grid: Grid, scheme: RoundingScheme, a: float, b: float):
    """Pieces [lo, hi] of [a, b] with each piece's rounding data, as chunks
    of arrays (lo, hi, rd_data): rd_data holds both cell ends under
    stochastic rounding, else the rounding target.  A partition of one chunk
    is a list, kept on ``weight`` if it is a :class:`Weight` until that walks
    another; a longer one is a generator, kept nowhere.

    The chunks are cut at every CHUNK_CELLS-th grid point of [a, b], taken
    from the grid's numbering of its points, so no chunk holds more than
    CHUNK_CELLS cells and none enumerates the whole grid; the grid's
    CELL_BUDGET is checked on all of [a, b] before the first chunk.  Pieces
    are cut at grid points and, under a deterministic scheme, at each cell's
    switch point (its midpoint under nearest rounding, 0 under directed
    rounding), so the error is one linear branch on each piece.  The
    outermost pieces are graded geometrically toward a and b, where
    densities often lose smoothness.
    """
    key, kept = (grid, scheme, a, b, CHUNK_CELLS, QUAD_BLOCK), weight._cache if isinstance(weight, Weight) else {}
    if kept.get("key") != key:
        kept.clear()
        if not (a < b and math.isfinite(a) and math.isfinite(b)):
            raise PreconditionError(f"need finite a < b, got [{a!r}, {b!r}]")
        i0, i1 = grid.index_range(a, b)
        cuts = grid.points_at(np.arange(i0 + CHUNK_CELLS - 1, i1 + 1, CHUNK_CELLS))
        ends = [a, *cuts[(cuts > a) & (cuts < b)].tolist(), b]
        if len(ends) > 2:
            return (_pieces(grid, scheme, lo, hi, lo == a, hi == b) for lo, hi in zip(ends[:-1], ends[1:]))
        kept.update(key=key, chunk=_pieces(grid, scheme, a, b, True, True))
    return [kept["chunk"]]


def _pieces(grid: Grid, scheme: RoundingScheme, lo: float, hi: float, grade_lo: bool, grade_hi: bool):
    """The pieces of one chunk [lo, hi], each with its rounding data, graded
    toward lo and hi as asked.  Its temporaries die when it returns, so the
    generator holds none of them while its chunk is integrated: the freed
    memory is reused there, where it would otherwise be faulted in anew."""
    pts = grid.points_in(lo, hi)
    edges = np.concatenate([[lo], pts[(pts > lo) & (pts < hi)], [hi]])
    grading = []
    if grade_lo:
        w_lo = edges[1] - edges[0]
        grading += [lo + w_lo * 3.0 ** (-j) for j in range(1, 14)]
    if grade_hi:
        w_hi = edges[-1] - edges[-2]
        grading += [hi - w_hi * 3.0 ** (-j) for j in range(1, 14)]
    if grading:
        edges = np.unique(np.concatenate([edges, grading]))
    lo_p, hi_p = edges[:-1], edges[1:]
    c_lo, c_hi = grid.neighbors(0.5 * (lo_p + hi_p))
    if scheme is RoundingScheme.STOCHASTIC:
        # expected error powers are smooth inside a cell: no switch point
        return lo_p, hi_p, (c_lo, c_hi)
    switch = 0.5 * (c_lo + c_hi) if scheme is RoundingScheme.NEAREST else np.zeros_like(lo_p)
    # targets below and above each switch point: only rounding toward zero
    # takes the upper cell end below it
    below, above = (c_hi, c_lo) if scheme is RoundingScheme.TOWARD_ZERO else (c_lo, c_hi)
    # a piece the switch point cuts keeps its lower part in place and its
    # upper part is appended after all the others of its chunk
    inside = (switch > lo_p) & (switch < hi_p)
    cut, upper = switch[inside], hi_p[inside]
    hi_p = np.where(inside, switch, hi_p)
    targets = np.concatenate([np.where(hi_p <= switch, below, above), above[inside]])
    # freed before the pieces are concatenated, to keep the peak down
    del c_lo, c_hi, switch, below, above, inside
    return np.concatenate([lo_p, cut]), np.concatenate([hi_p, upper]), (targets,)


class _Integrand(NamedTuple):
    """f(X, *rd_data, out=, scratch=) at a node matrix (nodes x pieces); on a
    piece a polynomial of ``degree`` with |f| <= R^power and |f'| <= ``lip``
    R^(power - 1) (0 where R is), R = reach(lo, hi, *rd_data)."""

    f: Callable
    reach: Callable
    power: int
    degree: int
    lip: float


@cache
def _rung_logs(degree: int, rungs: tuple) -> np.ndarray:
    """Rows over _RHO to add to log sup|w|: 0, -log(a - 1), and per n the log
    of (64/15) rho^(degree + 2 - 2n) / (rho^2 - 1)."""
    rows = [0.0 * _RHO, -np.log(_A - 1.0), *(_LOG_TREFETHEN + (degree + 2 - 2 * r) * _LOG_RHO for r in rungs)]
    return np.array(rows)[:, :, None]


def _weight_bounds(weight: Weight, lo_p, hi_p, starts) -> tuple:
    """Per block (one at each of ``starts``): the largest half-width h, summed
    half-widths, max|x| + h + |center| + |mode|, log(sup|w| / scale) on its
    Bernstein ellipses (a row per rho); scale; the pieces straddling a jump
    or too near a branch point; 2h sup|w| of those, or of a lone block's."""
    model = weight.model
    width = hi_p - lo_p
    h, length = (0.5 * total.reduceat(width, starts) for total in (np.maximum, np.add))
    lo, hi = np.minimum.reduceat(lo_p, starts), np.maximum.reduceat(hi_p, starts)
    log, singular, scale = np.zeros((_RHO.size, starts.size)), False, 1.0 if model is None else model.peak
    for p in () if model is None else model.jumps:
        singular = singular | ((lo_p < p) & (p < hi_p))
    if model is not None and model.branch_points:
        # an ellipse of half-width a h keeps clear of a point while a h <= gap + h
        room = 1.0 + 2.0 * np.minimum(lo_p - model.branch_points[0], model.branch_points[1] - hi_p) / width
        singular = singular | (room < _A[0])
        log[_A[:, None] > np.minimum.reduceat(np.where(singular, np.inf, room), starts)] = np.inf
    if model is not None:
        log += model.ellipse_log_bound(lo, hi, h, _A[:, None], _B[:, None])
    if weight.power:
        log += weight.power * np.log(np.maximum(np.abs(weight.center - lo), np.abs(weight.center - hi)) / h + _A[:, None])
        scale = scale * int_power(h, weight.power)
    far = np.maximum(hi, -lo) + (h + abs(weight.center) + (0.0 if model is None else abs(model.mode)))
    at, real = np.flatnonzero(singular), None
    if at.size or starts.size == 1:
        # a unimodal density's sup on a piece is its value nearest the mode
        pick = at if at.size else slice(None)
        lo_s, hi_s = lo_p[pick], hi_p[pick]
        real = width[pick] * (1.0 if model is None else model.density(np.clip(model.mode, lo_s, hi_s)))
        if weight.power:
            real *= int_power(np.maximum(np.abs(weight.center - lo_s), np.abs(weight.center - hi_s)), weight.power)
    return h, length, far, log, scale, at, real


def _block_bounds(weight: Weight, integrand: _Integrand, lo_p, hi_p, rd_data, starts, rungs: tuple):
    """Each block's certified error per n of ``rungs``, node rounding bound,
    magnitude bound, and whether a piece is at a point where the density is
    not analytic.  With |w f| <= M = sup|w| rho^degree sup|f| on E_rho
    (Bernstein-Walsh), the n-node error on a piece is at most h (64/15) M /
    ((rho^2 - 1) rho^(2n - 2)) (Trefethen, SIAM Review 50(1), 2008, Thm
    4.5).  Nodes moved by d = 4u (max|x| + |mode| + |center|) move its sum by
    2hd (sup|w'| sup|f| + sup|w| sup|f'|), sup|w'| <= sup|w| / (h (a - 1))
    (Cauchy).  A piece's magnitude is at most 2h sup|w| sup|f|, its error
    twice that: the bound at a point where the density is not analytic."""
    kept = weight._cache if lo_p is weight._cache.get("chunk", (None,))[0] else {}
    if "bounds" not in kept:  # taken once from a partition kept on the weight
        kept["bounds"] = _weight_bounds(weight, lo_p, hi_p, starts)
    h, length, far, log, scale, at, real = kept["bounds"]
    reach = integrand.reach(lo_p, hi_p, *rd_data)
    top = np.maximum.reduceat(reach, starts)
    sup = int_power(top, integrand.power)
    slope = integrand.lip * (top > 0.0 if integrand.power < 2 else int_power(top, integrand.power - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past a double is inf, and inf times 0 is 0
        # sup|w|, sup|w'| and the certificates over sup|f|, each minimised over rho
        bounds = scale * np.exp(np.minimum.reduce(log + _rung_logs(integrand.degree, rungs), axis=1))
        bounds[1] /= h
        bounds[2:] *= length
        spread = bounds[0] * slope
        bounds = np.where(sup > 0.0, bounds * sup, 0.0)
        moved = (8.0 * 2.0 ** -53) * length * far * (bounds[1] + np.where(slope > 0.0, spread, 0.0))
    sizes = 2.0 * length * bounds[0]
    certs, edge = np.minimum(bounds[2:], 2.0 * sizes).T, np.zeros(starts.size, dtype=bool)
    if at.size:
        fallback = 2.0 * real * int_power(reach[at], integrand.power)
        certs += np.bincount(at // QUAD_BLOCK, fallback, starts.size)[:, None]
        edge[at[fallback > 0.0] // QUAD_BLOCK] = True
    elif real is not None:  # a lone block's magnitude bound, piece by piece
        sizes = np.sum(real * int_power(reach, integrand.power), keepdims=True)
    return certs, moved, sizes, edge


@cache
def _rules(rungs: tuple) -> list:
    """The Gauss rule of each n of rungs: its nodes as a column, its weights."""
    return [(x[:, None], w) for x, w in map(gauss_legendre_nodes, rungs)]


def _run_block(nodes, weights, space, weight: Weight, f, lo, hi, *rd_data) -> tuple:
    """One rule over the pieces [lo, hi] in the workspace's five buffers (X,
    W, F, two scratch): the summed integrals, and the sum of h w |w f|."""
    r, mid, half = nodes.size, 0.5 * (lo + hi), 0.5 * (hi - lo)
    X, W, F, *S = space[:, : r * lo.size].reshape(5, r, lo.size)
    np.add(mid, np.multiply(nodes, half, out=X), out=X)
    W = np.positive(1.0, out=W) if weight.model is None else weight.model.density(X, out=W)
    if weight.power:
        np.multiply(W, int_power(np.subtract(X, weight.center, out=S[0]), weight.power, *S), out=W)
    np.multiply(W, f(X, *rd_data, out=F, scratch=S), out=F)
    # the per-piece sums go into the weight's buffer, no longer read
    terms = np.matmul(weights, F, out=space[1, : lo.size])
    value = np.add.reduce(np.multiply(half, terms, out=terms))
    return value, float(np.dot(half, np.matmul(weights, np.abs(F, out=F), out=terms)))


def _per_cell_gauss(weight, integrand: _Integrand, chunks, low: int, n: int) -> OracleResult:
    """Per-cell Gauss quadrature of w(x) f(X, *rd_data) over the pieces of
    ``chunks`` (from :func:`_chunks`), QUAD_BLOCK at a time in one
    workspace, with ``weight`` a :class:`Weight` or a model.  A block runs the
    fewest nodes of LADDER, ``low`` to ``n``, whose certified error is below
    2^-53 times its magnitude (else n, and n at a point where the density is
    not analytic): the fewest its magnitude's bound allows, rerun once if they
    fail.  The estimate is ``details["discretization"]``, the certificates,
    plus ``["roundoff"]``: node rounding, and gamma_N times the magnitudes for
    EVAL_ULPS, the node sum, a block's pairwise sum (29 additions at most)
    and the fsum.  ``details`` counts ``pieces``, ``chunks``, ``blocks``,
    their ``runs``, and the most ``nodes``."""
    weight = weight if isinstance(weight, Weight) else Weight(weight)
    rungs = (*(r for r in LADDER if low <= r < n), n)
    rules = _rules(rungs)
    last, u, sums, size, bound, moved = len(rungs) - 1, 2.0 ** -53, [], 0.0, 0.0, 0.0
    pieces = n_chunks = runs = most = 0
    for lo_p, hi_p, rd_data in chunks:
        pieces, n_chunks, starts = pieces + lo_p.size, n_chunks + 1, np.arange(0, lo_p.size, QUAD_BLOCK)
        certs, moves, guesses, edges = _block_bounds(weight, integrand, lo_p, hi_p, rd_data, starts, rungs)
        space = np.empty((5, n * min(lo_p.size, QUAD_BLOCK)))
        for start, cert, move, guess, edge in zip(starts.tolist(), certs, moves.tolist(), guesses.tolist(), edges):
            block = (space, weight, integrand.f, *(col[start : start + QUAD_BLOCK] for col in (lo_p, hi_p, *rd_data)))
            i = last if edge or not cert[-1] <= u * guess else int(np.argmax(cert <= u * guess))
            value, mag = _run_block(*rules[i], *block)
            if not (cert[i] <= u * mag or i == last):
                i = int(np.argmax(cert <= u * mag)) if cert[-1] <= u * mag else last
                value, mag = _run_block(*rules[i], *block)
                runs += 1
            sums.append(value)
            size, bound, moved, most = size + mag, bound + cert[i], moved + move, max(most, rungs[i])
        runs += len(starts)
        # every chunk has a piece; drop its views and workspace before the next is built
        del lo_p, hi_p, rd_data, block, space, certs, moves, guesses, edges
    depth = EVAL_ULPS + most + 31
    roundoff = depth * u / (1.0 - depth * u) * size + moved
    details = {"pieces": pieces, "nodes": most, "blocks": len(sums), "runs": runs, "chunks": n_chunks,
               "discretization": float(bound), "roundoff": roundoff}
    return OracleResult(math.fsum(sums), float(bound) + roundoff, "per_cell_quadrature", details)


def _err_integrand(scheme: RoundingScheme, k: int, signed: bool) -> _Integrand:
    """err^k or |err|^k at a target, or between the cell ends their means,
    in a and b (at most the reach, summing to the width): 0 for E[err], and
    the clamp error past the top."""
    if scheme is not RoundingScheme.STOCHASTIC:
        return _Integrand(lambda X, rd, out, scratch: err_power(rd, X, k, signed, out),
                          lambda lo, hi, rd: _farthest(rd, lo, hi, rd), k, k, k)
    if signed and k == 1:
        reach = lambda lo, hi, c_lo, c_hi: np.where(c_hi > c_lo, 0.0, _farthest(hi, c_lo, c_hi, lo))  # noqa: E731
    else:
        reach = lambda lo, hi, c_lo, c_hi: _farthest(hi, c_lo, c_hi, lo)  # noqa: E731
    return _Integrand(partial(stoch_err_power, k=k, signed=signed), reach, k, k + 1, 2 * (k + 1))


def _rd_integrand(scheme: RoundingScheme, j: int, shift: float) -> _Integrand:
    """E[(rd(x) - shift)^j]: constant at a target, linear between cell ends."""
    if scheme is not RoundingScheme.STOCHASTIC:
        return _Integrand(lambda X, t, out, scratch: int_power(t - shift, j), lambda lo, hi, t: np.abs(t - shift), j, 0, 0)
    return _Integrand(lambda X, *rd, out, scratch: stoch_expectation(X, *rd, *(int_power(r - shift, j) for r in rd), out=out),
                      lambda lo, hi, c_lo, c_hi: np.maximum(np.abs(c_lo - shift), np.abs(c_hi - shift)), j, 1, j)


def _farthest(a, b, c, d):
    """max(a - b, c - d), with one temporary."""
    out = np.subtract(a, b)
    return np.maximum(out, np.subtract(c, d), out=out)


def err_weighted_integral(grid: Grid, scheme: RoundingScheme, weight, a: float, b: float, k: int,
                          signed: bool = False) -> OracleResult:
    """Per-cell quadrature of integral w(x) err(x)^k dx over [a, b], where w
    is ``weight``: a :class:`Weight`, or a model as ``Weight(model)``.  A
    partition of one chunk is built once for all the walks that pass one
    Weight, and a model keeps none.  Stochastic rounding integrates the expected error powers instead of a
    realization.  The estimate is a certified discretization bound plus a
    rounding bound (see :func:`_per_cell_gauss`)."""
    return _per_cell_gauss(weight, _err_integrand(scheme, k, signed), _chunks(weight, grid, scheme, a, b), k + 2,
                           max(k + 8, 20))


def rd_moment_integral(grid: Grid, scheme: RoundingScheme, weight, a: float, b: float, j: int,
                       shift: float = 0.0) -> OracleResult:
    """Per-cell quadrature of integral w(x) E[(rd(x) - shift)^j] dx, with w as in err_weighted_integral."""
    return _per_cell_gauss(weight, _rd_integrand(scheme, j, shift), _chunks(weight, grid, scheme, a, b), j + 2, 20)


def delta_e_and_v(model: DensityModel, grid: Grid, scheme: RoundingScheme) -> tuple[OracleResult, OracleResult]:
    """Quadrature values of Delta_E = E[rd(X)] - E[X] and Delta_V likewise.

    Delta_E comes straight from the error integral (no cancellation);
    V[rd(X)] is assembled from per-cell first and second rounded moments.
    """
    (a, b), weight = model.effective_range(), Weight(model)
    de = err_weighted_integral(grid, scheme, weight, a, b, 1, signed=True)
    m1 = rd_moment_integral(grid, scheme, weight, a, b, 1)
    m2 = rd_moment_integral(grid, scheme, weight, a, b, 2)
    square = m1.value * m1.value  # m1 ** 2 calls pow, which is not correctly rounded
    v_rd = m2.value - square
    value = v_rd - model.variance
    # the two results' errors, then one rounding of each of the three operations
    spread = m2.abs_error_estimate + (2.0 * abs(m1.value) + m1.abs_error_estimate) * m1.abs_error_estimate
    return de, OracleResult(value, spread + 2.0 ** -53 * (square + abs(v_rd) + abs(value)), "per_cell_quadrature",
                            dict(m2.details))


def centered_moment_of_rounded(model: DensityModel, grid: Grid, scheme: RoundingScheme, k: int) -> OracleResult:
    """Quadrature value of M_k[rd(X)] (centered at E[rd(X)])."""
    (a, b), weight = model.effective_range(), Weight(model)
    m1 = rd_moment_integral(grid, scheme, weight, a, b, 1)
    return rd_moment_integral(grid, scheme, weight, a, b, k, shift=m1.value)


@dataclass(frozen=True)
class MCMoments:
    raw: tuple
    central: tuple
    delta_e: OracleResult
    delta_v: OracleResult


def _philox_stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_blocks(n_samples: int):
    """(slice, size) of each MC_BLOCK block of n_samples, in order.  A
    stream's draws taken block by block concatenate to its whole draw, so
    sample i keeps element i of each of its streams."""
    for start in range(0, n_samples, MC_BLOCK):
        size = min(MC_BLOCK, n_samples - start)
        yield slice(start, start + size), size


def mc_rounded_moments(
    model: DensityModel,
    grid: Grid,
    scheme: RoundingScheme,
    k_max: int,
    n_samples: int,
    seed: int,
) -> MCMoments:
    """Monte Carlo moments of rd(X) via inverse-transform sampling.

    Sample uniforms come from the counter-based stream (seed, 0); the
    stochastic-rounding variate for sample i is element i of stream
    (seed, 1), so results are reproducible regardless of scheduling.
    Samples are drawn, transformed and rounded MC_BLOCK at a time; only the
    rounded values are kept whole, and every moment is summed from them a
    slice at a time (see :func:`_tree_sum`).
    """
    if k_max < 1:
        raise PreconditionError("need k_max >= 1")
    if n_samples < 1000:
        raise PreconditionError("need at least 1000 samples")
    draws = _philox_stream(seed, 0)
    variates = _philox_stream(seed, 1) if scheme is RoundingScheme.STOCHASTIC else None
    rd = np.empty(n_samples)
    for blk, size in _sample_blocks(n_samples):
        x = np.asarray(model.quantile(draws.random(size)), dtype=float)
        rd[blk] = round_value(grid, scheme, x, None if variates is None else variates.random(size))
    info = {"samples": n_samples, "seed": seed}
    res = partial(_mc_result, info)
    # raw orders about 0, central ones about rbar
    raw_orders, central_orders = range(1, k_max + 1), range(2, max(k_max, 2) + 1)
    raw_means = _power_sums(rd, 0.0, raw_orders) / n_samples
    raw_squares = _power_sums(rd, 0.0, raw_orders, raw_means).tolist()
    raw = tuple(map(res, raw_means.tolist(), raw_squares))
    rbar = raw[0].value
    central_means = _power_sums(rd, rbar, central_orders) / n_samples
    # The second central moment is always needed: its spread is Delta_V's.
    central = tuple(map(res, central_means.tolist(), _power_sums(rd, rbar, central_orders, central_means).tolist()))
    delta_e = OracleResult(rbar - model.mean, raw[0].abs_error_estimate, "monte_carlo", dict(info))
    # np.var(rd, ddof=1)
    v_rd = raw_squares[0] / (n_samples - 1)
    delta_v = OracleResult(v_rd - model.variance, central[0].abs_error_estimate, "monte_carlo", dict(info))
    return MCMoments(raw=raw, central=central[: k_max - 1], delta_e=delta_e, delta_v=delta_v)


def _mc_result(info: dict, mean: float, squares: float) -> OracleResult:
    """The Monte Carlo mean of info["samples"] values whose squared deviations
    from it sum to ``squares``, as np.mean and np.std give them from
    :func:`_power_sums`, with an estimate of 4 np.std / sqrt(n)."""
    n = info["samples"]
    return OracleResult(mean, 4.0 * math.sqrt(squares / n) / math.sqrt(n), "monte_carlo", dict(info))


def _power_sums(rd: np.ndarray, shift: float, orders, means=None) -> np.ndarray:
    """Per k of ``orders``, np.sum of (rd - shift)^k, or with ``means`` of
    ((rd - shift)^k - means[k])^2, bit for bit, without building either array
    whole: each slice of :func:`_tree_sum` forms its own powers."""
    def leaf(lo: int, hi: int) -> np.ndarray:
        x, sums = rd[lo:hi] - shift, np.empty(len(orders))
        for i, k in enumerate(orders):
            p = int_power(x, k)  # a new array
            if means is not None:
                p -= means[i]
                p *= p
            sums[i] = np.sum(p)
        return sums

    return _tree_sum(leaf, 0, rd.size)


def _tree_sum(leaf: Callable, lo: int, hi: int):
    """leaf(lo, hi), np.sum over the elements [lo, hi) of some arrays, added
    up along np.sum's own pairwise tree: a node splits at half its length
    rounded down to a multiple of 8 until it holds at most MC_BLOCK, which is
    more than numpy's 128-element leaf, so each slice's np.sum is a subtree
    of the whole one and the result equals np.sum over [lo, hi) bit for bit.
    It recurses by module-level calls: a closure calling itself would be a
    reference cycle, keeping the arrays it reads alive until the cyclic
    collector runs."""
    if hi - lo <= MC_BLOCK:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 2 // 8 * 8
    return _tree_sum(leaf, lo, mid) + _tree_sum(leaf, mid, hi)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    deltas: tuple
    values: tuple
    excluded: tuple
    all_underflow: bool = False


def convergence_slope(
    model: DensityModel,
    scheme: RoundingScheme,
    quantity: str,
    deltas: Sequence[float],
    n_probe: int = 16,
) -> SlopeFit:
    """Least-squares log-log slope of the worst-offset quantity vs delta.

    Points below 1e-15 are excluded and flagged.  A quantity that
    underflows everywhere has converged past measurement: the slope is
    reported as +inf with ``all_underflow`` set rather than fitted.
    """
    if len(deltas) < 4:
        raise PreconditionError("need at least 4 mesh sizes")
    if quantity not in ("delta_e", "delta_v", "abs_err_mean"):
        raise PreconditionError(f"unknown quantity {quantity!r}")
    lo, hi = model.effective_range()
    worst = []
    for d in deltas:
        best = 0.0
        for a in np.linspace(0.0, 2.0 * d, n_probe, endpoint=False):
            mesh = UniformMesh(float(d), float(a))
            if quantity == "delta_v":
                q = delta_e_and_v(model, mesh, scheme)[1].value
            else:  # Delta_E is the signed error integral, as in delta_e_and_v
                q = err_weighted_integral(mesh, scheme, model, lo, hi, 1, signed=quantity == "delta_e").value
            best = max(best, abs(q))
        worst.append(best)
    excluded = tuple(v < 1e-15 for v in worst)
    xs = [math.log(d) for d, ex in zip(deltas, excluded) if not ex]
    ys = [math.log(v) for v, ex in zip(worst, excluded) if not ex]
    if not xs:
        return SlopeFit(math.inf, tuple(deltas), tuple(worst), excluded, all_underflow=True)
    if len(xs) < 2:
        raise PreconditionError("fewer than 2 usable points after underflow exclusion")
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SlopeFit(slope, tuple(deltas), tuple(worst), excluded)


def simulated_sum(
    models: Sequence[DensityModel],
    fs: FloatSystem,
    scheme: RoundingScheme,
    n_samples: int,
    seed: int,
) -> OracleResult:
    """Monte Carlo E|S_n - rounded S_n| for a sequential rounded sum.

    Summand i draws from stream (seed, i); rounding variates for addition
    step k come from stream (seed, 2^32 + k).  Partial sums that saturate
    the float system are counted, not fatal.  Samples are summed MC_BLOCK
    at a time; only |S_n - rounded S_n| is kept whole.
    """
    n = len(models)
    if n == 0:
        raise PreconditionError("need at least one summand")
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    # one generator per stream, each drawn block by block
    draws = [_philox_stream(seed, i) for i in range(n)]
    stochastic = scheme is RoundingScheme.STOCHASTIC
    steps = [_philox_stream(seed, (1 << 32) + k) if stochastic else None for k in range(1, n)]
    diff = np.empty(n_samples)
    overflow = 0
    for blk, size in _sample_blocks(n_samples):
        xs = (np.asarray(m.quantile(g.random(size)), dtype=float) for m, g in zip(models, draws))
        rounded = next(xs)
        exact = rounded.copy()
        for x, variates in zip(xs, steps):
            # the exact sum adds the summands in order, as the rounded one does
            exact += x
            s = rounded + x
            overflow += int(np.sum(fs.saturates(s)))
            rounded = round_value(fs, scheme, s, None if variates is None else variates.random(size))
        diff[blk] = np.abs(exact - rounded)
    mean = _power_sums(diff, 0.0, (1,)) / n_samples
    squares = float(_power_sums(diff, 0.0, (1,), mean)[0])
    return _mc_result({"samples": n_samples, "seed": seed, "overflow_events": overflow}, float(mean[0]), squares)
