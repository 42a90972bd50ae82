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
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import DensityModel
from .errors import PreconditionError
from .grids import FloatSystem, Grid, UniformMesh
from .quadrature import gauss_legendre_nodes
from .rounding import RoundingScheme, err_power, int_power, round_value, stoch_err_power, stoch_expectation

# Pieces per block of the per-cell kernel.  A block's 20-node float64 node
# matrix is 320 KiB, so it and the few temporaries the integrand builds from
# it stay in L2 cache (1,024-2,048 was fastest with 2 MB of L2 per core;
# 16,384 was 30% slower).
QUAD_BLOCK = 2048
# Grid cells per partition chunk.  The oracle holds one chunk's pieces (at
# most two per cell, plus the grading at either end) and one block's node
# matrix at a time, so its memory does not grow with the grid; a chunk of 16
# blocks makes its one points_in and one neighbors call cheap per piece.
CHUNK_CELLS = 16 * QUAD_BLOCK
# Samples per Monte Carlo block.  A block's float64 array is 128 KiB, so the
# ten or so temporaries that drawing, transforming and rounding one block
# builds fit a 2 MB L2 cache together (16,384 beat 4,096 and 65,536).  Only
# the per-sample results are kept whole, so memory is O(MC_BLOCK) plus a few
# arrays of n_samples doubles, however many summands a sum has.
MC_BLOCK = 16_384


@dataclass(frozen=True)
class OracleResult:
    value: float
    abs_error_estimate: float
    method: str  # "per_cell_quadrature" | "monte_carlo"
    details: dict = field(default_factory=dict)


def _partition(grid: Grid, scheme: RoundingScheme, a: float, b: float):
    """Pieces [lo, hi] of [a, b] with each piece's rounding data, yielded one
    chunk at a time as columns (lo, hi, rd_data): rd_data holds both cell
    ends under stochastic rounding, else the rounding target.

    The chunks are cut at every CHUNK_CELLS-th grid point of [a, b], taken
    from the grid's numbering of its points, so no chunk holds more than
    CHUNK_CELLS cells and none enumerates the whole grid; the grid's
    CELL_BUDGET is checked on all of [a, b] before the first chunk.  Pieces
    are cut at grid points and, under a deterministic scheme, at each cell's
    switch point (its midpoint under nearest rounding, 0 under directed
    rounding), so the error is one linear branch on each piece.  The
    outermost pieces, in the first and last chunk, are graded geometrically
    toward a and b: densities often lose smoothness exactly at their support
    edges (square root onsets, jumps), and grading keeps fixed-order Gauss
    panels at full accuracy there.
    """
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"need finite a < b, got [{a!r}, {b!r}]")
    i0, i1 = grid.index_range(a, b)
    cuts = grid.points_at(np.arange(i0 + CHUNK_CELLS - 1, i1 + 1, CHUNK_CELLS))
    ends = [a, *cuts[(cuts > a) & (cuts < b)].tolist(), b]
    for lo, hi in zip(ends[:-1], ends[1:]):
        yield _pieces(grid, scheme, lo, hi, lo == a, hi == b)


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
        return lo_p, hi_p, (c_lo[:, None], c_hi[:, None])
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
    return np.concatenate([lo_p, cut]), np.concatenate([hi_p, upper]), (targets[:, None],)


def _per_cell_gauss(weight, f, chunks, n: int) -> OracleResult:
    """Per-cell Gauss quadrature of w(x) f(X, *rd_data) over the pieces.

    ``weight`` is a model or a pointwise callable.  ``f(X, *rd_data, out=,
    scratch=)`` writes the integrand at a block's node matrix X (pieces x
    nodes) into out, or returns an array that broadcasts to it; it may
    overwrite X and use scratch, a spare node matrix.  ``chunks``
    are the pieces with their rounding data, chunk by chunk, from
    :func:`_partition`: one target, or the two cell ends of a stochastic
    expectation.  Each chunk's pieces are taken QUAD_BLOCK at a time in one
    workspace of node-matrix buffers and the block sums kept in the order
    they come, so memory is one chunk plus O(QUAD_BLOCK x nodes) however
    many pieces there are.  Each block is integrated at n nodes and at the
    half-order rerun (in the first part of each buffer) whose difference is
    the error estimate.  ``details`` counts the pieces, the partition
    ``chunks`` and the QUAD_BLOCK ``blocks`` they were cut into.
    """
    rules = [gauss_legendre_nodes(order) for order in (n, max(n // 2, 4))]
    sums: tuple[list, list] = ([], [])
    pieces = n_chunks = 0
    for lo_p, hi_p, rd_data in chunks:
        pieces += lo_p.size
        n_chunks += 1
        space = np.empty((4, min(lo_p.size, QUAD_BLOCK) * n))
        for start in range(0, lo_p.size, QUAD_BLOCK):
            blk = slice(start, start + QUAD_BLOCK)
            lo, hi = lo_p[blk], hi_p[blk]
            mid = 0.5 * (lo + hi)[:, None]
            half = 0.5 * (hi - lo)
            rd_blk = [r[blk] for r in rd_data]
            for (nodes, weights), out in zip(rules, sums):
                X, W, F, S = (buf[: lo.size * nodes.size].reshape(lo.size, nodes.size) for buf in space)
                np.add(mid, np.multiply(half[:, None], nodes, out=X), out=X)
                if hasattr(weight, "density"):
                    W = weight.density(X, out=W)
                else:
                    np.copyto(W, weight(X))
                np.multiply(W, f(X, *rd_blk, out=F, scratch=S), out=F)
                # the per-piece sums go into the weight's buffer, no longer read
                terms = np.matmul(F, weights, out=space[1, : lo.size])
                out.append(np.sum(np.multiply(half, terms, out=terms)))
        # every chunk has a piece; drop its views and workspace before the next is built
        del lo_p, hi_p, rd_data, lo, hi, rd_blk, space, X, W, F, S, terms
    value, coarse = (float(np.sum(s)) for s in sums)
    details = {"pieces": pieces, "nodes": n, "blocks": len(sums[0]), "chunks": n_chunks}
    return OracleResult(value, abs(value - coarse), "per_cell_quadrature", details)


def err_weighted_integral(
    grid: Grid,
    scheme: RoundingScheme,
    model_or_weight,
    a: float,
    b: float,
    k: int,
    signed: bool = False,
) -> OracleResult:
    """Per-cell quadrature of integral w(x) err(x)^k dx over [a, b].

    Stochastic rounding integrates the expected error powers instead of a
    realization.  The error estimate compares against a half-order rerun.
    """
    f = partial(stoch_err_power, k=k, signed=signed) if scheme is RoundingScheme.STOCHASTIC else (
        lambda X, rd, out, scratch: err_power(rd, X, k, signed, out))
    n = max(k + 8, 20)
    return _per_cell_gauss(model_or_weight, f, _partition(grid, scheme, a, b), n)


def rd_moment_integral(
    grid: Grid,
    scheme: RoundingScheme,
    model_or_weight,
    a: float,
    b: float,
    j: int,
    shift: float = 0.0,
) -> OracleResult:
    """Per-cell quadrature of integral w(x) E[(rd(x) - shift)^j] dx."""
    def f(X, *rd, out, scratch):
        # the powers at the target or the two cell ends are constants per piece
        powers = [int_power(r - shift, j) for r in rd]
        return stoch_expectation(X, *rd, *powers, out=out) if scheme is RoundingScheme.STOCHASTIC else powers[0]

    return _per_cell_gauss(model_or_weight, f, _partition(grid, scheme, a, b), 20)


def delta_e_and_v(model: DensityModel, grid: Grid, scheme: RoundingScheme) -> tuple[OracleResult, OracleResult]:
    """Quadrature values of Delta_E = E[rd(X)] - E[X] and Delta_V likewise.

    Delta_E comes straight from the error integral (no cancellation);
    V[rd(X)] is assembled from per-cell first and second rounded moments.
    """
    a, b = model.effective_range()
    de = err_weighted_integral(grid, scheme, model, a, b, 1, signed=True)
    m1 = rd_moment_integral(grid, scheme, model, a, b, 1)
    m2 = rd_moment_integral(grid, scheme, model, a, b, 2)
    v_rd = m2.value - m1.value ** 2
    dv = OracleResult(
        v_rd - model.variance,
        m2.abs_error_estimate + 2.0 * abs(m1.value) * m1.abs_error_estimate + 1e-15 * abs(m2.value),
        "per_cell_quadrature",
        dict(m2.details),
    )
    return de, dv


def centered_moment_of_rounded(model: DensityModel, grid: Grid, scheme: RoundingScheme, k: int) -> OracleResult:
    """Quadrature value of M_k[rd(X)] (centered at E[rd(X)])."""
    a, b = model.effective_range()
    m1 = rd_moment_integral(grid, scheme, model, a, b, 1)
    return rd_moment_integral(grid, scheme, model, a, b, k, shift=m1.value)


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
    rounded values are kept whole.
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
    root_n = math.sqrt(n_samples)
    info = {"samples": n_samples, "seed": seed}

    def spread(vals: np.ndarray) -> tuple[float, float]:
        # the mean and the sum of squared deviations from it, each as
        # np.mean and np.std compute them
        mean = np.mean(vals)
        dev = vals - mean
        dev *= dev
        return float(mean), float(np.sum(dev))

    def res(value: float, squares: float) -> OracleResult:
        # 4 * np.std(vals) / sqrt(n)
        return OracleResult(value, 4.0 * math.sqrt(squares / n_samples) / root_n, "monte_carlo", dict(info))

    raws = [spread(int_power(rd, k)) for k in range(1, k_max + 1)]
    raw = tuple(res(*r) for r in raws)
    rbar, rd_squares = raws[0]
    centered = rd  # rd itself is not read again
    centered -= rbar
    # The second central moment is always needed: its spread is Delta_V's.
    central = tuple(res(*spread(int_power(centered, k))) for k in range(2, max(k_max, 2) + 1))
    delta_e = OracleResult(rbar - model.mean, raw[0].abs_error_estimate, "monte_carlo", dict(info))
    # np.var(rd, ddof=1)
    v_rd = rd_squares / (n_samples - 1)
    delta_v = OracleResult(v_rd - model.variance, central[0].abs_error_estimate, "monte_carlo", dict(info))
    return MCMoments(raw=raw, central=central[: k_max - 1], delta_e=delta_e, delta_v=delta_v)


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
    value = float(np.mean(diff))
    se = 4.0 * float(np.std(diff)) / math.sqrt(n_samples)
    return OracleResult(
        value,
        se,
        "monte_carlo",
        {"samples": n_samples, "seed": seed, "overflow_events": overflow},
    )
