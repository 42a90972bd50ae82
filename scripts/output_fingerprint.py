#!/usr/bin/env python3
"""Print a fingerprint of the package's numeric output, one line per item.

Run it on two commits and diff the outputs to see which printed numbers a
change moved.  It prints:

* every oracle integral over four models x five grids x four schemes:
  ``float.hex`` of its value and error estimate, and its ``details``; and
  the same for the four integrals of perfbench's ``float_oracle`` workload
  (normal(0.5, 1) on ``FloatSystem(12, -40, 6)``, 0.4-1.1M pieces each,
  so their partitions span many chunks); and the stochastic error
  integrals for k = 1-4, signed and absolute, of normal(0.5, 1) on
  ``FloatSystem(7, -12, 6)`` and on the explicit grid;
* the sha256 of ``oracle._chunks``' chunks for no weight (each chunk's first and
  last edge and its piece count) under each scheme on each grid kind,
  ranges of more than ``CHUNK_CELLS`` cells included: a float range across
  zero, and explicit ranges starting on and off a set point;
* the sha256 of ``verify --instances 200`` stdout for seeds 0-2, whole and
  split by check kind;
* the sha256 of the four benchmark sweeps and of a toward-zero sweep, whole
  and column by column, and of each one's ``--format json`` and
  ``--format svg`` output;
* the ``bound`` JSON of the tier-A mean and variance bounds, of the tier
  B, C and D variance bounds and of the centered-moment bound, of the
  strong and error-moment bounds of a normal and an exponential far below
  unit length (or the exit code of one whose moment underflows), and of
  ``bound --plan`` with and without ``--n``/``--t`` (and ``--delta``);
* the sha256 of ``json.dumps(rep.to_json())`` for one report of each
  bound family (asserting that ``BoundReport.from_json`` reads each back);
* the sha256 of ``ExplicitSet.neighbors`` (the bytes of lo, then of hi)
  on ``linspace(0, 1, 100_001)**2`` at 10^5 uniforms of Philox stream
  (0, 0), every point, every midpoint, and the ``nextafter`` neighbours of
  every point that lie inside the set's range;
* ``gap_stats`` on each grid kind over ranges on either side of zero and
  touching it, including all-negative and zero-ending explicit sets (or
  the exception's class and message);
* ``adaptive_quad`` on finite ranges, with and without breakpoints, and
  its refusal of half-infinite and infinite ones;
* ``float.hex`` of the value of the normal partial-moment bound for
  m = 0-6 and n = 1, 3, of the symmetric mixed-moment bound on the normal
  model (whose left tail is infinite) and on a uniform model straddling
  zero, of the unimodal bound on every model for k = 1-3 in both modes, and
  of the tier C and D mean bounds on the normal, exponential and uniform
  models, and of the float bound on ``FloatSystem(7, -12, 6)`` for three
  models, nearest and stochastic rounding, and k = 1 and 3 signed and
  k = 2 absolute; the oracle E|err| of normal(3e-7, 6e-13) on
  ``FloatSystem(7, -40, 6)`` under nearest rounding with its strong and
  unimodal bounds, and the exponential(1) strong coefficient at k = 20;
* the sha256 of each model's ``quantile`` on a fixed grid of u (edges
  down to the smallest subnormal included), and of ``sum-demo`` stdout
  under nearest and stochastic rounding;
* ``float.hex`` of every value and error estimate of ``mc_rounded_moments``
  on perfbench's four ``montecarlo`` cases at 49,169 samples (three whole
  16,384-sample blocks and part of a fourth), and the JSON of a stochastic
  ``sum-demo`` of 40 summands and 40,000 samples;
* ``ok`` or the exception's class and message for a fixed list of model
  constructions: each ``make_*`` with in-range and malformed parameters,
  and ``dataclasses.replace`` copies with a wrong interior mode, a two-bump
  density, a zero density at the mode and an infinite variance;
* ``float.hex`` of the slope and worst values of ``convergence_slope`` on
  the semicircle at four mesh sizes and four probed offsets, for each of
  its three quantities under nearest and toward-zero rounding.

Usage: python scripts/output_fingerprint.py > fingerprint.txt
(5-10 s on a 2-CPU host, by its load).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from roundmoments import (  # noqa: E402
    ExplicitSet,
    FloatSystem,
    RoundingScheme,
    UniformMesh,
    gap_stats,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
)
from roundmoments import bounds as B  # noqa: E402
from roundmoments.cli import main as cli_main  # noqa: E402
from roundmoments.errors import PreconditionError, RoundMomentsError  # noqa: E402
from roundmoments.oracle import (  # noqa: E402
    CHUNK_CELLS,
    _chunks,
    _philox_stream,
    centered_moment_of_rounded,
    convergence_slope,
    delta_e_and_v,
    err_weighted_integral,
    mc_rounded_moments,
    rd_moment_integral,
)
from roundmoments.quadrature import adaptive_quad  # noqa: E402

MODELS = {
    "semicircle": make_semicircle(1.0, 0.0),
    "normal": make_normal(0.3, 1.0),
    "exponential": make_exponential(1.0),
    "uniform": make_uniform(-0.5, 1.0),
}
GRIDS = {
    "mesh0.1": UniformMesh(0.1, 0.0),
    "mesh0.05+0.013": UniformMesh(0.05, 0.013),
    "mesh0.2+0.07": UniformMesh(0.2, 0.07),
    "float8": FloatSystem(8, -20, 5),
    # nonuniform, denser near zero, covering every model's effective range
    "explicit": ExplicitSet(np.linspace(-60.0, 60.0, 1201) ** 3 / 3600.0),
}
# the four benchmark sweeps, then one under directed rounding
SWEEPS = (
    ("semicircle:r=1.0,mu=0.0", "0.05", "nearest"),
    ("semicircle:r=1.0,mu=0.0", "0.1", "nearest"),
    ("semicircle:r=1.0,mu=0.0", "0.2", "nearest"),
    ("normal:mu=0.3,sigma2=1.0", "0.1", "stochastic"),
    ("semicircle:r=1.0,mu=0.0", "0.1", "toward_zero"),
)
GAP_GRIDS = {
    **GRIDS,
    "float8-nosub": FloatSystem(8, -20, 5, subnormals=False),
    "explicit-negative": ExplicitSet(-np.geomspace(3.0, 0.01, 40)),
    "explicit-to-zero": ExplicitSet(np.array([-2.0, -0.7, -0.2, 0.0, 0.3, 1.1, 2.5])),
}
GAP_RANGES = ((-1.0, 1.0), (0.25, 2.0), (-2.0, -0.25), (-0.7, 0.0), (0.0, 3.0), (1e-3, 1e-2))
INTEGRANDS = {
    "gauss|x-0.3|": (lambda x: np.exp(-x * x) * np.abs(x - 0.3), (0.3,)),
    "exponential": (MODELS["exponential"].density, (0.0,)),
    "normal": (MODELS["normal"].density, (-1.0, 0.3, 2.0)),
}
# the infinite ranges are refused; the finite ones reach past each model's effective range
QUAD_RANGES = ((-math.inf, 0.8), (-0.4, math.inf), (-math.inf, math.inf), (-0.4, 0.8), (-14.0, 0.8), (-0.4, 44.0),
               (-14.0, 14.0))
# bounds whose moments lie far from unit length, and one whose moment underflows
SMALL_SCALE_BOUNDS = (
    ("normal:mu=3e-7,sigma2=6e-13", "strong", "1"),
    ("exponential:lambda=1e6", "err-moment", "1"),
    ("normal:mu=0,sigma2=1e-300", "strong", "3"),
)
DISTS = (
    "semicircle:r=1,mu=0",
    "semicircle:r=1.5,mu=0.4",
    "normal:mu=0.3,sigma2=1",
    "exponential:lambda=1.5",
    "uniform:lo=-0.5,hi=1",
)

FLOAT_MODELS = {
    "exponential(1.3)": make_exponential(1.3),
    "semicircle(r=0.8,mu=1.5)": make_semicircle(0.8, 1.5),
    "normal(1.0,0.5)": make_normal(1.0, 0.5),
}

# perfbench's montecarlo cases: (label, model, grid, scheme)
MC_CASES = (
    ("semicircle-uniform-nearest", make_semicircle(1.0, 0.3), UniformMesh(0.05, 0.01), RoundingScheme.NEAREST),
    ("normal-float23-stochastic", make_normal(0.3, 1.0), FloatSystem(23, -126, 128), RoundingScheme.STOCHASTIC),
    ("exponential-uniform-stochastic", make_exponential(1.0), UniformMesh(0.05), RoundingScheme.STOCHASTIC),
    ("uniform-explicit-nearest", make_uniform(0.0, 1.0), ExplicitSet(np.linspace(0.0, 1.0, 100_001) ** 2),
     RoundingScheme.NEAREST),
)
MC_SAMPLES = 3 * 16_384 + 17

SQUARES = ExplicitSet(np.linspace(0.0, 1.0, 100_001) ** 2)
# (label, grid, a, b) of the partitions whose chunks are fingerprinted
PARTITIONS = (
    ("mesh0.05+0.013 [-1.9, 2.3]", UniformMesh(0.05, 0.013), -1.9, 2.3),
    ("mesh1e-5+3e-6 [-0.37, 0.41]", UniformMesh(1e-5, 3e-6), -0.37, 0.41),
    ("mesh1e-5 [0, 0.7]", UniformMesh(1e-5), 0.0, 0.7),
    ("float12 [-3.1, 4.7]", FloatSystem(12, -40, 6), -3.1, 4.7),
    ("float12 [-2, 3]", FloatSystem(12, -40, 6), -2.0, 3.0),
    ("float10-nosub [-0.3, 40]", FloatSystem(10, -20, 5, subnormals=False), -0.3, 40.0),
    ("float4 [-3.3, 9]", FloatSystem(4, -6, 3), -3.3, 9.0),
    ("squares from a set point", SQUARES, float(SQUARES.points[12_345]), 0.9),
    ("squares from a set point to one", SQUARES, float(SQUARES.points[2]), float(SQUARES.points[-3])),
    ("squares off the set", SQUARES, 1e-9, 0.95),
    ("explicit [-2.7, 3.1]", GRIDS["explicit"], -2.7, 3.1),
)

QUANTILE_US = np.concatenate([[0.0, 5e-324, 1e-300, 1e-100, 1e-16, 1e-8], np.linspace(0.0, 1.0, 100_001),
                              [1.0 - 1e-8, 1.0 - 1e-16, 1.0]])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def oracle_line(label: str, res) -> str:
    details = json.dumps(res.details, sort_keys=True)
    return f"oracle {label} {float.hex(res.value)} {float.hex(res.abs_error_estimate)} {details}"


def oracle_lines():
    for mname, model in MODELS.items():
        a, b = model.effective_range()
        for gname, grid in GRIDS.items():
            for scheme in RoundingScheme:
                tag = f"{mname} {gname} {scheme.value}"
                for k, signed in ((1, True), (2, False), (3, True)):
                    res = err_weighted_integral(grid, scheme, model, a, b, k, signed=signed)
                    yield oracle_line(f"{tag} err k={k} signed={signed}", res)
                res = rd_moment_integral(grid, scheme, model, a, b, 2, shift=0.25)
                yield oracle_line(f"{tag} rd j=2 shift=0.25", res)
                de, dv = delta_e_and_v(model, grid, scheme)
                yield oracle_line(f"{tag} delta_e", de)
                yield oracle_line(f"{tag} delta_v", dv)
                yield oracle_line(f"{tag} centered k=3", centered_moment_of_rounded(model, grid, scheme, 3))
    model, grid = make_normal(0.5, 1.0), FloatSystem(12, -40, 6)
    a, b = model.effective_range()
    for scheme in (RoundingScheme.NEAREST, RoundingScheme.STOCHASTIC):
        for k, signed in ((1, True), (2, False)):
            res = err_weighted_integral(grid, scheme, model, a, b, k, signed=signed)
            yield oracle_line(f"normal(0.5,1) float12 {scheme.value} err k={k} signed={signed}", res)
    for gname, grid in (("float7", FloatSystem(7, -12, 6)), ("explicit", GRIDS["explicit"])):
        for k in range(1, 5):
            for signed in (True, False):
                res = err_weighted_integral(grid, RoundingScheme.STOCHASTIC, model, a, b, k, signed=signed)
                yield oracle_line(f"normal(0.5,1) {gname} stochastic err k={k} signed={signed}", res)


def partition_lines():
    for label, grid, a, b in PARTITIONS:
        for scheme in RoundingScheme:
            chunks = [f"{float.hex(lo_p.min())} {float.hex(hi_p.max())} {lo_p.size}"
                      for lo_p, hi_p, _ in _chunks(None, grid, scheme, a, b)]
            yield f"partition {label} {scheme.value} chunks={len(chunks)} sha256={sha(chr(10).join(chunks))}"
    yield f"partition CHUNK_CELLS={CHUNK_CELLS}"


def verify_lines():
    for seed in (0, 1, 2):
        rc, out = cli_stdout(["--seed", str(seed), "verify", "--instances", "200"])
        yield f"verify seed={seed} rc={rc} sha256={sha(out)}"
        by_kind: dict = {}
        for line in out.splitlines():
            if "[" in line:
                kind = line.split("[", 1)[1].split("]", 1)[0].strip()
                by_kind.setdefault(kind, []).append(line)
        for kind in sorted(by_kind):
            yield f"verify seed={seed} kind={kind} sha256={sha(chr(10).join(by_kind[kind]))}"


def sweep_lines():
    for dist, delta, scheme in SWEEPS:
        tag = f"{dist} delta={delta} {scheme}"
        rc, out = cli_stdout(["sweep", "--dist", dist, "--delta", delta, "--scheme", scheme, "--offsets", "64"])
        yield f"sweep {tag} rc={rc} sha256={sha(out)}"
        rows = [line.split(",") for line in out.splitlines()]
        for i, name in enumerate(rows[0]):
            yield f"sweep {tag} column={name} sha256={sha(chr(10).join(r[i] for r in rows[1:]))}"
        for fmt in ("json", "svg"):
            argv = ["--format", fmt, "sweep", "--dist", dist, "--delta", delta, "--scheme", scheme, "--offsets", "64"]
            rc, out = cli_stdout(argv)
            yield f"sweep {tag} format={fmt} rc={rc} sha256={sha(out)}"


def bound_lines():
    for dist in DISTS:
        for quantity in ("mean", "variance"):
            argv = ["bound", "--dist", dist, "--tier", "A", "--delta", "0.1", "--quantity", quantity]
            rc, out = cli_stdout(argv)
            yield f"bound {dist} tier=A {quantity} rc={rc} {json.dumps(json.loads(out), sort_keys=True)}"
        for k in (2, 3, 4):
            for flag, base in (("--delta", "0.1"), ("--eps", "0.01")):
                argv = ["bound", "--dist", dist, "--quantity", "centered", "--k", str(k), flag, base]
                rc, out = cli_stdout(argv)
                text = json.dumps(json.loads(out), sort_keys=True) if rc == 0 else "-"
                yield f"bound {dist} centered k={k} {flag}={base} rc={rc} {text}"
        for tier in ("B", "C", "D"):
            argv = ["bound", "--dist", dist, "--grid", "uniform:half_gap=0.1,offset=0.03", "--tier", tier,
                    "--quantity", "variance"]
            rc, out = cli_stdout(argv)
            # key order kept: it is part of the printed JSON
            text = json.dumps(json.loads(out)) if rc == 0 else "-"
            yield f"bound {dist} tier={tier} variance rc={rc} {text}"
    for dist, quantity, k in SMALL_SCALE_BOUNDS:
        rc, out = cli_stdout(["bound", "--dist", dist, "--quantity", quantity, "--k", k, "--eps", "0.01"])
        yield f"bound {dist} {quantity} k={k} eps=0.01 rc={rc} {json.dumps(json.loads(out)) if rc == 0 else '-'}"
    for extra in ((), ("--n", "400"), ("--n", "400", "--t", "0.5"), ("--n", "400", "--t", "0.5", "--delta", "0.1")):
        rc, out = cli_stdout(["bound", "--plan", "--variance", "2", "--c", "1.5", "--p", "0.05", *extra])
        yield f"bound plan {' '.join(extra)} rc={rc} {json.dumps(json.loads(out))}"


def report_lines():
    semi, normal = MODELS["semicircle"], MODELS["normal"]
    shifted = make_semicircle(1.0, 2.0)
    mesh = UniformMesh(0.1, 0.03)
    add, mult = B.ADDITIVE, B.MULTIPLICATIVE
    nearest = RoundingScheme.NEAREST
    reports = {
        "strong": B.strong_bound(normal, 2, mult, 0.01),
        "mixed": B.mixed_moment_bound(normal, 0.3, 1, 2, add, 0.1),
        "mixed-symmetric": B.mixed_moment_bound(semi, 0.0, 1, 2, add, 0.1, use_symmetry=True),
        "centered": B.centered_moment_first_order(normal, 3, add, 0.1),
        "interval-abs": B.interval_error_bound(-0.5, 1.25, 2, nearest, add, 0.1),
        "interval-aligned": B.interval_error_bound(-0.4, 1.2, 1, nearest, add, 0.1, endpoints_on_grid=True, signed=True),
        "unimodal": B.unimodal_moment_bound(shifted, 2, nearest, mult, 0.01),
        "sheppard": B.sheppard_two_sided(1.0, semi.peak, 2, 0.1),
        "float": B.float_moment_bound(shifted, FloatSystem(6, -6, 6), 1, nearest, signed=True),
        "normal-partial": B.normal_partial_moment_bound(0.3, 1.0, 2, 1, 2.0 ** -8),
        "rounded-sum": B.rounded_sum_bound([0.5, 1.5], 2.0 ** -10),
    }
    for tier in "ABCD":
        de, dv = B.mean_and_variance_diff_bounds(semi, tier, mesh=mesh)
        reports[f"tier{tier}-mean"], reports[f"tier{tier}-variance"] = de, dv
    for name, rep in reports.items():
        blob = json.dumps(rep.to_json())
        assert B.BoundReport.from_json(json.loads(blob)) == rep, name
        yield f"report {name} notes={len(rep.notes)} sha256={sha(blob)}"


def neighbor_lines():
    pts = SQUARES.points
    queries = np.concatenate([_philox_stream(0, 0).random(100_000), pts, 0.5 * (pts[:-1] + pts[1:]),
                              np.nextafter(pts[1:], -np.inf), np.nextafter(pts[:-1], np.inf)])
    lo, hi = SQUARES.neighbors(queries)
    yield f"neighbors squares queries={queries.size} sha256={hashlib.sha256(lo.tobytes() + hi.tobytes()).hexdigest()}"


def gap_lines():
    for gname, grid in GAP_GRIDS.items():
        for lo, hi in GAP_RANGES:
            try:
                gs = gap_stats(grid, lo, hi)
                text = f"{float.hex(float(gs.eps0))} {float.hex(float(gs.delta0))}"
            except RoundMomentsError as exc:
                text = f"{type(exc).__name__}: {exc}"
            yield f"gap {gname} [{lo!r}, {hi!r}] {text}"


def quad_lines():
    for fname, (f, cuts) in INTEGRANDS.items():
        for a, b in QUAD_RANGES:
            for breakpoints in ((), cuts):
                try:
                    v, e = adaptive_quad(f, a, b, rtol=1e-12, breakpoints=breakpoints)
                    text = f"{float.hex(v)} {float.hex(e)}"
                except RoundMomentsError as exc:
                    text = f"{type(exc).__name__}: {exc}"
                yield f"quad {fname} [{a!r}, {b!r}] breakpoints={breakpoints} {text}"


def value_lines():
    add, mult = B.ADDITIVE, B.MULTIPLICATIVE
    nearest = RoundingScheme.NEAREST
    for m in range(7):
        for n in (1, 3):
            rep = B.normal_partial_moment_bound(0.7, 0.6, m, n, 2.0 ** -8)
            yield f"value normal-partial m={m} n={n} {float.hex(rep.value)}"
    for mname in ("normal", "uniform"):
        for mode, base in ((add, 0.1), (mult, 0.01)):
            for m, n in ((1, 0), (0, 1), (1, 2), (2, 1), (3, 0)):
                try:
                    rep = B.mixed_moment_bound(MODELS[mname], 0.0, m, n, mode, base, use_symmetry=True)
                    text = float.hex(rep.value)
                except PreconditionError:
                    text = "-"
                yield f"value mixed-symmetric {mname} {mode} m={m} n={n} {text}"
    for mname, model in MODELS.items():
        for mode, base in ((add, 0.1), (mult, 0.01)):
            for k in (1, 2, 3):
                for signed in (False, True) if k % 2 else (False,):
                    rep = B.unimodal_moment_bound(model, k, nearest, mode, base, signed=signed)
                    yield f"value unimodal {mname} {mode} k={k} signed={signed} {float.hex(rep.value)}"
    mesh = UniformMesh(0.1, 0.03)
    for mname in ("normal", "exponential", "uniform"):
        for tier in "CD":
            de, _ = B.mean_and_variance_diff_bounds(MODELS[mname], tier, mesh=mesh)
            yield f"value tier{tier}-mean {mname} {float.hex(de.value)}"
    small, fs40 = make_normal(3e-7, 6e-13), FloatSystem(7, -40, 6)
    a, b = small.effective_range()
    orc = err_weighted_integral(fs40, nearest, small, a, b, 1, signed=False)
    eps = nearest.eps(2.0 ** -fs40.mantissa_bits)
    yield f"value small-normal float40 oracle {float.hex(orc.value)} {float.hex(orc.abs_error_estimate)}"
    for name, rep in (("strong", B.strong_bound(small, 1, mult, eps)),
                      ("unimodal", B.unimodal_moment_bound(small, 1, nearest, mult, eps))):
        yield f"value small-normal float40 {name} {float.hex(rep.value)}"
    rep = B.strong_bound(MODELS["exponential"], 20, mult, 0.01)
    yield f"value strong exponential k=20 coef {float.hex(rep.leading.coef)}"
    fs = FloatSystem(7, -12, 6)
    for mname, model in FLOAT_MODELS.items():
        for scheme in (nearest, RoundingScheme.STOCHASTIC):
            for k, signed in ((1, True), (3, True), (2, False)):
                rep = B.float_moment_bound(model, fs, k, scheme, signed=signed)
                yield f"value float {mname} {scheme.value} k={k} signed={signed} {float.hex(rep.value)}"


def quantile_lines():
    for mname, model in MODELS.items():
        xs = np.asarray(model.quantile(QUANTILE_US), dtype=float)
        yield f"quantile {mname} sha256={hashlib.sha256(xs.tobytes()).hexdigest()}"
    for scheme in ("nearest", "stochastic"):
        rc, out = cli_stdout(["sum-demo", "--scheme", scheme])
        yield f"sum-demo {scheme} rc={rc} sha256={sha(out)}"


def mc_lines():
    for label, model, grid, scheme in MC_CASES:
        mc = mc_rounded_moments(model, grid, scheme, 4, MC_SAMPLES, 0)
        named = [(f"raw k={k}", r) for k, r in enumerate(mc.raw, start=1)]
        named += [(f"central k={k}", r) for k, r in enumerate(mc.central, start=2)]
        for name, res in named + [("delta_e", mc.delta_e), ("delta_v", mc.delta_v)]:
            yield f"mc {label} {name} {float.hex(res.value)} {float.hex(res.abs_error_estimate)}"
    rc, out = cli_stdout(["sum-demo", "--scheme", "stochastic", "--summands", "40", "--samples", "40000"])
    yield f"sum-demo stochastic summands=40 samples=40000 rc={rc} {json.dumps(json.loads(out), sort_keys=True)}"


def _two_bumps(x, out):
    out[...] = np.where((x >= 1.0) & (x <= 2.0), 1.0 - np.cos(4.0 * math.pi * (x - 1.0)), 0.0)
    return out


CONSTRUCTIONS = {
    "semicircle(1, 0)": lambda: make_semicircle(1.0, 0.0),
    "semicircle(0.8, 1.5)": lambda: make_semicircle(0.8, 1.5),
    "semicircle(0, 0)": lambda: make_semicircle(0.0, 0.0),
    "semicircle(1e200, 0)": lambda: make_semicircle(1e200, 0.0),
    "semicircle(1, 1e17)": lambda: make_semicircle(1.0, 1e17),
    "semicircle(nan, 0)": lambda: make_semicircle(math.nan, 0.0),
    "normal(0.3, 1)": lambda: make_normal(0.3, 1.0),
    "normal(0, 1e-300)": lambda: make_normal(0.0, 1e-300),
    "normal(0, -1)": lambda: make_normal(0.0, -1.0),
    "normal(0, inf)": lambda: make_normal(0.0, math.inf),
    "normal(1e17, 1)": lambda: make_normal(1e17, 1.0),
    "normal(nan, 1)": lambda: make_normal(math.nan, 1.0),
    "exponential(1.3)": lambda: make_exponential(1.3),
    "exponential(1e150)": lambda: make_exponential(1e150),
    "exponential(0)": lambda: make_exponential(0.0),
    "exponential(1e-200)": lambda: make_exponential(1e-200),
    "exponential(inf)": lambda: make_exponential(math.inf),
    "uniform(-0.5, 1)": lambda: make_uniform(-0.5, 1.0),
    "uniform(1, 1)": lambda: make_uniform(1.0, 1.0),
    "uniform(-inf, 0)": lambda: make_uniform(-math.inf, 0.0),
    "uniform(1e17, 1e17 + 32)": lambda: make_uniform(1e17, 1e17 + 32.0),
    "replace semicircle mode=-0.5": lambda: dataclasses.replace(MODELS["semicircle"], mode=-0.5),
    "replace uniform(1, 2) two bumps mode=1.25": lambda: dataclasses.replace(
        make_uniform(1.0, 2.0), _pdf=_two_bumps, mode=1.25),
    "replace semicircle mode=-1": lambda: dataclasses.replace(MODELS["semicircle"], mode=-1.0),
    "replace normal variance=inf": lambda: dataclasses.replace(MODELS["normal"], variance=math.inf),
}


def construction_lines():
    for label, make in CONSTRUCTIONS.items():
        try:
            make()
            text = "ok"
        except RoundMomentsError as exc:
            text = f"{type(exc).__name__}: {exc}"
        yield f"construct {label} {text}"


def convergence_lines():
    for scheme in (RoundingScheme.NEAREST, RoundingScheme.TOWARD_ZERO):
        for quantity in ("delta_e", "delta_v", "abs_err_mean"):
            fit = convergence_slope(MODELS["semicircle"], scheme, quantity, (0.2, 0.1, 0.05, 0.025), n_probe=4)
            worst = " ".join(float.hex(v) for v in fit.values)
            yield (f"convergence {scheme.value} {quantity} slope={float.hex(fit.slope)} values={worst} "
                   f"excluded={fit.excluded} all_underflow={fit.all_underflow}")


def main() -> int:
    for section in (oracle_lines, partition_lines, verify_lines, sweep_lines, bound_lines, report_lines, neighbor_lines,
                    gap_lines, quad_lines, value_lines, quantile_lines, mc_lines, construction_lines, convergence_lines):
        for line in section():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
