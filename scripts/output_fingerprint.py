#!/usr/bin/env python3
"""Print a fingerprint of the package's numeric output, one line per item.

Run it on two commits and diff the outputs to see which printed numbers a
change moved.  It prints:

* every oracle integral over four models x five grids x four schemes:
  ``float.hex`` of its value and error estimate, and its ``details``;
* the sha256 of ``verify --instances 200`` stdout for seeds 0-2, whole and
  split by check kind;
* the sha256 of the four benchmark sweeps and of a toward-zero sweep, whole
  and column by column, and of each one's ``--format json`` and
  ``--format svg`` output;
* the ``bound`` JSON of the tier-A mean and variance bounds, of the tier
  B, C and D variance bounds and of the centered-moment bound;
* the sha256 of ``json.dumps(rep.to_json())`` for one report of each
  bound family (asserting that ``BoundReport.from_json`` reads each back);
* ``gap_stats`` on each grid kind over ranges on either side of zero and
  touching it, including all-negative and zero-ending explicit sets;
* ``adaptive_quad`` on half-infinite and infinite ranges, with and without
  breakpoints;
* ``float.hex`` of the value of the normal partial-moment bound for
  m = 0-6 and n = 1, 3, of the symmetric mixed-moment bound on the normal
  model (whose left tail is infinite) and on a uniform model straddling
  zero, of the unimodal bound on every model for k = 1-3 in both modes, and
  of the tier C and D mean bounds on the normal, exponential and uniform
  models.

Usage: python scripts/output_fingerprint.py > fingerprint.txt
(about 3 s on a 2-CPU host).
"""

import contextlib
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
from roundmoments.errors import RoundMomentsError, SymmetryUnavailableError  # noqa: E402
from roundmoments.oracle import (  # noqa: E402
    centered_moment_of_rounded,
    delta_e_and_v,
    err_weighted_integral,
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
QUAD_RANGES = ((-math.inf, 0.8), (-0.4, math.inf), (-math.inf, math.inf), (-0.4, 0.8))
DISTS = (
    "semicircle:r=1,mu=0",
    "semicircle:r=1.5,mu=0.4",
    "normal:mu=0.3,sigma2=1",
    "exponential:lambda=1.5",
    "uniform:lo=-0.5,hi=1",
)


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
        "sheppard": B.sheppard_two_sided(1.0, -1.0, 1.0, 2, 0.1, sup_weight=semi.peak),
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


def gap_lines():
    for gname, grid in GAP_GRIDS.items():
        for lo, hi in GAP_RANGES:
            try:
                gs = gap_stats(grid, lo, hi)
                text = f"{float.hex(float(gs.eps0))} {float.hex(float(gs.delta0))}"
            except RoundMomentsError as exc:
                text = type(exc).__name__
            yield f"gap {gname} [{lo!r}, {hi!r}] {text}"


def quad_lines():
    for fname, (f, cuts) in INTEGRANDS.items():
        for a, b in QUAD_RANGES:
            for breakpoints in ((), cuts):
                v, e = adaptive_quad(f, a, b, rtol=1e-12, breakpoints=breakpoints)
                yield f"quad {fname} [{a!r}, {b!r}] breakpoints={breakpoints} {float.hex(v)} {float.hex(e)}"


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
                except SymmetryUnavailableError:
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


def main() -> int:
    for section in (oracle_lines, verify_lines, sweep_lines, bound_lines, report_lines, gap_lines, quad_lines,
                    value_lines):
        for line in section():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
