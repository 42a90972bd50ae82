"""Command line front end, and the package's one input/output boundary:
only this module reads grid and distribution configs (inline or JSON),
writes output and decides an exit code.

Subcommands: ``bound`` (evaluate a bound; ``bound --plan`` runs the
measurement planner), ``verify`` (randomized dominance suite), ``sweep``
(offset sweep with tier envelopes), ``sum-demo`` (rounded-sum simulation
vs. its bound).  Exit codes: 0 success, 1 dominance violation, 2
configuration error, 3 violated theorem hypothesis.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import bounds as B
from .distributions import DensityModel, make_exponential, make_normal, make_semicircle, make_uniform
from .errors import ConfigError, PreconditionError
from .grids import ExplicitSet, FloatSystem, Grid, UniformMesh
from .oracle import simulated_sum
from .plotting import polyline_chart, stacked_charts
from .rounding import RoundingScheme
from .verify import SweepRow, offset_sweep, run_suite, worst_margin

CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def _g17(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _parse_inline(spec: str) -> dict:
    """'semicircle:r=1,mu=0' -> {'kind': 'semicircle', 'r': '1', 'mu': '0'};
    true and false become booleans, and the config reader converts the rest."""
    name, _, rest = spec.partition(":")
    out: dict = {"kind": name.strip()}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _ or not key:
                raise ConfigError(f"cannot parse parameter {item!r} in {spec!r}")
            val = val.strip()
            out[key.strip()] = val.lower() == "true" if val.lower() in ("true", "false") else val
    return out


def _number(value, name: str, integer: bool = False):
    """The config value ``value`` of parameter ``name`` as a finite float, or
    as an int when ``integer``; anything else is a ConfigError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x) or (integer and not x.is_integer()):
        raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
    return int(x) if integer else x


def _integer(value, name: str) -> int:
    return _number(value, name, integer=True)


def _flag(value, name: str) -> bool:
    # a JSON boolean only: bool("false") is True
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _points(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError("explicit grid points must be a list")
    return np.array([_number(p, "point") for p in value], dtype=float)


# what -> kind -> (constructor, its arguments in order as (key, reader) or
# (key, reader, default)); a key without a default is required
_CONFIG_KINDS = {
    "grid": {
        "uniform": (UniformMesh, (("half_gap", _number), ("offset", _number, 0.0))),
        "float": (FloatSystem, (("m", _integer), ("k_min", _integer), ("k_max", _integer),
                                ("subnormals", _flag, True))),
        "explicit": (ExplicitSet, (("points", _points),)),
    },
    "distribution": {
        "semicircle": (make_semicircle, (("r", _number), ("mu", _number, 0.0))),
        "normal": (make_normal, (("mu", _number), ("sigma2", _number))),
        "exponential": (make_exponential, (("lambda", _number),)),
        "uniform": (make_uniform, (("lo", _number), ("hi", _number))),
    },
}


def _read_config(what: str, obj):
    """Build the grid or distribution (``what``) of a JSON-style object."""
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ConfigError(f"{what} config must be an object with a 'kind' field") from None
    try:
        make, params = _CONFIG_KINDS[what][kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ConfigError(f"unknown {what} kind {kind!r}") from None
    for key in obj:
        if key != "kind" and key not in (p[0] for p in params):
            raise ConfigError(f"{kind} {what} config has unknown key {key!r}")
    args = []
    for key, read, *default in params:
        if key not in obj and not default:
            raise ConfigError(f"{kind} {what} config needs the key {key!r}")
        args.append(read(obj[key], key) if key in obj else default[0])
    return make(*args)


def parse_grid_config(obj: dict) -> Grid:
    """Build a grid from its JSON-style description."""
    return _read_config("grid", obj)


def parse_dist_config(obj: dict) -> DensityModel:
    """Build a distribution model from its JSON-style description."""
    return _read_config("distribution", obj)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in ("distribution", "grid"):
            raise ConfigError(f"config {path} has unknown key {key!r}")
    return cfg


def _model_and_grid(args, cfg: dict) -> tuple[DensityModel, Grid | None]:
    """The distribution and grid of the inline flags, else of the config
    file; a grid may be absent, a distribution may not."""
    def read(what, spec):
        if spec:
            return _read_config(what, _parse_inline(spec))
        return _read_config(what, cfg[what]) if what in cfg else None

    model = read("distribution", args.dist)
    if model is None:
        raise ConfigError("no distribution given (use --dist or a config file)")
    return model, read("grid", args.grid)


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_plan(args):
    n_min, delta_max = B.plan_measurement(args.variance, args.c, args.p, n=args.n)
    payload = {"n_min": n_min, "delta_max": delta_max}
    if args.t is not None and args.n is not None:
        payload["probability_bound"] = B.rounded_chebyshev(
            args.variance, args.n, args.delta if args.delta is not None else 0.0, args.t
        )
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_bound(args) -> int:
    for flag in ("delta", "eps"):
        value = getattr(args, flag)
        if value is not None and not 0.0 <= value < math.inf:
            raise ConfigError(f"--{flag} must be finite and non-negative, got {value!r}")
    cfg = _load_config(args.config)
    if args.plan:
        return _cmd_plan(args)
    model, grid = _model_and_grid(args, cfg)
    scheme = RoundingScheme.parse(args.scheme)
    mesh = grid if isinstance(grid, UniformMesh) else None
    # each error source is used alone, so a second one would be dropped
    sources = [f"--{flag}" for flag in ("eps", "delta") if getattr(args, flag) is not None]
    sources += [] if grid is None else ["a uniform mesh grid" if mesh is not None else "a grid"]
    if len(sources) > 1:
        raise ConfigError(f"give {sources[0]} or {sources[1]}, not both")
    delta = args.delta if mesh is None else scheme.delta(mesh.step)
    if delta is None and args.eps is None:
        raise ConfigError("need --delta, --eps, or a uniform mesh grid")
    mode, base = (B.MULTIPLICATIVE, args.eps) if args.eps is not None else (B.ADDITIVE, delta)

    if args.quantity in ("mean", "variance"):
        de, dv = B.mean_and_variance_diff_bounds(model, args.tier, mesh=mesh, delta=args.delta, scheme=scheme)
        report = de if args.quantity == "mean" else dv
    elif args.quantity == "strong":
        report = B.strong_bound(model, args.k, mode, base)
    elif args.quantity == "centered":
        report = B.centered_moment_first_order(model, args.k, mode, base)
    else:  # err-moment, the last of the parser's choices
        report = B.unimodal_moment_bound(model, args.k, scheme, mode, base, signed=args.signed)
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    scheme = RoundingScheme.parse(args.scheme) if args.scheme else None
    scale = 0.5 if args.self_test else 1.0
    results = run_suite(args.instances, seed=args.seed, scheme=scheme, bound_scale=scale)
    lines = [f"{'ok  ' if r.ok else 'FAIL'} [{r.kind:>14s}] margin {_g17(r.margin):>24s}  {r.description}"
             for r in results]
    n_bad = sum(not r.ok for r in results)
    w = worst_margin(results)
    lines.append(f"worst margin {_g17(w.margin)} on: {w.description}")
    lines.append(f"{len(results)} checks, {n_bad} violations" + (" (self-test mode)" if args.self_test else ""))
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if n_bad else 0


def sweep_svg(rows) -> str:
    """Mean-shift and variance-shift panels of a sweep, one SVG document:
    each shift's magnitude and every tier bound on it that all rows carry,
    ending in a newline like every file the command line writes."""
    xs = [r.offset for r in rows]
    panels = []
    for q, title in (("E", "mean shift vs. offset"), ("V", "variance shift vs. offset")):
        series = [(f"|Delta_{q}|", [abs(getattr(r, f"delta_{q}")) for r in rows])]
        for name in (f.name for f in fields(SweepRow) if f.name.startswith("bound_") and f.name.endswith(q)):
            ys = [getattr(r, name) for r in rows]
            if None not in ys:
                series.append((f"tier {name[6]}", ys))
        panels.append(polyline_chart(xs, series, title, "mesh offset", f"|Delta_{q}|"))
    return stacked_charts(panels) + "\n"


def _sweep_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(_g17(getattr(r, f.name)) for f in fields(SweepRow)) for r in rows)
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    model, grid = _model_and_grid(args, cfg)
    if grid is not None and not isinstance(grid, UniformMesh):
        raise ConfigError("sweep requires a uniform mesh grid (offsets of a float system are not well defined)")
    if grid is not None and args.delta is not None:
        raise ConfigError("give --delta or a uniform mesh grid, not both")
    delta = args.delta if grid is None else grid.half_gap
    if delta is None:
        raise ConfigError("need --delta or a uniform mesh grid")
    scheme = RoundingScheme.parse(args.scheme)
    rows = offset_sweep(model, delta, args.offsets, scheme=scheme)
    problems = [f"offset {r.offset:.6g}: {v}" for r in rows for v in r.violations()]
    if problems and not args.no_check:
        print(f"dominance violation: {'; '.join(problems)}", file=sys.stderr)
        return 1
    if args.format == "svg":
        _emit(sweep_svg(rows), args.out)
    elif args.format == "json":
        _emit(json.dumps([asdict(r) for r in rows], indent=2), args.out)
    else:
        _emit(_sweep_csv(rows), args.out)
    return 0


def cmd_sum_demo(args) -> int:
    fs = FloatSystem(args.m, args.k_min, args.k_max)
    scheme = RoundingScheme.parse(args.scheme)
    models = [make_uniform(0.0, 1.0)] * args.summands  # one model, checked once
    eps = scheme.eps(2.0 ** (-args.m))
    # before sampling: a sum too long for its bound exits without the wait
    bound = B.rounded_sum_bound([m.abs_mixed_moment(0, 1, 0.0) for m in models], eps)
    est = simulated_sum(models, fs, scheme, args.samples, args.seed)
    if est.details["overflow_events"]:
        raise PreconditionError(f"{est.details['overflow_events']} partial sums overflow the float system")
    payload = {
        "estimate": est.value,
        "standard_error": est.abs_error_estimate,
        "bound": bound.value,
        "dominated": est.value <= bound.value,
        "overflow_events": est.details["overflow_events"],
        "samples": est.details["samples"],
        "seed": est.details["seed"],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if payload["dominated"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="roundmoments", description=__doc__)
    p.add_argument("--config", help="JSON config file with grid/distribution objects")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json", "svg"),
                   help="sweep: csv (default), json or svg; bound and sum-demo: json; verify: none")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate an analytic bound")
    pb.add_argument("--dist", help="inline distribution, e.g. semicircle:r=1,mu=0")
    pb.add_argument("--grid", help="inline grid, e.g. uniform:half_gap=0.1,offset=0")
    pb.add_argument("--scheme", default="nearest")
    pb.add_argument("--tier", default="A", choices=("A", "B", "C", "D"))
    pb.add_argument("--quantity", default="mean", choices=("mean", "variance", "strong", "centered", "err-moment"))
    pb.add_argument("--k", type=int, default=1)
    pb.add_argument("--signed", action="store_true")
    pb.add_argument("--delta", type=float, help="additive error bound delta, |rd(x) - x| <= delta")
    pb.add_argument("--eps", type=float, help="relative error bound eps, |rd(x) - x| <= eps |x|")
    pb.add_argument("--plan", action="store_true", help="run the measurement planner instead")
    pb.add_argument("--variance", type=float, default=1.0)
    pb.add_argument("--c", type=float, default=1.0)
    pb.add_argument("--p", type=float, default=0.05)
    pb.add_argument("--n", type=int)
    pb.add_argument("--t", type=float)
    pb.set_defaults(func=cmd_bound, formats=("json",))

    pv = sub.add_parser("verify", help="run the randomized dominance suite")
    pv.add_argument("--instances", type=int, default=200)
    pv.add_argument("--scheme")
    pv.add_argument("--self-test", action="store_true", help="scale bounds by 0.5; must report violations")
    pv.set_defaults(func=cmd_verify, formats=())

    ps = sub.add_parser("sweep", help="offset sweep: oracle values vs tier bounds")
    ps.add_argument("--dist", help="inline distribution")
    ps.add_argument("--grid", help="inline grid (must be uniform)")
    ps.add_argument("--delta", type=float,
                    help="half gap of the swept mesh: the error bound under nearest rounding; "
                         "under stochastic rounding it is the full step 2 delta")
    ps.add_argument("--offsets", type=int, default=64)
    ps.add_argument("--scheme", default="nearest")
    ps.add_argument("--no-check", action="store_true")
    ps.set_defaults(func=cmd_sweep, formats=("csv", "json", "svg"))

    pd = sub.add_parser("sum-demo", help="rounded-sum simulation against its bound")
    pd.add_argument("--summands", type=int, default=10)
    pd.add_argument("--m", type=int, default=8)
    pd.add_argument("--k-min", type=int, default=-8)
    pd.add_argument("--k-max", type=int, default=8)
    pd.add_argument("--scheme", default="nearest")
    pd.add_argument("--samples", type=int, default=100_000)
    pd.set_defaults(func=cmd_sum_demo, formats=("json",))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format not in (None, *args.formats):
            writes = " or ".join(args.formats) or "a text report"
            raise ConfigError(f"{args.command} writes {writes}, not --format {args.format}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
