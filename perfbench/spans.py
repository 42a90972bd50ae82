"""Span tracer for the traced run: wraps the package's public functions from
outside, at every import site, and derives the per-layer metrics.

A span is (pass id, name, start, end, parent).  Names are
``"<category>/<function>"``; the category is the per-layer metric group
(``grids.neighbors.float``, ``bounds.tier_C``, ``oracle.quad`` ...).  Spans
are kept in memory and written out once, at the end of the run.  A layer's
self time is its spans' duration minus the time covered by their children.

Module-level functions are patched in every ``roundmoments`` module that
holds them (``verify`` and ``cli`` import oracle and bound functions by
name, ``oracle`` imports ``round_value``); methods are patched on their
class, which covers every caller.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

import numpy as np

import roundmoments as rm
import roundmoments.bounds
import roundmoments.cli
import roundmoments.distributions
import roundmoments.grids
import roundmoments.oracle
import roundmoments.quadrature
import roundmoments.rounding
import roundmoments.verify
from gate import QUAD_BUDGET

# Bound function -> verify check kind, for verify.oracle_s.<kind>.
BOUND_KIND = {
    "strong_bound": "strong",
    "mixed_moment_bound": "mixed",
    "centered_moment_first_order": "centered",
    "interval_error_bound": "interval",
    "unimodal_moment_bound": "unimodal",
    "sheppard_two_sided": "sheppard",
    "mean_and_variance_diff_bounds": "tier",
    "float_moment_bound": "float",
    "normal_partial_moment_bound": "normal_partial",
}
KINDS = tuple(BOUND_KIND.values())
GRID_KINDS = {"UniformMesh": "uniform", "FloatSystem": "float", "ExplicitSet": "explicit"}
MODELS = ("semicircle", "normal", "exponential", "uniform")
OTHER_BOUNDS = (
    "strong_bound",
    "mixed_moment_bound",
    "centered_moment_first_order",
    "interval_error_bound",
    "sheppard_two_sided",
    "normal_partial_moment_bound",
    "rounded_chebyshev",
    "plan_measurement",
    "rounded_sum_bound",
)


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# --- per-layer metric table --------------------------------------------------
# (name, unit, better).  Counts repeat exactly; times are medians over the
# traced passes of a run.

PER_LAYER = (
    [
        ("grids.neighbors.points", "count", "lower"),
        *[(f"grids.neighbors.{g}.self_s", "s", "lower") for g in GRID_KINDS.values()],
        ("grids.points_in.points", "count", "lower"),
        ("grids.points_in.self_s", "s", "lower"),
        ("rounding.round_value.points", "count", "lower"),
        ("rounding.round_value.self_s", "s", "lower"),
        ("distributions.quantile.points", "count", "lower"),
        *[(f"distributions.quantile.{m}.self_s", "s", "lower") for m in MODELS],
        ("distributions.density.points", "count", "lower"),
        ("distributions.density.self_s", "s", "lower"),
        ("distributions.moments.self_s", "s", "lower"),
        ("quadrature.adaptive_quad.calls", "count", "lower"),
        ("quadrature.adaptive_quad.self_s", "s", "lower"),
        ("bounds.calls", "count", "lower"),
        *[(f"bounds.tier_{t}.self_s", "s", "lower") for t in "ABCD"],
        ("bounds.float.self_s", "s", "lower"),
        ("bounds.envelope.self_s", "s", "lower"),
        ("bounds.other.self_s", "s", "lower"),
        ("oracle.quad.calls", "count", "lower"),
        ("oracle.quad.pieces", "count", "lower"),
        ("oracle.quad.self_s", "s", "lower"),
        ("oracle.quad.ns_per_piece", "ns", "lower"),
        ("oracle.mc.samples", "count", "higher"),
        ("oracle.mc.self_s", "s", "lower"),
        ("verify.checks", "count", "higher"),
        ("verify.vacuous_frac", "ratio", "lower"),
        *[(f"verify.oracle_s.{k}", "s", "lower") for k in KINDS],
        *[(f"verify.tightness_p50.{k}", "ratio", "lower") for k in KINDS],
        ("cli.self_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
COUNT_METRICS = tuple(n for n, u, _ in PER_LAYER if u == "count")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.pass_of = array("l")
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()  # (pass id, counter) -> count
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, namer, counter=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            idx = len(tracer.start)
            tracer.pass_of.append(tracer.pass_id)
            tracer.name_of.append(tracer._nid(name))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0)
            tracer.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                for key, n in counter(args, kwargs, result):
                    tracer.counts[(tracer.pass_id, key)] += n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, namer, counter=None):
        """Wrap ``module.attr`` in every roundmoments module that imported it.
        A name the package no longer has is skipped; the tests check that
        every predicted metric still reads nonzero."""
        fn = module.__dict__.get(attr)
        if fn is None:
            return
        wrapper = self._wrap(fn, namer, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("roundmoments") and mod.__dict__.get(attr) is fn:
                self._patch(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, namer, counter=None):
        if attr in cls.__dict__:
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], namer, counter))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        G, D = rm.grids, rm.distributions
        for cls in (G.UniformMesh, G.FloatSystem, G.ExplicitSet):
            kind = GRID_KINDS[cls.__name__]
            self._patch_method(
                cls, "neighbors", f"grids.neighbors.{kind}/neighbors",
                lambda a, k, r: [("grids.neighbors.points", _size(_arg(a, k, 1, "x")))],
            )
            self._patch_method(
                cls, "points_in", "grids.points_in/points_in",
                lambda a, k, r: [("grids.points_in.points", _size(r))],
            )
        self._patch_function(
            rm.rounding, "round_value", "rounding.round_value/round_value",
            lambda a, k, r: [("rounding.round_value.points", _size(_arg(a, k, 2, "x")))],
        )
        self._patch_method(
            D.DensityModel, "quantile", lambda a, k: f"distributions.quantile.{a[0].name}/quantile",
            lambda a, k, r: [("distributions.quantile.points", _size(_arg(a, k, 1, "u")))],
        )
        self._patch_method(
            D.DensityModel, "density", "distributions.density/density",
            lambda a, k, r: [("distributions.density.points", _size(_arg(a, k, 1, "x")))],
        )
        for attr in ("raw_moment", "central_moment", "abs_central_moment", "abs_mixed_moment"):
            self._patch_method(D.DensityModel, attr, f"distributions.moments/{attr}")
        self._patch_method(D.Envelope, "weighted_integral", "distributions.moments/weighted_integral")
        self._patch_method(D.SymmetricSplit, "h_integral", "distributions.moments/h_integral")
        self._patch_function(D, "envelope", "distributions.moments/envelope")
        self._patch_function(
            rm.quadrature, "adaptive_quad", "quadrature.adaptive_quad/adaptive_quad",
            lambda a, k, r: [("quadrature.adaptive_quad.calls", 1)],
        )
        one_call = lambda a, k, r: [("bounds.calls", 1)]  # noqa: E731
        self._patch_function(
            rm.bounds, "mean_and_variance_diff_bounds",
            lambda a, k: f"bounds.tier_{str(_arg(a, k, 1, 'tier')).upper()}/mean_and_variance_diff_bounds",
            one_call,
        )
        self._patch_function(rm.bounds, "float_moment_bound", "bounds.float/float_moment_bound", one_call)
        self._patch_function(rm.bounds, "unimodal_moment_bound", "bounds.envelope/unimodal_moment_bound", one_call)
        for attr in OTHER_BOUNDS:
            self._patch_function(rm.bounds, attr, f"bounds.other/{attr}", one_call)
        quad = lambda a, k, r: [("oracle.quad.calls", 1), ("oracle.quad.pieces", int(r.details.get("pieces", 0)))]  # noqa: E731
        self._patch_function(rm.oracle, "err_weighted_integral", "oracle.quad/err_weighted_integral", quad)
        self._patch_function(rm.oracle, "rd_moment_integral", "oracle.quad/rd_moment_integral", quad)
        self._patch_function(
            rm.oracle, "mc_rounded_moments", "oracle.mc/mc_rounded_moments",
            lambda a, k, r: [("oracle.mc.samples", int(_arg(a, k, 4, "n_samples")))],
        )
        self._patch_function(
            rm.oracle, "simulated_sum", "oracle.mc/simulated_sum",
            lambda a, k, r: [("oracle.mc.samples", int(_arg(a, k, 3, "n_samples")) * len(_arg(a, k, 0, "models")))],
        )
        for attr in ("delta_e_and_v", "centered_moment_of_rounded", "offset_sweep", "convergence_slope"):
            self._patch_function(rm.oracle, attr, f"oracle.other/{attr}")
        self._patch_function(
            rm.verify, "run_suite", "verify/run_suite", lambda a, k, r: [("verify.checks", len(r))]
        )
        self._patch_function(rm.verify, "worst_margin", "verify/worst_margin")
        self._patch_function(rm.cli, "main", "cli/main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur, dur - child, parent

    def pass_metrics(self, pass_id: int) -> dict:
        """Self time per category (s), verify.oracle_s per kind and quad wall (s) of one pass."""
        dur, self_ns, parent = self.arrays()
        names = self.names
        category = [n.split("/", 1)[0] for n in names]
        sel = np.flatnonzero(np.asarray(self.pass_of, dtype=np.int64) == pass_id)
        name_of = np.asarray(self.name_of, dtype=np.int64)
        out: Counter = Counter()
        for nid in np.unique(name_of[sel]):
            rows = sel[name_of[sel] == nid]
            out[f"self:{category[nid]}"] += float(self_ns[rows].sum()) * 1e-9
            if category[nid] == "oracle.quad":
                out["oracle.quad.wall_s"] += float(dur[rows].sum()) * 1e-9
        # Attribute each oracle call made directly by run_suite to the kind of
        # the bound call that preceded it.
        kind = None
        suite = [i for i in sel if names[name_of[i]] == "verify/run_suite"] if "verify/run_suite" in names else []
        for i in sel[np.isin(parent[sel], suite)]:
            cat, fn = names[name_of[i]].split("/", 1)
            if cat.startswith("bounds."):
                kind = BOUND_KIND.get(fn, kind)
            elif cat.startswith("oracle.") and kind is not None:
                out[f"verify.oracle_s.{kind}"] += float(dur[i]) * 1e-9
        return dict(out)

    def pass_counts(self, pass_id: int) -> dict:
        return {key: n for (p, key), n in self.counts.items() if p == pass_id}

    def write_csv(self, path: str):
        """All spans as gzipped CSV, one row per span."""
        dur, self_ns, parent = self.arrays()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass,span,parent,name,start_ns,end_ns,self_ns\n")
            for i in range(dur.size):
                fh.write(
                    f"{self.pass_of[i]},{i},{parent[i]},{self.names[self.name_of[i]]},"
                    f"{self.start[i]},{self.end[i]},{int(self_ns[i])}\n"
                )


def layer_metrics(tracer: Tracer, pass_ids: list, verify_results=None) -> dict:
    """Per-layer metrics of the traced passes: counts from the first pass,
    times as medians over the passes."""
    counts = tracer.pass_counts(pass_ids[0])
    per_pass = [tracer.pass_metrics(p) for p in pass_ids]

    def med(key: str) -> float:
        return float(np.median([m.get(key, 0.0) for m in per_pass]))

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in COUNT_METRICS:
        out[name] = int(counts.get(name, 0))
    for g in GRID_KINDS.values():
        out[f"grids.neighbors.{g}.self_s"] = med(f"self:grids.neighbors.{g}")
    out["grids.points_in.self_s"] = med("self:grids.points_in")
    out["rounding.round_value.self_s"] = med("self:rounding.round_value")
    for m in MODELS:
        out[f"distributions.quantile.{m}.self_s"] = med(f"self:distributions.quantile.{m}")
    out["distributions.density.self_s"] = med("self:distributions.density")
    out["distributions.moments.self_s"] = med("self:distributions.moments")
    out["quadrature.adaptive_quad.self_s"] = med("self:quadrature.adaptive_quad")
    for t in "ABCD":
        out[f"bounds.tier_{t}.self_s"] = med(f"self:bounds.tier_{t}")
    for cat in ("float", "envelope", "other"):
        out[f"bounds.{cat}.self_s"] = med(f"self:bounds.{cat}")
    out["oracle.quad.self_s"] = med("self:oracle.quad")
    if out["oracle.quad.pieces"]:
        out["oracle.quad.ns_per_piece"] = med("oracle.quad.wall_s") * 1e9 / out["oracle.quad.pieces"]
    out["oracle.mc.self_s"] = med("self:oracle.mc")
    for k in KINDS:
        out[f"verify.oracle_s.{k}"] = med(f"verify.oracle_s.{k}")
    out["cli.self_s"] = med("self:cli")
    if verify_results:
        out["verify.vacuous_frac"] = sum(abs(r.oracle) <= QUAD_BUDGET for r in verify_results) / len(verify_results)
        for k in KINDS:
            ratios = [r.bound / abs(r.oracle) for r in verify_results if r.kind == k and abs(r.oracle) > QUAD_BUDGET]
            out[f"verify.tightness_p50.{k}"] = float(np.median(ratios)) if ratios else 0.0
    return out
