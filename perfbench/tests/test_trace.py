"""Traced runs: every per-layer metric is reported, the ones the benchmark's
prediction table names are nonzero where predicted, and counts repeat
exactly across two runs of the same seed."""

import json
import os
import subprocess
import sys

import pytest

import env
import run
import spans
import workloads as W

import roundmoments as rm

WORKLOADS = tuple(W.WORKLOADS)

# Metric -> workloads on which it must be nonzero (the README's table).
PREDICTED = {
    **{f"distributions.quantile.{m}.self_s": ("montecarlo",) for m in spans.MODELS},
    "distributions.quantile.points": ("montecarlo",),
    **{f"grids.neighbors.{g}.self_s": ("montecarlo",) for g in spans.GRID_KINDS.values()},
    "grids.neighbors.points": ("montecarlo", "verify", "float_oracle"),
    "rounding.round_value.points": ("montecarlo",),
    "rounding.round_value.self_s": ("montecarlo",),
    "oracle.mc.samples": ("montecarlo",),
    "oracle.mc.self_s": ("montecarlo",),
    "oracle.quad.calls": ("verify", "float_oracle", "sweep"),
    "oracle.quad.pieces": ("verify", "float_oracle", "sweep"),
    "oracle.quad.self_s": ("verify", "float_oracle", "sweep"),
    "oracle.quad.ns_per_piece": ("verify", "float_oracle", "sweep"),
    "grids.points_in.points": ("float_oracle", "verify"),
    "grids.points_in.self_s": ("float_oracle", "verify"),
    **{f"bounds.tier_{t}.self_s": ("sweep", "verify") for t in "ABCD"},
    "bounds.calls": ("sweep", "verify"),
    "distributions.density.points": ("sweep", "verify", "float_oracle"),
    "distributions.density.self_s": ("sweep", "verify", "float_oracle"),
    "quadrature.adaptive_quad.calls": ("verify",),
    "quadrature.adaptive_quad.self_s": ("verify",),
    "distributions.moments.self_s": ("verify", "sweep"),
    "bounds.float.self_s": ("verify",),
    "bounds.envelope.self_s": ("verify",),
    "bounds.other.self_s": ("verify",),
    "verify.checks": ("verify",),
    "verify.vacuous_frac": ("verify",),
    **{f"verify.oracle_s.{k}": ("verify",) for k in spans.KINDS},
    **{f"verify.tightness_p50.{k}": ("verify",) for k in spans.KINDS},
    "cli.self_s": ("verify", "sweep"),
}
# Layers a workload must leave idle.
IDLE = {
    "montecarlo": ("quadrature.adaptive_quad.calls", "bounds.calls", "oracle.quad.calls"),
    "float_oracle": ("bounds.calls", "oracle.mc.samples", "distributions.quantile.points"),
    "sweep": ("oracle.mc.samples", "rounding.round_value.points"),
    "verify": ("oracle.mc.samples", "rounding.round_value.points"),
}
EXACT = spans.COUNT_METRICS + ("verify.vacuous_frac",) + tuple(f"verify.tightness_p50.{k}" for k in spans.KINDS)


def _traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=env.ROOT, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs():
    return {w: (_traced_run(w, 3), _traced_run(w, 3)) for w in WORKLOADS}


def test_every_per_layer_metric_reported(runs):
    names = [n for n, _, _ in spans.PER_LAYER]
    for w in WORKLOADS:
        assert list(runs[w][0]) == names


def test_predicted_metrics_nonzero(runs):
    assert set(PREDICTED) | {"trace.overhead"} == {n for n, _, _ in spans.PER_LAYER}
    missing = [(m, w) for m, ws in PREDICTED.items() for w in ws if not runs[w][0][m] > 0]
    assert not missing


def test_idle_layers_stay_idle(runs):
    busy = [(m, w) for w, ms in IDLE.items() for m in ms if runs[w][0][m] != 0]
    assert not busy


def test_counts_repeat_exactly(runs):
    for w in WORKLOADS:
        first, second = runs[w]
        assert {m: first[m] for m in EXACT} == {m: second[m] for m in EXACT}, w


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == ["throughput", "peak_rss_mb", "setup_s"]


def test_uninstall_restores_every_site():
    before = {
        (mod.__name__, k): v
        for mod in (rm, rm.cli, rm.verify, rm.oracle, rm.bounds, rm.distributions, rm.rounding, rm.quadrature, rm.grids)
        for k, v in vars(mod).items()
        if callable(v)
    }
    methods = (rm.DensityModel.density, rm.FloatSystem.neighbors, rm.ExplicitSet.points_in)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rm.verify.err_weighted_integral is not before[("roundmoments.verify", "err_weighted_integral")]
        assert rm.oracle.round_value is rm.rounding.round_value
        assert rm.cli.run_suite is rm.verify.run_suite
    finally:
        tracer.uninstall()
    for (modname, k), v in before.items():
        assert getattr(sys.modules[modname], k) is v
    assert (rm.DensityModel.density, rm.FloatSystem.neighbors, rm.ExplicitSet.points_in) == methods
