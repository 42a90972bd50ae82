"""The four benchmark workloads: inputs built from a seed, one timed pass each.

A workload has three parts:

* ``setup(seed, workdir)`` builds the inputs (models, grids, argument lists).
  Its cost is what ``setup_s`` measures, together with the package import.
* ``steps(state)`` lists the timed steps of one pass (a suite, a sweep, a
  Monte Carlo case, an integral), each a function of the pass index.  Steps
  call the package only through module attributes
  (``rm.oracle.err_weighted_integral``), so a tracer that patches those
  attributes sees every call.
* ``units`` is the fixed amount of work one pass represents, in the
  workload's own unit (checks, rows, samples, pieces).

Only ``verify`` and ``montecarlo`` depend on the seed; ``sweep`` and
``float_oracle`` are deterministic and ignore it.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import roundmoments as rm
import roundmoments.cli
import roundmoments.oracle

VERIFY_INSTANCES = 200
SWEEP_OFFSETS = 64
MC_SAMPLES = 1_000_000
MC_K_MAX = 4
SUM_SUMMANDS = 10
SUM_SAMPLES = 100_000
SUM_GRID = (8, -8, 8)  # the sum-demo defaults: m, k_min, k_max

# Pieces of the four float_oracle integrals at the seed commit.  Throughput
# counts this fixed amount of work, so a change to the partition shows in
# the per-layer piece count, not as a change of unit.
FLOAT_ORACLE_PIECES = 2 * 730_105 + 2 * 365_066


def verify_suite_seed(seed: int, index: int) -> int:
    """Suite seed of pass ``index``: every pass of a run checks new instances."""
    return seed * 1000 + index


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of work is, e.g. "checks"
    op: str  # what one gated operation is
    units: int  # units of work per pass
    ops: int  # gated operations per pass
    setup: Callable[[int, str], Any]
    steps: Callable[[Any], list]  # state -> [(label, step(index))]
    rss_passes: int = 1  # fresh processes whose median peak RSS is peak_rss_mb
    # Scale step times by the core-speed calibration (calibration.py).  Off
    # for steps bound by memory traffic through the shared L3, which slow
    # less under core contention than the kernel does: scaling them
    # over-corrects (ten montecarlo runs spread 0.28 scaled, 0.05 unscaled).
    core_bound: bool = True

    def run_pass(self, state, index: int) -> dict:
        """Outputs of every step of pass ``index``, by label (untimed)."""
        return {label: step(index) for label, step in self.steps(state)}


# --- verify ------------------------------------------------------------------


@dataclass
class VerifyState:
    seed: int
    self_test: bool = False


@dataclass
class VerifyPass:
    suite_seed: int
    rc: int
    stdout: str
    results: list


def _verify_setup(seed: int, workdir: str) -> VerifyState:
    return VerifyState(seed)


def _verify_suite(state: VerifyState, index: int) -> VerifyPass:
    suite_seed = verify_suite_seed(state.seed, index)
    argv = ["--seed", str(suite_seed), "verify", "--instances", str(VERIFY_INSTANCES)]
    if state.self_test:
        argv.append("--self-test")
    captured: list = []
    cli = rm.cli
    inner = cli.run_suite

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        captured.append(out)
        return out

    buf = io.StringIO()
    cli.run_suite = capture
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        cli.run_suite = inner
    return VerifyPass(suite_seed, rc, buf.getvalue(), captured[0] if captured else [])


# --- sweep -------------------------------------------------------------------

# (label, distribution, --delta, --scheme)
SWEEPS = (
    ("semicircle-d0.05", {"kind": "semicircle", "r": 1.0, "mu": 0.0}, 0.05, "nearest"),
    ("semicircle-d0.1", {"kind": "semicircle", "r": 1.0, "mu": 0.0}, 0.1, "nearest"),
    ("semicircle-d0.2", {"kind": "semicircle", "r": 1.0, "mu": 0.0}, 0.2, "nearest"),
    ("normal-stochastic", {"kind": "normal", "mu": 0.3, "sigma2": 1.0}, 0.1, "stochastic"),
)


@dataclass
class SweepState:
    argvs: list  # (label, argv, output path)


def _sweep_setup(seed: int, workdir: str) -> SweepState:
    argvs = []
    for label, dist, delta, scheme in SWEEPS:
        spec = dist["kind"] + ":" + ",".join(f"{k}={v}" for k, v in dist.items() if k != "kind")
        path = os.path.join(workdir, f"sweep-{label}.csv")
        argv = ["--out", path, "sweep", "--dist", spec, "--delta", str(delta), "--scheme", scheme,
                "--offsets", str(SWEEP_OFFSETS)]
        argvs.append((label, argv, path))
    return SweepState(argvs)


def _sweep(argv: list, path: str) -> tuple[int, str]:
    """Exit code and output path of one sweep; the gate reads the file."""
    if os.path.exists(path):
        os.remove(path)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = rm.cli.main(argv)
    return rc, path


# --- montecarlo --------------------------------------------------------------


@dataclass
class MonteCarloState:
    seed: int
    cases: list  # (label, model, grid, scheme)
    summands: list
    sum_grid: Any
    sum_scheme: Any


def _mc_setup(seed: int, workdir: str) -> MonteCarloState:
    RS = rm.RoundingScheme
    cases = [
        ("semicircle-uniform-nearest", rm.make_semicircle(1.0, 0.3), rm.UniformMesh(0.05, 0.01), RS.NEAREST),
        ("normal-float23-stochastic", rm.make_normal(0.3, 1.0), rm.FloatSystem(23, -126, 128), RS.STOCHASTIC),
        ("exponential-uniform-stochastic", rm.make_exponential(1.0), rm.UniformMesh(0.05), RS.STOCHASTIC),
        (
            "uniform-explicit-nearest",
            rm.make_uniform(0.0, 1.0),
            rm.ExplicitSet(np.linspace(0.0, 1.0, 100_001) ** 2),
            RS.NEAREST,
        ),
    ]
    summands = [rm.make_uniform(0.0, 1.0) for _ in range(SUM_SUMMANDS)]
    return MonteCarloState(seed, cases, summands, rm.FloatSystem(*SUM_GRID), RS.NEAREST)


def _mc_steps(state: MonteCarloState) -> list:
    steps = [
        (label, lambda i, c=(model, grid, scheme): rm.oracle.mc_rounded_moments(*c, MC_K_MAX, MC_SAMPLES, state.seed))
        for label, model, grid, scheme in state.cases
    ]
    steps.append(
        ("sum", lambda i: rm.oracle.simulated_sum(state.summands, state.sum_grid, state.sum_scheme, SUM_SAMPLES, state.seed))
    )
    return steps


# --- float_oracle ------------------------------------------------------------

FLOAT_INTEGRALS = (
    ("nearest-signed-k1", "nearest", 1, True),
    ("nearest-abs-k2", "nearest", 2, False),
    ("stochastic-signed-k1", "stochastic", 1, True),
    ("stochastic-abs-k2", "stochastic", 2, False),
)


@dataclass
class FloatOracleState:
    model: Any
    grid: Any
    a: float
    b: float


def _float_setup(seed: int, workdir: str) -> FloatOracleState:
    model = rm.make_normal(0.5, 1.0)
    a, b = model.effective_range()
    return FloatOracleState(model, rm.FloatSystem(12, -40, 6), a, b)


def _float_steps(state: FloatOracleState) -> list:
    return [
        (
            label,
            lambda i, c=(rm.RoundingScheme(scheme), k, signed): rm.oracle.err_weighted_integral(
                state.grid, c[0], state.model, state.a, state.b, c[1], signed=c[2]
            ),
        )
        for label, scheme, k, signed in FLOAT_INTEGRALS
    ]


WORKLOADS = {
    "verify": Workload(
        "verify", "checks", "check", VERIFY_INSTANCES, VERIFY_INSTANCES, _verify_setup,
        lambda state: [("suite", lambda i: _verify_suite(state, i))],
        # Each pass draws new instances and its peak follows the largest one,
        # so one process is not representative.
        rss_passes=5,
    ),
    "sweep": Workload(
        "sweep", "rows", "row", len(SWEEPS) * SWEEP_OFFSETS, len(SWEEPS) * SWEEP_OFFSETS, _sweep_setup,
        lambda state: [(label, lambda i, a=argv, p=path: _sweep(a, p)) for label, argv, path in state.argvs],
    ),
    "montecarlo": Workload(
        "montecarlo", "samples", "moment set", 4 * MC_SAMPLES + SUM_SUMMANDS * SUM_SAMPLES, 5,
        _mc_setup, _mc_steps, core_bound=False,
    ),
    "float_oracle": Workload(
        "float_oracle", "pieces", "integral", FLOAT_ORACLE_PIECES, len(FLOAT_INTEGRALS),
        _float_setup, _float_steps,
    ),
}
