"""Record the correctness reference (``reference.json``) from the current code.

Run it only on a commit whose outputs are trusted; the benchmark's gate then
holds every later commit to these values:

    python3 perfbench/record_reference.py

It records exact counts and verdicts, every deterministic value with its
tolerance (see ``gate.py``), seed-independent references for the Monte Carlo
moments, and the sample values of the seeds in ``REPLAY_SEEDS``.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile

import env

env.pin_threads()
env.use_checkout_package()

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads as W  # noqa: E402
import roundmoments as rm  # noqa: E402

REPLAY_SEEDS = range(10)
SUM_REFERENCE_SEEDS = range(10_000, 10_010)
MC_NAMES = ["raw1", "raw2", "raw3", "raw4", "central2", "central3", "central4", "delta_e", "delta_v"]


def record_verify(workdir: str) -> dict:
    replay = {}
    summary = None
    for seed in REPLAY_SEEDS:
        wl = W.WORKLOADS["verify"]
        raw = wl.run_pass(wl.setup(seed, workdir), 0)["suite"]
        if raw.rc != 0:
            raise SystemExit(f"verify suite {raw.suite_seed} exits {raw.rc}; not a reference")
        replay[str(raw.suite_seed)] = [[r.kind, r.oracle, r.bound] for r in raw.results]
        summary = raw.stdout.splitlines()[-1]
    return {"instances": W.VERIFY_INSTANCES, "exit_code": 0, "summary": summary, "replay": replay}


def record_sweep(workdir: str) -> dict:
    wl = W.WORKLOADS["sweep"]
    state = wl.setup(0, workdir)
    sweeps = {}
    out = wl.run_pass(state, 0)
    for label, dist, delta, scheme in W.SWEEPS:
        rc, path = out[label]
        if rc != 0:
            raise SystemExit(f"sweep {label} exits {rc}; not a reference")
        with open(path) as fh:
            lines = fh.read().splitlines()
        model = rm.parse_dist_config(dist)
        scheme = rm.RoundingScheme(scheme)
        lo, hi = model.effective_range()
        rows = []
        for line in lines[1:]:
            cols = [float(v) if v else None for v in line.split(",")]
            mesh = rm.UniformMesh(delta, cols[0])
            de, dv = rm.delta_e_and_v(model, mesh, scheme)
            if (de.value, dv.value) != (cols[1], cols[2]):
                raise SystemExit(f"sweep {label}: CSV row {cols[0]} disagrees with delta_e_and_v")
            scale_e = rm.err_weighted_integral(mesh, scheme, model, lo, hi, 1, signed=False).value
            m1 = rm.rd_moment_integral(mesh, scheme, model, lo, hi, 1)
            m2 = rm.rd_moment_integral(mesh, scheme, model, lo, hi, 2)
            scale_v = abs(m2.value) + m1.value**2 + model.variance
            rows.append(
                {
                    "offset": cols[0],
                    "delta_E": cols[1],
                    "delta_V": cols[2],
                    "bounds": cols[3:],
                    "tol_E": gate.quad_tol(de.value, de.abs_error_estimate, de.details["pieces"], scale_e),
                    "tol_V": gate.quad_tol(dv.value, dv.abs_error_estimate, m2.details["pieces"], scale_v),
                }
            )
        sweeps[label] = rows
    return {"exit_code": 0, "header": lines[0], "sweeps": sweeps}


def _mc_case_reference(model, grid, scheme) -> dict:
    """E[rd(X)^k] by quadrature (analytic on the 23-bit float grid), and the
    central moments and shifts derived from them.  Their error is far below
    the Monte Carlo tolerance, so each gets a uniform 1e-12 floor."""
    if isinstance(grid, rm.FloatSystem):
        # Too fine to integrate cell by cell; stochastic rounding moves
        # E[rd(X)^k] by O(2^-46) relative, far below the Monte Carlo tolerance.
        raw = [model.raw_moment(k) for k in range(1, W.MC_K_MAX + 1)]
    else:
        lo, hi = model.effective_range()
        raw = [rm.rd_moment_integral(grid, scheme, model, lo, hi, k).value for k in range(1, W.MC_K_MAX + 1)]
    m = raw[0]
    moments = [1.0] + raw
    central = [
        sum(math.comb(k, i) * moments[i] * (-m) ** (k - i) for i in range(k + 1))
        for k in range(2, W.MC_K_MAX + 1)
    ]
    values = raw + central + [m - model.mean, raw[1] - m * m - model.variance]
    return {"names": MC_NAMES, "values": values, "errors": [1e-12 * (1.0 + abs(v)) for v in values]}


def record_montecarlo(workdir: str) -> dict:
    wl = W.WORKLOADS["montecarlo"]
    state = wl.setup(0, workdir)
    cases = {label: _mc_case_reference(model, grid, scheme) for label, model, grid, scheme in state.cases}
    sums = [
        rm.simulated_sum(state.summands, state.sum_grid, state.sum_scheme, W.SUM_SAMPLES, s)
        for s in SUM_REFERENCE_SEEDS
    ]
    n = len(sums)
    ref = {
        "cases": cases,
        "sum": {
            "value": float(np.mean([s.value for s in sums])),
            "error": float(np.mean([s.abs_error_estimate for s in sums])) / math.sqrt(n),
            "overflow_events": 0,
        },
        "replay": {},
    }
    for seed in REPLAY_SEEDS:
        raw = wl.run_pass(wl.setup(seed, workdir), 0)
        rec = {label: [r.value for r in gate.mc_values(raw[label])] for label in cases}
        rec["sum"] = raw["sum"].value
        ref["replay"][str(seed)] = rec
    return ref


def record_float_oracle(workdir: str) -> dict:
    wl = W.WORKLOADS["float_oracle"]
    state = wl.setup(0, workdir)
    raw = wl.run_pass(state, 0)
    out = {}
    for label, scheme, k, signed in W.FLOAT_INTEGRALS:
        r = raw[label]
        if signed:
            scale = rm.err_weighted_integral(
                state.grid, rm.RoundingScheme(scheme), state.model, state.a, state.b, k, signed=False
            ).value
        else:
            scale = abs(r.value)
        pieces = r.details["pieces"]
        out[label] = {
            "value": r.value,
            "pieces": pieces,
            "tol": gate.quad_tol(r.value, r.abs_error_estimate, pieces, scale),
        }
    if sum(v["pieces"] for v in out.values()) != W.FLOAT_ORACLE_PIECES:
        raise SystemExit("float_oracle piece count differs from workloads.FLOAT_ORACLE_PIECES")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(dir=env.ROOT, prefix=".perfbench-record-") as workdir:
        ref = {
            "recorded_with": {"commit": env.provenance()["commit"], "src_sha256": env.src_digest()},
            "verify": record_verify(workdir),
            "sweep": record_sweep(workdir),
            "montecarlo": record_montecarlo(workdir),
            "float_oracle": record_float_oracle(workdir),
        }
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    # The reference must pass its own gate on two recorded seeds.
    ref = gate.load_reference()
    with tempfile.TemporaryDirectory(dir=env.ROOT, prefix=".perfbench-record-") as workdir:
        for name, wl in W.WORKLOADS.items():
            for seed in (0, 1):
                res = gate.check(name, wl.run_pass(wl.setup(seed, workdir), 0), seed, ref)
                if res.failed:
                    print(f"{name} seed {seed}: {res.problems}", file=sys.stderr)
                    return 1
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
