#!/usr/bin/env python3
"""Replay every recorded value of perfbench/reference.json and print, per
workload, the worst distance to the record in units of its tolerance.

A perfbench run at ``--seed S`` replays only verify suite S·1000; this
script replays all of them at once:

* the ten recorded verify suites (200 checks each): every oracle and bound
  value against ``REL_TOL·|ref| + QUAD_BUDGET``, and every verdict;
* the four sweeps: Δ_E and Δ_V against the row's own ``tol_E`` and
  ``tol_V``, and each bound column against ``REL_TOL·|ref|``;
* the four float_oracle integrals against their recorded ``tol``.

The tolerances are perfbench/gate.py's, imported, not copied.  It prints
one line per workload, ``<workload> worst <ratio> at <check>``, and exits 1
if a ratio exceeds 1 or a verdict fails.

    python3 scripts/replay_reference.py
"""

from __future__ import annotations

import math
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gate, workloads  # noqa: E402


def ratio(value: float, ref: float, tol: float) -> float:
    """|value - ref| in units of tol; an exact match is 0 even at tol 0."""
    if value == ref:
        return 0.0
    return abs(value - ref) / tol if tol > 0.0 and math.isfinite(value) else math.inf


def verify_ratios(suite_seed: str, replay: list, results: list) -> list:
    """(ratio, check) of each check of a suite against its recorded
    (kind, oracle, bound), oracle and bound each within REL_TOL·|ref| +
    QUAD_BUDGET; a changed kind or a failed verdict is inf."""
    out = []
    for i, (r, (kind, oracle, bound)) in enumerate(zip(results, replay)):
        worst = max(ratio(r.oracle, oracle, gate.REL_TOL * abs(oracle) + gate.QUAD_BUDGET),
                    ratio(r.bound, bound, gate.REL_TOL * abs(bound) + gate.QUAD_BUDGET))
        out.append((worst if r.kind == kind and r.ok else math.inf, f"suite {suite_seed} check {i} ({kind})"))
    if len(results) != len(replay):
        out.append((math.inf, f"suite {suite_seed}: {len(results)} checks, recorded {len(replay)}"))
    return out


def sweep_ratios(label: str, rows_ref: list, lines: list) -> list:
    """(ratio, row) of each CSV row of a sweep against its recorded row."""
    out = []
    for i, (line, r) in enumerate(zip(lines, rows_ref)):
        cols = [float(v) if v else None for v in line.split(",")]
        worst = max([ratio(cols[1], r["delta_E"], r["tol_E"]), ratio(cols[2], r["delta_V"], r["tol_V"]),
                     *(ratio(b, b_ref, gate.REL_TOL * abs(b_ref)) for b, b_ref in zip(cols[3:], r["bounds"])
                       if b is not None)])
        out.append((worst, f"{label} row {i}"))
    if len(lines) != len(rows_ref):
        out.append((math.inf, f"{label}: {len(lines)} rows, recorded {len(rows_ref)}"))
    return out


def float_ratios(ref: dict, values: dict) -> list:
    """(ratio, integral) of each float_oracle integral against its record."""
    return [(ratio(values[label], r["value"], r["tol"]), label) for label, r in ref.items()]


def replay(ref: dict) -> dict:
    """Every workload's (ratio, check) list."""
    suites = []
    for suite_seed, recorded in ref["verify"]["replay"].items():
        seed, index = divmod(int(suite_seed), 1000)
        done = workloads._verify_suite(workloads.VerifyState(seed), index)
        suites += verify_ratios(suite_seed, recorded, done.results)
    sweeps = []
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv, path in workloads._sweep_setup(0, workdir).argvs:
            rc, _ = workloads._sweep(argv, path)
            lines = pathlib.Path(path).read_text().splitlines()[1:] if rc == 0 else []
            sweeps += sweep_ratios(label, ref["sweep"]["sweeps"][label], lines)
    state = workloads._float_setup(0, "")
    values = {label: step(0).value for label, step in workloads._float_steps(state)}
    return {"verify": suites, "sweep": sweeps, "float_oracle": float_ratios(ref["float_oracle"], values)}


def main() -> int:
    worst_all = 0.0
    for name, ratios in replay(gate.load_reference()).items():
        worst, where = max(ratios, key=lambda pair: pair[0])
        worst_all = max(worst_all, worst)
        print(f"{name} worst {worst:.3g} at {where}")
    return 1 if worst_all > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
