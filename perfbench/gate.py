"""Correctness gate: every pass output against the reference in reference.json.

The reference was recorded at the seed commit by ``record_reference.py``.
Exit codes, the sweep CSV header, row and check counts and pass/fail
verdicts must match exactly.  Values must lie within a tolerance derived
from the oracle's own error estimate:

* quadrature values (sweep rows, float_oracle integrals):
  ``2 * abs_error_estimate + 1e-9 * |ref| + pieces * 2**-53 * scale``, where
  ``scale`` bounds the sum of absolute per-piece terms, so the last term is
  the worst-case roundoff of summing ``pieces`` terms in any order;
* Monte Carlo values: twice the oracle's own ``abs_error_estimate`` (which is
  already four standard errors) against a seed-independent quadrature or
  analytic reference, and, for the seeds whose samples were recorded, within
  1e-3 of that estimate of the recorded value;
* verify checks: every verdict must be a pass and every oracle must be
  dominated by its bound; for recorded suite seeds, oracle and bound values
  within ``1e-9 * |ref| + QUAD_BUDGET`` of the recorded ones.

A summation-order change passes; a wrong value does not.  An operation is a
check, a sweep row, a Monte Carlo moment set or an integral; a pass that
raises fails every operation it holds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MC_TOL_FACTOR = 2.0  # times the oracle's 4-sigma estimate
MC_REPLAY_FRACTION = 1e-3  # of the oracle's estimate, for recorded seeds
REL_TOL = 1e-9
# The verify suite's own quadrature budget at the seed commit: checks with
# |oracle| below it are vacuous, and dominance holds up to it.
QUAD_BUDGET = 1e-12
SWEEP_BUDGET = 1e-9  # offset_sweep's own dominance budget
MAX_PROBLEMS = 20


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # bound / |oracle|, non-vacuous only
    vacuous: int = 0

    def fail(self, message: str, n: int = 1):
        self.failed += n
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def merge(self, other: "GateResult"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, MAX_PROBLEMS - len(self.problems))])
        self.ratios.extend(other.ratios)
        self.vacuous += other.vacuous


def g17(x: float) -> str:
    """The CLI's 17-significant-digit number format."""
    return format(float(x), ".17g")


def quad_tol(value: float, est: float, pieces: int, scale: float) -> float:
    return 2.0 * est + REL_TOL * abs(value) + pieces * 2.0**-53 * scale


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def _ratio(bound: float, oracle: float, out: GateResult):
    if abs(oracle) <= QUAD_BUDGET:
        out.vacuous += 1
    else:
        out.ratios.append(bound / abs(oracle))


# --- verify ------------------------------------------------------------------


def check_verify(raw: dict, ref: dict) -> GateResult:
    suite = raw["suite"]
    n = ref["instances"]
    out = GateResult(attempted=n)
    results = suite.results
    if len(results) != n:
        out.fail(f"suite {suite.suite_seed}: {len(results)} checks, expected {n}", n)
        return out
    lines = suite.stdout.splitlines()
    if len(lines) != n + 2:
        out.fail(f"suite {suite.suite_seed}: {len(lines)} output lines, expected {n + 2}", n)
        return out
    bad = set()
    for i, (r, line) in enumerate(zip(results, lines)):
        _ratio(r.bound, r.oracle, out)
        dominated = abs(r.oracle) <= r.bound + QUAD_BUDGET
        printed = line.startswith("ok  ") and f"[{r.kind:>14s}]" in line and g17(r.margin) in line
        if not (r.ok and dominated and printed):
            bad.add(i)
            if len(out.problems) < MAX_PROBLEMS:
                out.problems.append(f"suite {suite.suite_seed} check {i}: {line.strip()}")
    replay = ref["replay"].get(str(suite.suite_seed))
    if replay is not None:
        for i, (r, (kind, oracle, bound)) in enumerate(zip(results, replay)):
            tol_o = REL_TOL * abs(oracle) + QUAD_BUDGET
            tol_b = REL_TOL * abs(bound) + QUAD_BUDGET
            if r.kind != kind or not _close(r.oracle, oracle, tol_o) or not _close(r.bound, bound, tol_b):
                if i not in bad and len(out.problems) < MAX_PROBLEMS:
                    out.problems.append(
                        f"suite {suite.suite_seed} check {i} drifted: {r.kind} oracle {r.oracle!r} "
                        f"bound {r.bound!r}, reference {kind} {oracle!r} {bound!r}"
                    )
                bad.add(i)
    out.failed += len(bad)
    summary_ok = lines[-1] == ref["summary"] and suite.rc == ref["exit_code"]
    if not summary_ok and not bad:
        out.fail(f"suite {suite.suite_seed}: exit {suite.rc}, summary {lines[-1]!r}")
    return out


# --- sweep -------------------------------------------------------------------


def check_sweep(raw: dict, ref: dict) -> GateResult:
    out = GateResult()
    for label, (rc, path) in raw.items():
        rows_ref = ref["sweeps"][label]
        n = len(rows_ref)
        out.attempted += n
        if rc != ref["exit_code"] or not os.path.exists(path):
            out.fail(f"{label}: exit code {rc}, expected {ref['exit_code']}", n)
            continue
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != ref["header"] or len(lines) != n + 1:
            out.fail(f"{label}: bad header or {len(lines) - 1} rows, expected {n}", n)
            continue
        for i, (line, r) in enumerate(zip(lines[1:], rows_ref)):
            try:
                cols = [float(v) if v else None for v in line.split(",")]
            except ValueError:
                cols = None
            problem = _sweep_row_problem(cols, r) if cols else f"unparsable row {line!r}"
            if problem:
                out.fail(f"{label} row {i}: {problem}")
                continue
            for j, bound in enumerate(cols[3:]):
                if bound is not None:
                    _ratio(bound, cols[1] if j < 4 else cols[2], out)
    return out


def _sweep_row_problem(cols: list, r: dict) -> str | None:
    if len(cols) != 10 or [c is None for c in cols[3:]] != [b is None for b in r["bounds"]]:
        return f"row shape differs: {cols!r}"
    offset, de, dv = cols[:3]
    if offset != r["offset"]:
        return f"offset {offset!r} != {r['offset']!r}"
    if not _close(de, r["delta_E"], r["tol_E"]):
        return f"delta_E {de!r} off reference {r['delta_E']!r} (tol {r['tol_E']:.3g})"
    if not _close(dv, r["delta_V"], r["tol_V"]):
        return f"delta_V {dv!r} off reference {r['delta_V']!r} (tol {r['tol_V']:.3g})"
    for j, (b, b_ref) in enumerate(zip(cols[3:], r["bounds"])):
        if b is None:
            continue
        if not _close(b, b_ref, REL_TOL * abs(b_ref)):
            return f"bound column {j} {b!r} off reference {b_ref!r}"
        if abs(de if j < 4 else dv) > b + SWEEP_BUDGET:
            return f"bound column {j} {b!r} does not dominate"
    return None


# --- montecarlo --------------------------------------------------------------


def mc_values(res) -> list:
    """Values of one MCMoments in recorded order: raw, central, delta_e, delta_v."""
    return [r for r in res.raw] + [r for r in res.central] + [res.delta_e, res.delta_v]


def check_montecarlo(raw: dict, seed: int, ref: dict) -> GateResult:
    out = GateResult(attempted=len(raw))
    replay = ref["replay"].get(str(seed))
    for label, case_ref in ref["cases"].items():
        res = raw.get(label)
        if res is None:
            out.fail(f"{label}: missing")
            continue
        vals = mc_values(res)
        problem = None
        for name, r, v_ref, e_ref in zip(case_ref["names"], vals, case_ref["values"], case_ref["errors"]):
            tol = MC_TOL_FACTOR * r.abs_error_estimate + 2.0 * e_ref + REL_TOL * abs(v_ref)
            if not _close(r.value, v_ref, tol):
                problem = f"{label} {name} {r.value!r} off reference {v_ref!r} (tol {tol:.3g})"
                break
        if problem is None and replay is not None:
            for name, r, v_rec in zip(case_ref["names"], vals, replay[label]):
                if not _close(r.value, v_rec, MC_REPLAY_FRACTION * r.abs_error_estimate):
                    problem = f"{label} {name} {r.value!r} differs from recorded sample value {v_rec!r}"
                    break
        if problem:
            out.fail(problem)
    s = raw.get("sum")
    s_ref = ref["sum"]
    if s is None:
        out.fail("sum: missing")
        return out
    tol = MC_TOL_FACTOR * s.abs_error_estimate + 2.0 * s_ref["error"]
    if s.details.get("overflow_events") != s_ref["overflow_events"]:
        out.fail(f"sum: {s.details.get('overflow_events')} overflow events")
    elif not _close(s.value, s_ref["value"], tol):
        out.fail(f"sum {s.value!r} off reference {s_ref['value']!r} (tol {tol:.3g})")
    elif replay is not None and not _close(s.value, replay["sum"], MC_REPLAY_FRACTION * s.abs_error_estimate):
        out.fail(f"sum {s.value!r} differs from recorded sample value {replay['sum']!r}")
    return out


# --- float_oracle ------------------------------------------------------------


def check_float_oracle(raw: dict, ref: dict) -> GateResult:
    out = GateResult(attempted=len(ref))
    for label, r in ref.items():
        res = raw.get(label)
        if res is None:
            out.fail(f"{label}: missing")
        elif not _close(res.value, r["value"], r["tol"]):
            out.fail(f"{label} {res.value!r} off reference {r['value']!r} (tol {r['tol']:.3g})")
    return out


def check(workload: str, raw, seed: int, ref: dict) -> GateResult:
    if workload == "verify":
        return check_verify(raw, ref["verify"])
    if workload == "sweep":
        return check_sweep(raw, ref["sweep"])
    if workload == "montecarlo":
        return check_montecarlo(raw, seed, ref["montecarlo"])
    if workload == "float_oracle":
        return check_float_oracle(raw, ref["float_oracle"])
    raise ValueError(f"unknown workload {workload!r}")

