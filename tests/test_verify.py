from roundmoments import SymmetricSplit, UniformMesh, make_semicircle
from roundmoments.bounds import mean_and_variance_diff_bounds
from roundmoments.rounding import RoundingScheme
from roundmoments.verify import SWEEP_BUDGET, SweepRow, offset_sweep, run_suite, worst_margin


def test_suite_passes_default_seed():
    results = run_suite(80, seed=0)
    assert len(results) == 80
    assert all(r.ok for r in results)


def test_suite_deterministic():
    a = run_suite(30, seed=9)
    b = run_suite(30, seed=9)
    assert [(r.oracle, r.bound) for r in a] == [(r.oracle, r.bound) for r in b]


def test_self_test_detects_injected_violations():
    results = run_suite(60, seed=0, bound_scale=0.5)
    assert any(not r.ok for r in results)


def test_scheme_filter_stochastic():
    results = run_suite(50, seed=1, scheme=RoundingScheme.STOCHASTIC)
    assert all(r.ok for r in results)
    assert all("stochastic" in r.description or r.kind == "sheppard" for r in results)


def test_worst_margin_is_minimum():
    results = run_suite(40, seed=2)
    w = worst_margin(results)
    assert w.margin == min(r.margin for r in results)


def test_sweep_row_violations_name_each_exceeded_bound():
    # positional fields: offset, delta_E, delta_V, bound_A_E, bound_B_E,
    # bound_C_E, bound_D_E, bound_A_V, bound_B_V, bound_C_V
    row = SweepRow(0.0, -0.5, 0.25, 0.4, None, None, None, 0.2, None, None)
    assert row.violations() == [
        "|Delta_E| = 5.000e-01 exceeds tier A_E bound 4.000e-01",
        "|Delta_V| = 2.500e-01 exceeds tier A_V bound 2.000e-01",
    ]
    row = SweepRow(0.1, 0.5, -0.25, 1.0, 0.6, 0.5, 0.45, 1.0, 0.5, 0.125)
    assert row.violations() == [
        "|Delta_E| = 5.000e-01 exceeds tier D_E bound 4.500e-01",
        "|Delta_V| = 2.500e-01 exceeds tier C_V bound 1.250e-01",
    ]
    # a shift over its bound by less than the budget passes
    within = 0.5 * SWEEP_BUDGET
    row = SweepRow(0.2, 0.5 + within, 0.25 + within, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25)
    assert row.violations() == []


def test_sweep_scans_each_mesh_center_once(monkeypatch):
    scans = []
    uncached = SymmetricSplit._scan_bumps
    monkeypatch.setattr(SymmetricSplit, "_scan_bumps", lambda self: scans.append(self.center) or uncached(self))
    rows = offset_sweep(make_semicircle(1.0, 0.0), 0.05, 64)
    # tier C's 5 centers and tier D's 64 offsets, whose mesh centers take 50
    # distinct values, two of them also tier C centers: 53 scans, not 69
    assert len(scans) == len(set(scans)) == 53
    for row in rows:
        de, _ = mean_and_variance_diff_bounds(make_semicircle(1.0, 0.0), "D", mesh=UniformMesh(0.05, row.offset))
        assert de.value.hex() == row.bound_D_E.hex()
