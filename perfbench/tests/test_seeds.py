"""The seed changes the verify and montecarlo inputs and nothing else."""

import numpy as np

import workloads as W

import roundmoments as rm


def test_verify_seed_changes_instances(tmp_path):
    wl = W.WORKLOADS["verify"]
    a = wl.run_pass(wl.setup(0, str(tmp_path)), 0)["suite"]
    b = wl.run_pass(wl.setup(1, str(tmp_path)), 0)["suite"]
    assert a.suite_seed != b.suite_seed
    assert [r.description for r in a.results] != [r.description for r in b.results]
    # Passes of one run draw fresh instances too.
    assert W.verify_suite_seed(0, 1) not in (a.suite_seed, b.suite_seed)


def test_montecarlo_seed_changes_samples():
    wl = W.WORKLOADS["montecarlo"]
    s0, s1 = wl.setup(0, ""), wl.setup(1, "")
    assert (s0.seed, s1.seed) == (0, 1)
    _, model, grid, scheme = s0.cases[0]
    m0 = rm.mc_rounded_moments(model, grid, scheme, 2, 1000, s0.seed)
    m0_again = rm.mc_rounded_moments(model, grid, scheme, 2, 1000, s0.seed)
    m1 = rm.mc_rounded_moments(model, grid, scheme, 2, 1000, s1.seed)
    assert m0.raw[0].value == m0_again.raw[0].value
    assert m0.raw[0].value != m1.raw[0].value


def test_sweep_and_float_oracle_ignore_the_seed(tmp_path):
    sweep = W.WORKLOADS["sweep"]
    assert sweep.setup(0, str(tmp_path)).argvs == sweep.setup(12345, str(tmp_path)).argvs
    fo = W.WORKLOADS["float_oracle"]
    a, b = fo.setup(0, ""), fo.setup(12345, "")
    assert (a.model.params, a.grid, a.a, a.b) == (b.model.params, b.grid, b.a, b.b)


def test_montecarlo_inputs_cover_all_grid_kinds():
    state = W.WORKLOADS["montecarlo"].setup(0, "")
    kinds = {type(g).__name__ for _, _, g, _ in state.cases}
    assert kinds == {"UniformMesh", "FloatSystem", "ExplicitSet"}
    explicit = next(g for _, _, g, _ in state.cases if isinstance(g, rm.ExplicitSet))
    assert explicit.points.size == 100_001 and np.ptp(np.diff(explicit.points)) > 0
