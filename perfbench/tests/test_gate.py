"""The correctness gate passes the seed code and fails wrong values."""

import dataclasses
import math

import pytest

import gate
import workloads as W

import roundmoments as rm


@pytest.fixture(scope="module")
def ref():
    return gate.load_reference()


@pytest.fixture(scope="module")
def verify_pass(tmp_path_factory):
    wl = W.WORKLOADS["verify"]
    return wl.run_pass(wl.setup(0, str(tmp_path_factory.mktemp("verify"))), 0)


@pytest.fixture(scope="module")
def sweep_pass(tmp_path_factory):
    wl = W.WORKLOADS["sweep"]
    return wl.run_pass(wl.setup(0, str(tmp_path_factory.mktemp("sweep"))), 0)


@pytest.fixture(scope="module")
def float_pass(tmp_path_factory):
    wl = W.WORKLOADS["float_oracle"]
    return wl.run_pass(wl.setup(0, str(tmp_path_factory.mktemp("float"))), 0)


def test_verify_pass_is_correct(verify_pass, ref):
    res = gate.check("verify", verify_pass, 0, ref)
    assert (res.attempted, res.failed) == (200, 0), res.problems
    assert str(verify_pass["suite"].suite_seed) in ref["verify"]["replay"]


def test_verify_self_test_fails_gate(tmp_path, ref):
    wl = W.WORKLOADS["verify"]
    state = wl.setup(0, str(tmp_path))
    state.self_test = True
    raw = wl.run_pass(state, 0)
    assert raw["suite"].rc == 1
    res = gate.check("verify", raw, 0, ref)
    assert res.failed > 0
    assert res.failed / res.attempted > 0.0


def test_verify_drifted_oracle_fails_gate(verify_pass, ref):
    suite = verify_pass["suite"]
    results = list(suite.results)
    i = next(j for j, r in enumerate(results) if r.oracle > 1e-6)
    r = results[i]
    results[i] = dataclasses.replace(r, oracle=r.oracle * (1.0 + 1e-6), margin=r.bound - r.oracle * (1.0 + 1e-6))
    lines = suite.stdout.splitlines()
    lines[i] = lines[i].replace(gate.g17(r.margin), gate.g17(results[i].margin))
    raw = {"suite": dataclasses.replace(suite, results=results, stdout="\n".join(lines) + "\n")}
    res = gate.check("verify", raw, 0, ref)
    assert res.failed == 1, res.problems
    assert "drifted" in res.problems[0]


def test_sweep_pass_is_correct(sweep_pass, ref):
    res = gate.check("sweep", sweep_pass, 0, ref)
    assert (res.attempted, res.failed) == (256, 0), res.problems


def _rewrite_row(path, row, col, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cols = lines[row + 1].split(",")
    cols[col] = gate.g17(fn(float(cols[col])))
    lines[row + 1] = ",".join(cols)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_single_perturbed_sweep_value_fails_gate(tmp_path, ref):
    wl = W.WORKLOADS["sweep"]
    raw = wl.run_pass(wl.setup(0, str(tmp_path)), 0)
    label = list(raw)[1]
    path = raw[label][1]
    _rewrite_row(path, 10, 1, lambda v: v * (1.0 + 1e-6))
    res = gate.check("sweep", raw, 0, ref)
    assert res.failed == 1, res.problems
    assert res.problems[0].startswith(f"{label} row 10: delta_E")


def test_sweep_summation_order_change_passes(tmp_path, ref):
    wl = W.WORKLOADS["sweep"]
    raw = wl.run_pass(wl.setup(0, str(tmp_path)), 0)
    path = next(iter(raw.values()))[1]
    _rewrite_row(path, 3, 2, lambda v: v + 64 * 2.0**-53 * abs(v))
    res = gate.check("sweep", raw, 0, ref)
    assert res.failed == 0, res.problems


def test_float_oracle_values(float_pass, ref):
    assert gate.check("float_oracle", float_pass, 0, ref).failed == 0
    pieces = sum(r.details["pieces"] for r in float_pass.values())
    assert pieces == W.FLOAT_ORACLE_PIECES
    label = "nearest-signed-k1"
    r = float_pass[label]
    reordered = dict(float_pass, **{label: dataclasses.replace(r, value=r.value * (1.0 + 1e-12))})
    assert gate.check("float_oracle", reordered, 0, ref).failed == 0
    wrong = dict(float_pass, **{label: dataclasses.replace(r, value=r.value * (1.0 + 1e-3))})
    assert gate.check("float_oracle", wrong, 0, ref).failed == 1


def _mc_case(seed, label):
    wl = W.WORKLOADS["montecarlo"]
    state = wl.setup(seed, "")
    model, grid, scheme = next((m, g, s) for name, m, g, s in state.cases if name == label)
    return rm.mc_rounded_moments(model, grid, scheme, W.MC_K_MAX, W.MC_SAMPLES, seed)


def test_montecarlo_gate_statistical_and_replay(ref):
    label = "exponential-uniform-stochastic"
    res = _mc_case(0, label)
    names = ref["montecarlo"]["cases"][label]["names"]
    refs = ref["montecarlo"]["cases"][label]["values"]
    for r, name, v in zip(gate.mc_values(res), names, refs):
        assert abs(r.value - v) <= gate.MC_TOL_FACTOR * r.abs_error_estimate, name
    # Recorded seed: a shift of 1% of the error estimate breaks the replay.
    recorded = ref["montecarlo"]["replay"]["0"][label]
    assert [r.value for r in gate.mc_values(res)] == pytest.approx(recorded, rel=0, abs=1e-12)
    shifted = res.delta_e.value + 0.01 * res.delta_e.abs_error_estimate
    assert not math.isclose(shifted, recorded[7], rel_tol=0, abs_tol=gate.MC_REPLAY_FRACTION * res.delta_e.abs_error_estimate)


def test_montecarlo_wrong_mean_fails_unrecorded_seed(ref):
    wl = W.WORKLOADS["montecarlo"]
    seed = 987654
    assert str(seed) not in ref["montecarlo"]["replay"]
    raw = {}
    for label, model, grid, scheme in wl.setup(seed, "").cases:
        raw[label] = rm.mc_rounded_moments(model, grid, scheme, W.MC_K_MAX, 20_000, seed)
    state = wl.setup(seed, "")
    raw["sum"] = rm.simulated_sum(state.summands, state.sum_grid, state.sum_scheme, 20_000, seed)
    assert gate.check("montecarlo", raw, seed, ref).failed == 0
    label = "semicircle-uniform-nearest"
    d = raw[label].delta_e
    raw[label] = dataclasses.replace(raw[label], delta_e=dataclasses.replace(d, value=d.value + 3 * d.abs_error_estimate))
    res = gate.check("montecarlo", raw, seed, ref)
    assert res.failed == 1 and "delta_e" in res.problems[0]


def test_raising_pass_fails_all_its_operations(tmp_path, monkeypatch):
    import run

    runner = run.Runner(run.parse_args(["--workload", "float_oracle"]), str(tmp_path))

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(rm.oracle, "err_weighted_integral", broken)
    times, raw, res = runner.one_pass(0)
    assert raw is None and times == {}
    assert (res.attempted, res.failed) == (4, 4)
    assert "injected" in res.problems[0]
