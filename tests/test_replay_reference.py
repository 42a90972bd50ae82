"""scripts/replay_reference.py's ratios, on a tiny fake reference, with no
run of the package."""

import importlib.util
import math
import pathlib
from types import SimpleNamespace

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "replay_reference.py"
spec = importlib.util.spec_from_file_location("replay_reference", SCRIPT)
replay_reference = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_reference)
gate = replay_reference.gate


def test_ratio_is_the_distance_in_tolerances():
    assert replay_reference.ratio(1.5, 1.0, 2.0) == 0.25
    assert replay_reference.ratio(0.0, 0.0, 0.0) == 0.0
    assert replay_reference.ratio(1e-300, 0.0, 0.0) == math.inf
    assert replay_reference.ratio(math.nan, 1.0, 1.0) == math.inf


def test_float_ratios_against_a_fake_reference():
    ref = {"a": {"value": 1.0, "pieces": 3, "tol": 1e-3}, "b": {"value": -2.0, "pieces": 3, "tol": 1e-6}}
    got = replay_reference.float_ratios(ref, {"a": 1.0 + 5e-4, "b": -2.0 - 3e-6})
    assert [label for _, label in got] == ["a", "b"]
    assert math.isclose(got[0][0], 0.5) and math.isclose(got[1][0], 3.0)


def test_verify_ratios_use_the_gate_tolerance_and_verdicts():
    recorded = [["strong", 1.0, 2.0], ["mixed", 0.5, 0.75], ["tier", 0.25, 0.5]]
    tol = gate.REL_TOL * 1.0 + gate.QUAD_BUDGET
    results = [SimpleNamespace(kind="strong", oracle=1.0 + 0.5 * tol, bound=2.0, ok=True),
               SimpleNamespace(kind="mixed", oracle=0.5, bound=0.75, ok=False),
               SimpleNamespace(kind="interval", oracle=0.25, bound=0.5, ok=True)]
    got = replay_reference.verify_ratios("7000", recorded, results)
    assert math.isclose(got[0][0], 0.5, rel_tol=1e-6) and got[0][1] == "suite 7000 check 0 (strong)"
    assert got[1][0] == math.inf and got[2][0] == math.inf
    assert replay_reference.verify_ratios("7000", recorded, results[:1])[-1][0] == math.inf


def test_sweep_ratios_read_csv_rows():
    row = {"offset": 0.0, "delta_E": 1e-3, "delta_V": 2e-3, "bounds": [0.5, None], "tol_E": 1e-6, "tol_V": 1e-6}
    got = replay_reference.sweep_ratios("s", [row], ["0,0.0010005,0.002,0.5,"])
    assert math.isclose(got[0][0], 0.5, rel_tol=1e-6) and got[0][1] == "s row 0"
    moved = replay_reference.sweep_ratios("s", [row], ["0,0.001,0.002,0.5000001,"])
    assert math.isclose(moved[0][0], 1e-7 / (gate.REL_TOL * 0.5), rel_tol=1e-6)
