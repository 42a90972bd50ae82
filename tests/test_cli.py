import json
import math
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from roundmoments.bounds import BoundReport
from roundmoments.cli import main

# the sweep CSV header as the README states it
SWEEP_HEADER = "offset,delta_E,delta_V,bound_A_E,bound_B_E,bound_C_E,bound_D_E,bound_A_V,bound_B_V,bound_C_V"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_tier_b_mean(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--dist", "semicircle:r=1,mu=0", "--tier", "B", "--delta", "0.1", "--quantity", "mean"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.01 / math.pi, rel=1e-12)
    assert payload["tier"] == "B"


def test_bound_zero_delta_is_zero(capsys):
    code, out, _ = run_cli(capsys, "bound", "--dist", "semicircle:r=1,mu=0", "--delta", "0", "--quantity", "mean")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_bound_plan_flag(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--plan", "--variance", "1", "--c", "1", "--p", "0.01", "--n", "400"
    )
    assert code == 0
    assert json.loads(out)["delta_max"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_bound_plan_n_min(capsys):
    code, out, _ = run_cli(capsys, "bound", "--plan", "--variance", "2", "--c", "1.5", "--p", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_min"] == math.ceil(1 / (0.05 * 1.5 ** 2)) + 1


@pytest.mark.parametrize("argv", [
    # p c^2 underflows to 0
    ["--c", "1e-200", "--p", "0.5"],
    # n t^2 underflows to 0
    ["--c", "1", "--p", "0.01", "--n", "400", "--t", "1e-300", "--delta", "0"],
    # 1/(p c^2) overflows
    ["--c", "1", "--p", "1e-320"],
    ["--c", "inf"],
    ["--c", "nan"],
    ["--variance", "nan"],
    ["--variance", "inf"],
    # delta_max overflows
    ["--c", "1e300", "--variance", "1e308"],
    ["--n", "400", "--t", "inf"],
    ["--n", "400", "--t", "nan"],
], ids=["pc2-underflow", "nt2-underflow", "edge-overflow", "c-inf", "c-nan", "variance-nan", "variance-inf",
        "delta-max-overflow", "t-inf", "t-nan"])
def test_bound_plan_rejects_non_finite_inputs_and_results(capsys, argv):
    code, out, err = run_cli(capsys, "bound", "--plan", "--variance", "1", "--p", "0.01", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


def test_bound_plan_rejects_fractional_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--plan", "--variance", "1", "--c", "1", "--p", "0.01", "--n", "400.5"])
    assert exc.value.code == 2
    assert "invalid int value: '400.5'" in capsys.readouterr().err


def test_bound_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--dist", "normal:mu=0,sigma2=1", "--quantity", "centered", "--k", "2", "--delta", "0.05"
    )
    assert code == 0
    payload = json.loads(out)
    rep = BoundReport.from_json(payload)
    assert rep.value == payload["value"]
    assert rep.leading.coef * rep.leading.base ** rep.leading.power + (
        rep.higher_order.coef * rep.higher_order.base ** rep.higher_order.power
    ) == pytest.approx(rep.value, rel=1e-15)


def test_bound_config_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--dist", "cauchy:gamma=1", "--delta", "0.1")
    assert code == 2
    assert "cauchy" in err or "config" in err


@pytest.mark.parametrize("flag,spec,key", [
    ("--dist", "semicircle:mu=0", "'r'"),
    ("--grid", "uniform:offset=0", "'half_gap'"),
    ("--grid", "float:m=3", "'k_min'"),
])
def test_bound_missing_config_key_exit_2(capsys, flag, spec, key):
    args = {"--dist": "semicircle:r=1", "--delta": "0.1", flag: spec}
    code, out, err = run_cli(capsys, "bound", *[t for pair in args.items() for t in pair])
    assert code == 2
    assert out == ""
    assert key in err and "config error" in err


@pytest.mark.parametrize("argv,config", [
    (["--dist", "semicircle:r=inf,mu=0"], None),
    (["--dist", "semicircle:r=1", "--grid", "float:m=3.5,k_min=-2,k_max=2"], None),
    ([], {"distribution": {"kind": "semicircle", "r": "abc"}}),
    # finite parameters whose density or moments over- or underflow
    (["--tier", "B", "--dist", "exponential:lambda=1e-320"], None),
    (["--tier", "B", "--dist", "semicircle:r=1e-200"], None),
    (["--tier", "B", "--dist", "semicircle:r=1e200,mu=0"], None),
    (["--tier", "B", "--dist", "normal:mu=0,sigma2=1e308"], None),
    (["--tier", "B", "--dist", "uniform:lo=-1e308,hi=1e308"], None),
    # a mean where adjacent doubles are too far apart to resolve the spread
    (["--tier", "C", "--quantity", "variance", "--dist", "normal:mu=1e17,sigma2=1",
      "--grid", "uniform:half_gap=0.1"], None),
    (["--tier", "C", "--quantity", "variance", "--dist", "semicircle:r=1,mu=1e16",
      "--grid", "uniform:half_gap=0.1"], None),
    (["--tier", "B", "--dist", "normal:mu=1e308,sigma2=1"], None),
])
@pytest.mark.filterwarnings("error")
def test_bound_rejects_bad_config_values(capsys, tmp_path, argv, config):
    # every numeric config value must be a finite number, and an integer
    # where the parameter counts something
    head = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        head = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *head, "bound", *argv, "--delta", "0.1")
    assert code == 2
    assert out == ""
    # one line, and no warning: any warning is an error in this test
    assert err.startswith("config error:") and err.count("\n") == 1


def test_bound_accepts_tiny_normal_variance(capsys):
    # small, yet the density's peak and every moment stay finite and positive
    code, out, _ = run_cli(capsys, "bound", "--dist", "normal:mu=0,sigma2=1e-300", "--tier", "B", "--delta", "0.1")
    assert code == 0
    assert math.isfinite(json.loads(out)["value"])


@pytest.mark.parametrize("flag,value", [
    ("--delta", "nan"),
    ("--delta", "-0.1"),
    ("--delta", "inf"),
    ("--eps", "nan"),
    ("--eps", "-0.01"),
])
def test_bound_rejects_bad_delta_or_eps(capsys, flag, value):
    code, out, err = run_cli(capsys, "bound", "--dist", "semicircle:r=1", "--quantity", "strong", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert flag in err


def _finite_json(text: str):
    def reject(token):
        raise AssertionError(f"non-finite {token} in output")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,want", [
    # a mesh step that overflows a double
    (["sweep", "--dist", "semicircle:r=1", "--delta", "1e308", "--offsets", "2"], 2),
    (["bound", "--dist", "semicircle:r=1", "--grid", "uniform:half_gap=1e308", "--tier", "D"], 2),
    # more mesh points than the cell budget
    (["sweep", "--dist", "normal:mu=0,sigma2=1", "--delta", "1e-9", "--offsets", "2"], 2),
    # delta^3 underflows to 0
    (["bound", "--dist", "semicircle:r=1", "--grid", "uniform:half_gap=1e-300", "--tier", "D"], 0),
    (["bound", "--dist", "semicircle:r=1", "--grid", "uniform:half_gap=1e-300", "--tier", "D",
      "--quantity", "variance"], 0),
    # bound terms that overflow a double
    (["bound", "--dist", "semicircle:r=1", "--delta", "1e200"], 2),
    (["--format", "json", "sweep", "--dist", "semicircle:r=1", "--delta", "1e100", "--no-check"], 2),
], ids=["sweep-huge-step", "bound-huge-step", "sweep-cell-budget", "bound-mean-tiny-step",
        "bound-variance-tiny-step", "bound-term-overflow", "sweep-value-overflow"])
def test_extreme_mesh_or_delta_is_a_config_error_or_finite(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == want, err
    if want == 2:
        assert out == ""
        assert "config error" in err
    else:
        payload = _finite_json(out)
        assert math.isfinite(payload["value"])


def test_bound_precondition_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        "bound",
        "--dist", "semicircle:r=1,mu=0",
        "--quantity", "err-moment",
        "--scheme", "toward_zero",
        "--k", "1",
        "--signed",
        "--delta", "0.1",
    )
    assert code == 3
    assert "hypothesis" in err


def test_sweep_csv_header_exact(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "--out", str(out_file),
        "sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1", "--offsets", "4",
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 10
    assert float(first[0]) == 0.0


@pytest.mark.parametrize("scheme", ["nearest", "toward_zero"])
def test_sweep_json_keys_and_values_match_csv(capsys, scheme):
    argv = ["sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1", "--offsets", "4", "--scheme", scheme]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == len(lines) - 1 == 4
    for obj, line in zip(payload, lines[1:]):
        assert list(obj) == SWEEP_HEADER.split(",")
        # empty CSV cells (tiers directed rounding lacks) are JSON nulls
        assert list(obj.values()) == [float(v) if v else None for v in line.split(",")]
    assert (None in payload[0].values()) == (scheme == "toward_zero")


def test_sweep_rejects_float_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--dist", "semicircle:r=1,mu=0", "--grid", "float:m=8,k_min=-8,k_max=8", "--offsets", "4"
    )
    assert code == 2
    assert "uniform mesh" in err


def test_sweep_svg(capsys, tmp_path):
    out_file = tmp_path / "sweep.svg"
    code, _, _ = run_cli(
        capsys,
        "--format", "svg", "--out", str(out_file),
        "sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1", "--offsets", "8",
    )
    assert code == 0
    body = out_file.read_text()
    assert body.startswith("<svg") and "polyline" in body
    # One well-formed document holding both panels.
    root = ET.fromstring(body)
    svg = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{svg}svg"
    panels = root.findall(f"{svg}g/{svg}svg")
    assert [p.find(f"{svg}text").text for p in panels] == ["mean shift vs. offset", "variance shift vs. offset"]
    assert all(p.findall(f"{svg}polyline") for p in panels)


def test_reproduce_sweep_svg_matches_cli(capsys, tmp_path):
    # The script draws its SVG from the rows of its CSV instead of rerunning the sweep.
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_sweep.py"
    done = subprocess.run(
        [sys.executable, str(script), "--offsets", "8", "--out-dir", str(tmp_path)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    cli_svg = tmp_path / "cli.svg"
    code, _, _ = run_cli(
        capsys,
        "--format", "svg", "--out", str(cli_svg),
        "sweep", "--dist", "semicircle:r=1.0,mu=0", "--delta", "0.1", "--offsets", "8",
    )
    assert code == 0
    assert (tmp_path / "sweep_semicircle_delta0.1.svg").read_text() == cli_svg.read_text()


def test_verify_pass_and_self_test(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instances", "24")
    assert code == 0
    assert "0 violations" in out
    code, out, _ = run_cli(capsys, "verify", "--instances", "24", "--self-test")
    assert code == 1
    assert "self-test" in out


def test_verify_stochastic_scheme(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instances", "24", "--scheme", "stochastic")
    assert code == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_empty_suite(capsys, count):
    code, out, err = run_cli(capsys, "verify", "--instances", count)
    assert code == 2
    assert "instance" in err
    assert out == ""


def test_sum_demo_dominated(capsys):
    code, out, _ = run_cli(
        capsys, "sum-demo", "--summands", "5", "--m", "8", "--samples", "5000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dominated"] is True
    assert payload["estimate"] <= payload["bound"]


def test_config_file_grid_and_distribution(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"kind": "uniform", "half_gap": 0.1, "offset": 0.0},
                "distribution": {"kind": "semicircle", "r": 1.0, "mu": 0.0},
            }
        )
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bound", "--tier", "B", "--quantity", "mean")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.01 / math.pi, rel=1e-12)
