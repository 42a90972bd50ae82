import dataclasses
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

from roundmoments import bounds as B
from roundmoments import parse_dist_config, parse_grid_config
from roundmoments.bounds import BoundReport
from roundmoments.cli import _parse_inline, main
from roundmoments.errors import ConfigError

# the sweep CSV header as the README states it
SWEEP_HEADER = "offset,delta_E,delta_V,bound_A_E,bound_B_E,bound_C_E,bound_D_E,bound_A_V,bound_B_V,bound_C_V"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("dist,quantity,want", [
    # E|X| of normal(mu, s^2): s sqrt(2/pi) e^(-mu^2/(2 s^2)) + mu erf(mu/(s sqrt 2))
    ("normal:mu=3e-7,sigma2=6e-13", "strong",
     math.sqrt(12e-13 / math.pi) * math.exp(-9e-14 / 12e-13) + 3e-7 * math.erf(3e-7 / math.sqrt(12e-13))),
    # E|X| = 1/lambda
    ("exponential:lambda=1e6", "err-moment", 1e-6),
], ids=["normal-strong", "exponential-err-moment"])
def test_small_scale_bound_is_not_zero(capsys, dist, quantity, want):
    code, out, _ = run_cli(capsys, "bound", "--dist", dist, "--quantity", quantity, "--k", "1", "--eps", "0.01")
    payload = json.loads(out)
    assert code == 0 and payload["value"] > 0.0
    assert payload["leading"]["coef"] == pytest.approx(want, rel=1e-12)


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


def test_bound_plan_probability_bound_with_measurement_error(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--plan", "--variance", "1", "--c", "1", "--p", "0.01", "--n", "400", "--t", "0.5",
        "--delta", "0.1",
    )
    assert code == 0
    # ((sigma + delta) / (t - delta))^2 / n
    assert json.loads(out)["probability_bound"] == pytest.approx((1.1 / 0.4) ** 2 / 400, rel=1e-14)


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
    # n beyond a double's range
    ["--c", "1", "--n", "1" + "0" * 400],
    ["--c", "1", "--n", "1" + "0" * 400, "--t", "1"],
], ids=["pc2-underflow", "nt2-underflow", "edge-overflow", "c-inf", "c-nan", "variance-nan", "variance-inf",
        "delta-max-overflow", "t-inf", "t-nan", "n-overflow", "n-overflow-with-t"])
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
    # a misspelled or unknown key, which would otherwise silently take a default
    ("--grid", "uniform:half_gap=0.1,ofset=0.05", "uniform grid config has unknown key 'ofset'"),
    ("--dist", "semicircle:r=1,m=0.5", "semicircle distribution config has unknown key 'm'"),
    ("--grid", "float:m=3,k_min=-2,k_max=2,subnormal=false", "float grid config has unknown key 'subnormal'"),
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
    # a config file whose top level is no JSON object (given as its text)
    ([], "null"),
    ([], "5"),
    ([], '"x"'),
    ([], "[]"),
    # a key that no kind or config file knows
    ([], {"distribution": {"kind": "normal", "mu": 0, "sigma2": 1, "sigma": 5}}),
    ([], {"distribution": {"kind": "semicircle", "r": 1}, "grids": {"kind": "uniform", "half_gap": 0.1}}),
])
@pytest.mark.filterwarnings("error")
def test_bound_rejects_bad_config_values(capsys, tmp_path, argv, config):
    # every numeric config value must be a finite number, and an integer
    # where the parameter counts something
    head = []
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
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
    # a subnormal mesh step, whose reciprocal overflows a double
    (["sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "1e-320", "--offsets", "2"], 2),
    (["bound", "--dist", "semicircle:r=1,mu=0", "--grid", "uniform:half_gap=1e-320,offset=0", "--tier", "D"], 2),
    # more mesh points than the cell budget
    (["sweep", "--dist", "normal:mu=0,sigma2=1", "--delta", "1e-9", "--offsets", "2"], 2),
    # delta^3 underflows to 0
    (["bound", "--dist", "semicircle:r=1", "--grid", "uniform:half_gap=1e-300", "--tier", "D"], 0),
    (["bound", "--dist", "semicircle:r=1", "--grid", "uniform:half_gap=1e-300", "--tier", "D",
      "--quantity", "variance"], 0),
    # delta^2 and delta^3 overflow a double, but the terms they enter do not
    (["bound", "--dist", "normal:mu=0,sigma2=1e300", "--delta", "1e150", "--quantity", "mean"], 0),
    # bound terms that overflow a double
    (["bound", "--dist", "semicircle:r=1", "--delta", "1e200"], 2),
    (["--format", "json", "sweep", "--dist", "semicircle:r=1", "--delta", "1e100", "--no-check"], 2),
    # the rounded second moment, about 1e310, overflows the oracle's sum
    (["--format", "json", "sweep", "--dist", "normal:mu=1e155,sigma2=1e300",
      "--grid", "uniform:half_gap=1e149,offset=0", "--scheme", "nearest", "--offsets", "2"], 2),
    # high-order centered bounds: binomial products and the exponential's
    # exact central moment pass the largest double
    (["bound", "--dist", "semicircle:r=1,mu=0", "--quantity", "centered", "--k", "700", "--delta", "0.1"], 2),
    (["bound", "--dist", "uniform:lo=0,hi=1", "--quantity", "centered", "--k", "1200", "--delta", "0.1"], 2),
    (["bound", "--dist", "exponential:lambda=1", "--quantity", "centered", "--k", "200", "--delta", "0.1"], 2),
    # E|X - mu|^199 of the normal is 4.7e185, though |x|^199 overflows
    # where the density is still positive
    (["bound", "--dist", "normal:mu=0,sigma2=1", "--quantity", "centered", "--k", "200", "--delta", "0.1"], 0),
], ids=["sweep-huge-step", "bound-huge-step", "sweep-subnormal-step", "bound-subnormal-step", "sweep-cell-budget",
        "bound-mean-tiny-step", "bound-variance-tiny-step", "bound-power-overflow", "bound-term-overflow",
        "sweep-value-overflow", "sweep-oracle-overflow",
        "centered-semicircle-k700", "centered-uniform-k1200", "centered-exponential-k200", "centered-normal-k200"])
def test_extreme_mesh_or_delta_is_a_config_error_or_finite(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == want, err
    if want == 2:
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
    else:
        payload = _finite_json(out)
        assert math.isfinite(payload["value"])


def test_moment_past_a_double_is_one_config_error(capsys):
    # E|X - mu|^699 of the normal is finite but past a double's range: one
    # config error line, and no warning from its quadrature
    argv = ["bound", "--dist", "normal:mu=0,sigma2=1", "--quantity", "centered", "--k", "700", "--delta", "0.1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "config error: E[|X-mu0|^699 |X|^0] overflows a double\n"


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


@pytest.mark.parametrize("eps", ["1", "1.5"])
def test_bound_eps_from_one_up_is_a_hypothesis_violation(capsys, eps):
    # toward-zero and nearest rounding inflate endpoints by 1/(1 - eps)
    argv = ["bound", "--dist", "uniform:lo=1,hi=2", "--quantity", "err-moment", "--k", "2", "--eps", eps]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"hypothesis violated: endpoint inflation 1/(1 - eps) needs eps < 1, got {float(eps)!r}\n"


def test_bound_eps_below_one_keeps_its_value(capsys):
    argv = ["bound", "--dist", "uniform:lo=1,hi=2", "--quantity", "err-moment", "--k", "2", "--eps", "0.9"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["value"] == 7777.890000000005


@pytest.mark.parametrize("flag,value,mode,want", [
    ("--eps", "0.01", "multiplicative", 7.0 / 3.0 * 1e-4),  # E[X^2] eps^2
    ("--delta", "0.1", "additive", 0.01),  # delta^2
])
def test_bound_strong_in_either_error_mode(capsys, flag, value, mode, want):
    code, out, _ = run_cli(
        capsys, "bound", "--dist", "uniform:lo=1,hi=2", "--quantity", "strong", "--k", "2", flag, value
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "strong_convergence" and payload["mode"] == mode
    assert payload["value"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("value,want", [("false", False), ("TRUE", True), (" False ", False), ("0", 0.0)])
def test_inline_true_and_false_are_booleans(value, want):
    spec = _parse_inline(f"float:m=4,k_min=-2,k_max=2,subnormals={value}")
    if isinstance(want, bool):
        assert parse_grid_config(spec).subnormals is want
    else:  # a number is no boolean: the grid refuses it as a flag
        with pytest.raises(ConfigError, match=f"^subnormals must be true or false, got '{value}'$"):
            parse_grid_config(spec)


@pytest.mark.parametrize("what,kind", [("grid", ["uniform"]), ("distribution", {"semicircle": 1}),
                                       ("grid", None), ("distribution", 1.0)])
def test_unknown_kind_is_a_config_error(what, kind):
    read = parse_grid_config if what == "grid" else parse_dist_config
    with pytest.raises(ConfigError, match=rf"^unknown {what} kind {re.escape(repr(kind))}$"):
        read({"kind": kind})


def test_inline_numbers_reach_the_model_unchanged():
    # the inline parser leaves numbers as text; the reader converts each once
    assert _parse_inline("normal:mu=1e-3,sigma2=2") == {"kind": "normal", "mu": "1e-3", "sigma2": "2"}
    model = parse_dist_config(_parse_inline("normal:mu=1e-3,sigma2=2"))
    assert (model.mean, model.variance) == (1e-3, 2.0)


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


def test_sweep_dominance_violation_exits_1(capsys, monkeypatch):
    # every tier bound shrunk to 0: the sweep's dominance check must fail
    real = B.mean_and_variance_diff_bounds
    monkeypatch.setattr(B, "mean_and_variance_diff_bounds",
                        lambda *a, **kw: tuple(dataclasses.replace(r, value=0.0) for r in real(*a, **kw)))
    argv = ["sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1", "--offsets", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("dominance violation: offset 0: |Delta_V| = ") and err.count("\n") == 1
    assert "exceeds tier A_V bound 0.000e+00" in err
    code, out, _ = run_cli(capsys, *argv, "--no-check")
    assert code == 0 and out.splitlines()[0] == SWEEP_HEADER and len(out.splitlines()) == 5


@pytest.mark.parametrize("argv", [
    ["bound", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1"],
    ["sweep", "--dist", "semicircle:r=1,mu=0", "--delta", "0.1", "--offsets", "4"],
], ids=["bound", "sweep"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, argv, target):
    path = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "--out", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: cannot write output {path}: ") and err.count("\n") == 1


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


def test_verify_reuses_its_heap(capsys):
    # with no allocator policy set anywhere, a second 45-instance suite
    # reuses the pages the first one faulted in: the oracle's arrays,
    # bounded by QUAD_BLOCK and CHUNK_CELLS, stay within what the C
    # library's allocator keeps on its own
    resource = pytest.importorskip("resource")
    argv = ("--seed", "0", "verify", "--instances", "45")
    assert run_cli(capsys, *argv)[0] == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run_cli(capsys, *argv)[0] == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 2_000


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


@pytest.mark.parametrize("flag,count", [("--summands", "0"), ("--samples", "0"), ("--samples", "-5")])
def test_sum_demo_needs_a_summand_and_a_sample(capsys, flag, count):
    code, out, err = run_cli(capsys, "sum-demo", flag, count)
    assert code == 3
    assert out == ""
    assert err.startswith("hypothesis violated:") and err.count("\n") == 1


@pytest.mark.parametrize("samples", [[], ["--samples", "0"]])
def test_sum_demo_refuses_a_sum_too_long_for_its_bound(capsys, samples):
    # (n - 1) * u = 199/32 >= 1: the first-order bound does not hold.  It is
    # checked before sampling, so it is what a bad sample count meets first.
    code, out, err = run_cli(capsys, "sum-demo", "--summands", "200", "--m", "4", *samples)
    assert code == 3
    assert out == ""
    assert err.startswith("hypothesis violated:") and "(n - 1) * eps < 1" in err


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


_DIST = ["--dist", "semicircle:r=1"]


@pytest.mark.parametrize("argv,code,err", [
    (["bound", *_DIST, "--delta", "0.1", "--quantity", "centered", "--k", "1"], 2, "config error: k must be >= 2"),
    (["bound", *_DIST, "--delta", "0.1", "--quantity", "err-moment", "--k", "0"], 2,
     "config error: k must be a positive integer"),
    (["bound", *_DIST, "--eps", "0.01", "--quantity", "err-moment", "--k", "-1"], 2,
     "config error: k must be a positive integer"),
    (["bound", *_DIST, "--delta", "0.1", "--quantity", "err-moment", "--signed", "--k", "2"], 3,
     "hypothesis violated: signed error-power bound needs odd k"),
    (["bound", *_DIST, "--delta", "0.1", "--quantity", "strong", "--k", "0"], 2,
     "config error: n must be a positive integer"),
    (["bound", *_DIST, "--delta", "0.1", "--scheme", "bogus"], 2, "config error: unknown rounding scheme"),
    (["bound", "--dist", "uniform:lo=1,hi=0", "--delta", "0.1"], 2, "config error: need lo < hi"),
    (["bound", "--dist", "semicircle:r", "--delta", "0.1"], 2, "config error: cannot parse parameter"),
    (["bound", "--delta", "0.1"], 2, "config error: no distribution given"),
    (["bound", *_DIST], 2, "config error: need --delta, --eps, or a uniform mesh grid"),
    (["--config", "no-such-config.json", "bound", *_DIST, "--delta", "0.1"], 2, "config error: cannot read config"),
    (["sweep", *_DIST], 2, "config error: need --delta or a uniform mesh grid"),
    (["sweep", *_DIST, "--delta", "0.1", "--offsets", "1"], 3, "hypothesis violated: need at least 2 offsets"),
    (["bound", *_DIST, "--grid", "uniform:half_gap=0.1,offset=0.03", "--tier", "D", "--delta", "0.01"], 2,
     "config error: give --delta or a uniform mesh grid, not both"),
    (["sweep", *_DIST, "--grid", "uniform:half_gap=0.1", "--delta", "0.05", "--offsets", "2"], 2,
     "config error: give --delta or a uniform mesh grid, not both"),
    (["bound", *_DIST, "--eps", "0.01", "--delta", "0.1", "--quantity", "strong"], 2,
     "config error: give --eps or --delta, not both"),
    (["bound", *_DIST, "--eps", "0.01", "--delta", "0.1", "--quantity", "mean", "--tier", "B"], 2,
     "config error: give --eps or --delta, not both"),
    (["bound", *_DIST, "--grid", "float:m=3,k_min=-12,k_max=6", "--eps", "0.01", "--quantity", "strong"], 2,
     "config error: give --eps or a grid, not both"),
    (["bound", *_DIST, "--grid", "float:m=3,k_min=-12,k_max=6", "--delta", "0.1"], 2,
     "config error: give --delta or a grid, not both"),
    (["bound", *_DIST, "--grid", "uniform:half_gap=0.1", "--eps", "0.01", "--quantity", "strong"], 2,
     "config error: give --eps or a uniform mesh grid, not both"),
    (["--seed", "82358283", "sum-demo", "--summands", "44", "--samples", "462", "--k-max", "3"], 3,
     "hypothesis violated: 13086 partial sums overflow the float system"),
    (["sum-demo", "--k-min", "3", "--k-max", "3"], 2, "config error: k_min must be < k_max"),
    (["sum-demo", "--k-min", "-2000"], 2, "config error: exponent range exceeds double-exact arithmetic"),
    # E|X|^3 ~ 1e-450 is below the smallest double: refused, not printed as 0
    (["bound", "--dist", "normal:mu=0,sigma2=1e-300", "--quantity", "strong", "--k", "3", "--eps", "0.01"], 2,
     "config error: E[|X-mu0|^0 |X|^3] underflows a double"),
    # 1.25e301 grid points: the count is shown to three digits, not all 302
    (["sweep", "--dist", "normal:mu=0,sigma2=1", "--delta", "1e-300", "--offsets", "2"], 2,
     "config error: 1.25e+301 grid points in range, more than 100000000\n"),
    # the range over the step overflows a double: counted in decimal, not a bare OverflowError
    (["sweep", "--dist", "normal:mu=0,sigma2=1e200", "--delta", "1e-300", "--offsets", "2"], 2,
     "config error: 1.25e+401 grid points in range, more than 100000000\n"),
], ids=["centered-k1", "err-moment-k0", "err-moment-mult-negative-k", "signed-even-k", "strong-k0",
        "bogus-scheme", "uniform-empty", "parameter-without-value", "no-dist", "no-delta-eps-or-mesh",
        "missing-config", "sweep-no-delta",
        "sweep-one-offset", "bound-delta-and-mesh", "sweep-delta-and-mesh", "bound-eps-and-delta-strong",
        "bound-eps-and-delta-mean", "bound-eps-and-float-grid", "bound-delta-and-float-grid", "bound-eps-and-mesh",
        "sum-demo-overflow",
        "sum-demo-empty-exponents", "sum-demo-exponent-range", "strong-moment-underflow",
        "sweep-huge-grid-count", "sweep-grid-count-past-a-double"])
def test_refusals_exit_with_one_line(capsys, tmp_path, monkeypatch, argv, code, err):
    monkeypatch.chdir(tmp_path)
    got, out, stderr = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert stderr.startswith(err) and stderr.count("\n") == 1


@pytest.mark.parametrize("scheme", ["toward_zero", "away_from_zero"])
def test_verify_directed_scheme(capsys, scheme):
    # the generators that need a cancelling scheme skip under directed rounding
    code, out, _ = run_cli(capsys, "verify", "--instances", "12", "--scheme", scheme)
    assert code == 0
    assert out.splitlines()[-1] == "12 checks, 0 violations"
    assert f" {scheme} " in out


def test_verify_writes_to_out(capsys, tmp_path):
    path = tmp_path / "v.txt"
    code, out, err = run_cli(capsys, "--out", str(path), "verify", "--instances", "3")
    assert code == 0 and out == "" and err == ""
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 5 and all(line.endswith("\n") for line in lines)
    assert lines[-1] == "3 checks, 0 violations\n"
    assert run_cli(capsys, "verify", "--instances", "3")[1] == path.read_text()


@pytest.mark.parametrize("argv", [
    ["bound", *_DIST, "--delta", "0.1"],
    ["sum-demo", "--summands", "3", "--samples", "100"],
    ["--format", "json", "sweep", *_DIST, "--delta", "0.1", "--offsets", "4"],
    ["--format", "svg", "sweep", *_DIST, "--delta", "0.1", "--offsets", "4"],
], ids=["bound", "sum-demo", "sweep-json", "sweep-svg"])
def test_out_file_is_byte_equal_to_stdout(capsys, tmp_path, argv):
    path = tmp_path / "out"
    assert run_cli(capsys, "--out", str(path), *argv) == (0, "", "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and path.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt,argv,err", [
    ("svg", ["bound", *_DIST, "--delta", "0.1"], "bound writes json, not --format svg"),
    ("csv", ["bound", "--plan"], "bound writes json, not --format csv"),
    ("csv", ["sum-demo", "--samples", "10"], "sum-demo writes json, not --format csv"),
    ("json", ["verify", "--instances", "3"], "verify writes a text report, not --format json"),
])
def test_format_a_subcommand_does_not_write_is_a_config_error(capsys, fmt, argv, err):
    code, out, stderr = run_cli(capsys, "--format", fmt, *argv)
    assert code == 2 and out == ""
    assert stderr == f"config error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["bound", *_DIST, "--delta", "0.1"],
    ["sum-demo", "--summands", "3", "--samples", "100"],
], ids=["bound", "sum-demo"])
def test_format_json_is_what_bound_and_sum_demo_write(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "--format", "json", *argv) == (0, out, "")
