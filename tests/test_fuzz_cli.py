"""Fuzz the command line through ``bound``, ``sweep``, ``sum-demo`` and
``verify``: whatever the --config JSON, the inline --dist/--grid specs or
the numeric options hold, no exception escapes ``main``; a refusal (exit 2
or 3) or a dominance violation (exit 1) says why in one stderr line, and
every JSON it prints parses with no NaN or Infinity."""

import contextlib
import io
import json
import math
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roundmoments import grids
from roundmoments.cli import main

GRID_KEYS = {"uniform": ("half_gap", "offset"), "float": ("m", "k_min", "k_max", "subnormals"),
             "explicit": ("points",)}
DIST_KEYS = {"semicircle": ("r", "mu"), "normal": ("mu", "sigma2"), "exponential": ("lambda",),
             "uniform": ("lo", "hi")}

positive = st.one_of(st.floats(0.05, 3.0), st.integers(1, 4))
# a value each key's constructor accepts, at least in most combinations
PLAUSIBLE = {"mu": st.floats(-3.0, 3.0), "offset": st.floats(-1.0, 1.0), "lo": st.floats(-3.0, 0.0),
             "m": st.integers(1, 12), "k_min": st.integers(-12, -1), "k_max": st.integers(1, 12),
             "subnormals": st.booleans(), "points": st.lists(st.floats(-3.0, 3.0), max_size=6).map(sorted)}
wild = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # subnormal, huge and non-finite included
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1.7976931348623157e308, 1e17, 2.5, 53, 1000]),
    st.integers(-10 ** 400, 10 ** 400),
    st.text(max_size=6), st.booleans(), st.none(),
)
values = st.one_of(wild, st.lists(wild, max_size=4), st.dictionaries(st.text(max_size=3), wild, max_size=2))
names = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)


def _sometimes(draw, twentieths: int) -> bool:
    return draw(st.integers(0, 19)) < twentieths


@st.composite
def config_objects(draw, keys):
    """Mostly a well-formed object of a known kind with plausible values;
    now and then a wrong kind, a missing, extra or wild value, or no object."""
    if _sometimes(draw, 1):
        return draw(values)
    kind = draw(st.sampled_from(sorted(keys))) if not _sometimes(draw, 1) else draw(st.one_of(names, values))
    obj = {"kind": kind} if not _sometimes(draw, 1) else {}
    for name in keys.get(kind, ()) if isinstance(kind, str) else ():
        if not _sometimes(draw, 1):
            obj[name] = draw(PLAUSIBLE.get(name, positive) if not _sometimes(draw, 2) else values)
    if _sometimes(draw, 1):
        obj[draw(names)] = draw(values)
    return obj


def _inline_text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def inline_specs(draw, keys):
    obj = draw(config_objects(keys))
    if not isinstance(obj, dict):
        return draw(st.text(max_size=12))
    head = _inline_text(obj.pop("kind", ""))
    items = [f"{k}={_inline_text(v)}" for k, v in obj.items()]
    return head + (":" + ",".join(items) if items else "")


@st.composite
def model_argv(draw, tmp_path, command, grid_keys=GRID_KEYS):
    """``command`` with a --config file, inline --dist/--grid specs or both."""
    argv = []
    if draw(st.booleans()):
        cfg = {"distribution": draw(config_objects(DIST_KEYS))} if not _sometimes(draw, 1) else {}
        if draw(st.booleans()):
            cfg["grid"] = draw(config_objects(grid_keys))
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg if not _sometimes(draw, 1) else draw(values)))
        argv += ["--config", str(path)]
    argv.append(command)
    if "--config" not in argv or draw(st.booleans()):
        argv.append("--dist=" + draw(inline_specs(DIST_KEYS)))
    if draw(st.booleans()):
        argv.append("--grid=" + draw(inline_specs(grid_keys)))
    return argv


@st.composite
def bound_argv(draw, tmp_path):
    argv = draw(model_argv(tmp_path, "bound"))
    argv += ["--tier", draw(st.sampled_from("ABCD")), "--quantity", draw(st.sampled_from(("mean", "variance")))]
    if not _sometimes(draw, 3):
        argv.append(f"--delta={draw(st.sampled_from(('0.1', '1e-3', '0', '1e300')))}")
    return argv


def _mostly(draw, plausible, wild):
    return draw(plausible if not _sometimes(draw, 2) else wild)


deltas = st.sampled_from(("0.1", "0.05", "0.013", "1", "1e-3"))
wild_deltas = st.sampled_from(("0", "-0.1", "nan", "inf", "5e-324", "1e-300", "1e300"))
schemes = st.sampled_from(("nearest", "stochastic", "toward_zero", "away_from_zero"))
wild_ints = st.integers(-10 ** 30, 10 ** 30)


def _with_format(draw, argv, formats):
    return ["--format", draw(st.sampled_from(formats)), *argv] if draw(st.booleans()) else argv


@st.composite
def sweep_argv(draw, tmp_path):
    # a grid, if any, is uniform but now and then
    grid_keys = {"uniform": GRID_KEYS["uniform"]} if not _sometimes(draw, 2) else GRID_KEYS
    argv = draw(model_argv(tmp_path, "sweep", grid_keys))
    if not _sometimes(draw, 4):
        argv.append("--delta=" + _mostly(draw, deltas, wild_deltas))
    argv += ["--offsets", str(draw(st.integers(2, 3))), "--scheme", _mostly(draw, schemes, names)]
    if _sometimes(draw, 4):
        argv.append("--no-check")
    return _with_format(draw, argv, ("csv", "json", "svg"))


@st.composite
def sum_demo_argv(draw):
    # each summand has its own Philox stream: many summands cost time, but
    # are no malformed input, so they stay few
    argv = ["sum-demo", "--summands", str(draw(st.integers(-2, 60))), "--samples", str(draw(st.integers(-2, 5000))),
            "--scheme", _mostly(draw, schemes, names)]
    for flag, plausible in (("--m", st.integers(1, 24)), ("--k-min", st.integers(-16, -1)),
                            ("--k-max", st.integers(1, 16))):
        if draw(st.booleans()):
            argv.append(f"{flag}={_mostly(draw, plausible, wild_ints)}")
    if draw(st.booleans()):
        argv = ["--seed", str(draw(st.integers(-2 ** 70, 2 ** 70))), *argv]
    return _with_format(draw, argv, ("json",) if not _sometimes(draw, 2) else ("csv", "svg"))


@st.composite
def verify_argv(draw):
    argv = ["verify", f"--instances={draw(st.integers(-3, 4))}"]
    if draw(st.booleans()):
        argv.append("--scheme=" + draw(st.one_of(schemes, names, st.text(max_size=8))))
    if _sometimes(draw, 4):
        argv.append("--self-test")
    argv = ["--seed", str(draw(st.integers(-2 ** 70, 2 ** 70))), *argv]
    if _sometimes(draw, 4):  # verify writes only its text report
        argv = ["--format", draw(st.sampled_from(("csv", "json", "svg"))), *argv]
    return argv


def _reject(token):
    raise AssertionError(f"non-finite {token} in output")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    # any finer grid is refused at once, so no example integrates for long
    with mock.patch.object(grids, "CELL_BUDGET", 20_000), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_refusal(code, out, err):
    assert code in (2, 3) and out == ""
    prefix = "config error:" if code == 2 else "hypothesis violated:"
    assert err.startswith(prefix) and err.count("\n") == 1, err


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(data=st.data())
@FUZZ
def test_bound_survives_any_config(tmp_path, data):
    argv = data.draw(bound_argv(tmp_path))
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        assert err == ""
        assert math.isfinite(json.loads(out, parse_constant=_reject)["value"])
    else:
        _assert_refusal(code, out, err)


@given(data=st.data())
@settings(FUZZ, max_examples=200)
def test_sweep_survives_any_config(tmp_path, data):
    argv = data.draw(sweep_argv(tmp_path))
    code, out, err = _run(argv)
    if code == 0:
        assert err == ""
        fmt = argv[1] if argv[0] == "--format" else "csv"
        if fmt == "json":
            rows = json.loads(out, parse_constant=_reject)
            assert rows and all(math.isfinite(r["delta_V"]) for r in rows)
        elif fmt == "svg":
            assert out.startswith("<svg") and out.endswith("</svg>\n")
        else:
            cells = [c for line in out.splitlines()[1:] for c in line.split(",") if c]
            assert cells and all(math.isfinite(float(c)) for c in cells)
    elif code == 1:
        # a false violation is a known open defect, so it is allowed here
        assert out == "" and err.startswith("dominance violation:") and err.count("\n") == 1, err
    else:
        _assert_refusal(code, out, err)


@given(argv=sum_demo_argv())
@settings(FUZZ, max_examples=300)
def test_sum_demo_survives_any_arguments(argv):
    code, out, err = _run(argv)
    if code in (0, 1):
        assert err == ""
        payload = json.loads(out, parse_constant=_reject)
        assert payload["dominated"] is (code == 0)
    else:
        _assert_refusal(code, out, err)


@given(argv=verify_argv())
@settings(FUZZ, max_examples=300)
def test_verify_survives_any_arguments(argv):
    code, out, err = _run(argv)
    self_test = "--self-test" in argv
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        _assert_refusal(code, out, err)
        return
    # a violation is reported only when the self-test halves every bound
    assert err == "" and (code == 0 or self_test), (argv, out)
    instances = int(next(a for a in argv if a.startswith("--instances="))[len("--instances="):])
    lines = out.splitlines()
    n_bad = sum(line.startswith("FAIL") for line in lines)
    assert len(lines) == instances + 2 and (n_bad > 0) is (code == 1)
    assert lines[-1] == f"{instances} checks, {n_bad} violations" + (" (self-test mode)" if self_test else "")
