"""Fuzz the command line's one config reader through ``bound``: whatever
the --config JSON or the inline --dist/--grid specs hold, ``main`` returns
0, 2 or 3, says why in at most one stderr line, and prints JSON with no
NaN or Infinity."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
def bound_argv(draw, tmp_path):
    argv = []
    if draw(st.booleans()):
        cfg = {"distribution": draw(config_objects(DIST_KEYS))} if not _sometimes(draw, 1) else {}
        if draw(st.booleans()):
            cfg["grid"] = draw(config_objects(GRID_KEYS))
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(cfg if not _sometimes(draw, 1) else draw(values)))
        argv += ["--config", str(path)]
    argv.append("bound")
    if "--config" not in argv or draw(st.booleans()):
        argv.append("--dist=" + draw(inline_specs(DIST_KEYS)))
    if draw(st.booleans()):
        argv.append("--grid=" + draw(inline_specs(GRID_KEYS)))
    argv += ["--tier", draw(st.sampled_from("ABCD")), "--quantity", draw(st.sampled_from(("mean", "variance")))]
    if not _sometimes(draw, 3):
        argv.append(f"--delta={draw(st.sampled_from(('0.1', '1e-3', '0', '1e300')))}")
    return argv


def _reject(token):
    raise AssertionError(f"non-finite {token} in output")


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bound_survives_any_config(tmp_path, data):
    argv = data.draw(bound_argv(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        assert err == ""
        assert math.isfinite(json.loads(out, parse_constant=_reject)["value"])
    else:
        assert out == ""
        assert err.startswith(("config error:", "hypothesis violated:")) and err.count("\n") == 1, err
