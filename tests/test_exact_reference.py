"""The oracle against exact values: every scheme, error powers and rounded
moments, weights (x - c)^m f on every model, on all three grid kinds."""

from __future__ import annotations

import functools

import mpmath
import numpy as np
import pytest

from roundmoments import ExplicitSet, FloatSystem, UniformMesh, make_exponential, make_normal, make_semicircle
from roundmoments import make_uniform
from roundmoments.oracle import Weight, err_weighted_integral, rd_moment_integral
from roundmoments.rounding import RoundingScheme as RS

from exact_reference import DPS, exact_integral

U = 2.0 ** -53
INSTANCES = 300


def _model(rng, kind: str):
    """A model of ``kind`` (None for no model) and the range to integrate
    over: the model's effective range, at times overhanging a bounded
    support, or for no model a range of a few units."""
    if kind == "none":
        a = float(rng.uniform(-3.0, 1.0))
        return None, (a, a + float(rng.uniform(0.5, 4.0)))
    if kind == "normal":
        model = make_normal(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.05, 1.5)))
    elif kind == "exponential":
        model = make_exponential(float(rng.uniform(0.5, 3.0)))
    elif kind == "uniform":
        lo = float(rng.uniform(-2.0, 1.0))
        model = make_uniform(lo, lo + float(rng.uniform(0.3, 3.0)))
    else:
        model = make_semicircle(float(rng.uniform(0.3, 2.0)), float(rng.uniform(-1.0, 1.0)))
    a, b = model.effective_range()
    if kind != "normal" and rng.random() < 0.3:
        a, b = a - float(rng.uniform(0.0, 1.0)), b + float(rng.uniform(0.0, 1.0))
    return model, (a, b)


def _grid(rng, kind: str, a: float, b: float):
    """A grid of the kind with some tens of cells on [a, b]."""
    if kind == "mesh":
        return UniformMesh((b - a) / float(rng.uniform(20.0, 80.0)), float(rng.uniform(0.0, 1.0)))
    if kind == "float":
        # 2^m points a binade from 2^k_min up; a small k_max saturates the range's far end
        reach = int(np.ceil(np.log2(max(abs(a), abs(b)))))
        return FloatSystem(int(rng.integers(2, 4)), reach - int(rng.integers(2, 5)), reach + int(rng.integers(-1, 2)))
    points = np.sort(rng.uniform(a, b, int(rng.integers(10, 40))))
    return ExplicitSet(np.concatenate([[a - 1.0], points, [b + 1.0]]))


def instance(i: int):
    """The i-th instance: weight, grid, scheme, range, and the integral as
    keyword arguments of exact_integral."""
    rng = np.random.default_rng([35, i])
    kinds = ("none", "normal", "exponential", "uniform", "semicircle")
    model, (a, b) = _model(rng, kinds[i % 5])
    grid = _grid(rng, ("mesh", "float", "explicit")[i // 5 % 3], a, b)
    scheme = list(RS)[i // 15 % 4]
    weight = Weight(model, float(rng.uniform(a, b)), int(rng.integers(0, 4)))
    if rng.random() < 0.6:
        integral = {"k": int(rng.integers(0, 5)), "signed": bool(rng.random() < 0.5)}
    else:
        integral = {"j": int(rng.integers(0, 4)), "shift": float(rng.uniform(-1.0, 1.0))}
    return weight, grid, scheme, a, b, integral


@functools.cache
def results() -> list:
    """(instance, oracle result, exact value, sum |piece terms|, the
    reference's slack) of each instance."""
    out = []
    for i in range(INSTANCES):
        weight, grid, scheme, a, b, integral = instance(i)
        if "k" in integral:
            got = err_weighted_integral(grid, scheme, weight, a, b, integral["k"], signed=integral["signed"])
        else:
            got = rd_moment_integral(grid, scheme, weight, a, b, integral["j"], shift=integral["shift"])
        out.append((instance(i), got, *exact_integral(weight, grid, scheme, a, b, **integral)))
    return out


def test_instances_cover_every_case():
    cases = {(type(grid).__name__, scheme, weight.model is None or weight.model.name, weight.power,
              "k" in integral) for (weight, grid, scheme, *_, integral), *_ in results()}
    assert {c[0] for c in cases} == {"UniformMesh", "FloatSystem", "ExplicitSet"}
    assert {c[1] for c in cases} == set(RS) and {c[3] for c in cases} == {0, 1, 2, 3}
    assert {c[2] for c in cases} == {True, "normal", "exponential", "uniform", "semicircle"}
    integrals = {tuple(integral.items()) for (*_, integral), *_ in results()}
    assert {(k, signed) for k in range(5) for signed in (True, False)} <= {(i[0][1], i[1][1]) for i in integrals if i[0][0] == "k"}
    assert {i[0][1] for i in integrals if i[0][0] == "j"} == {0, 1, 2, 3}
    pieces = [got.details["pieces"] for _, got, *_ in results()]
    assert max(pieces) < 300 and sum(pieces) > 40 * INSTANCES


def test_oracle_is_within_its_estimate_of_the_exact_value():
    missed = [(i, float(abs(mpmath.mpf(got.value) - exact)), got.abs_error_estimate)
              for i, (_, got, exact, _, slack) in enumerate(results())
              if not abs(mpmath.mpf(got.value) - exact) <= got.abs_error_estimate + slack]
    assert not missed, missed


@pytest.mark.xfail(strict=True, reason="the weight's node rounding (ROADMAP item 23) sets the roundoff")
def test_roundoff_is_within_100_u_of_the_terms():
    loose = [(i, got.details["roundoff"], float(terms))
             for i, (_, got, exact, terms, _) in enumerate(results())
             if not got.details["roundoff"] <= 100.0 * U * terms + abs(mpmath.mpf(got.value) - exact)]
    assert not loose, loose


def test_the_reference_gives_sheppards_correction():
    # nearest rounding on a mesh whose 16 cells tile a uniform's support:
    # E[err^2] is h^2 / 12 exactly, h = 1/16, and E[err] is 0
    model, mesh = make_uniform(0.0, 1.0), UniformMesh(2.0 ** -5)
    exact, _, slack = exact_integral(Weight(model), mesh, RS.NEAREST, 0.0, 1.0, k=2)
    with mpmath.workdps(DPS):
        assert abs(exact - mpmath.mpf(1) / (256 * 12)) <= slack
    exact, _, slack = exact_integral(Weight(model), mesh, RS.NEAREST, 0.0, 1.0, k=1, signed=True)
    assert abs(exact) <= slack
