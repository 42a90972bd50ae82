"""Results that do not depend on the units.

Multiplying every length by s = 2^j is exact in binary floating point, so
every moment coefficient, bound and oracle value below must come out as its
value at s = 1 times one exact power of s: the power of length it carries.
A model's density scales by 1/s, a weight |x - a|^m |x|^n by s^(m + n), an
additive base delta by s, and a multiplicative eps not at all.
"""

import functools

import pytest

from roundmoments import (
    Envelope,
    FloatSystem,
    SymmetricSplit,
    UniformMesh,
    make_exponential,
    make_normal,
    make_semicircle,
    make_uniform,
)
from roundmoments import bounds as B
from roundmoments.oracle import delta_e_and_v, err_weighted_integral
from roundmoments.rounding import RoundingScheme as RS

# the four models, and two with support away from zero for the
# multiplicative forms; every parameter times s is exact
MODELS = {
    "semicircle": lambda s: make_semicircle(1.0 * s, 0.2 * s),
    "normal": lambda s: make_normal(0.3 * s, 0.7 * s * s),
    "exponential": lambda s: make_exponential(1.1 / s),
    "uniform": lambda s: make_uniform(-0.5 * s, 1.0 * s),
    "semicircle-away": lambda s: make_semicircle(0.8 * s, 1.5 * s),
    "uniform-away": lambda s: make_uniform(1.25 * s, 2.5 * s),
}
EPS = 0.01
DELTA = 0.1
CANCELLING = (RS.NEAREST, RS.STOCHASTIC)
TIERS = (("A", RS.TOWARD_ZERO), ("A", RS.NEAREST), ("B", RS.NEAREST), ("C", RS.NEAREST),
         ("D", RS.NEAREST), ("B", RS.STOCHASTIC), ("D", RS.STOCHASTIC))


def _moment_values(model, s):
    """(name, value, power of s) of each model-only integral."""
    for m, n in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 4), (2, 4)):
        for about in (0.0, 0.4 * s, model.mean):
            yield f"abs_mixed_moment({m}, {n}, {about / s!r} s)", model.abs_mixed_moment(m, n, about), m + n
    for k in range(4):
        yield f"weighted_integral({k})", Envelope(model).weighted_integral(k), k
    for j in range(4):
        for c in (0.0, 0.3 * s):
            lo = model.effective_range()[0]
            yield f"h_integral({j}) about {c / s!r} s", SymmetricSplit(model, c).h_integral(j, lo, c), j
    yield "sup_centered_weight", model.sup_centered_weight(), 0


def _bound_values(model, s):
    """(name, value, power of s) of each bound family's report."""
    add, mult = B.ADDITIVE, B.MULTIPLICATIVE
    delta = DELTA * s
    for n in (1, 2, 3):
        yield f"strong n={n} mult", B.strong_bound(model, n, mult, EPS).value, n
        yield f"strong n={n} add", B.strong_bound(model, n, add, delta).value, n
    for m, n in ((1, 0), (0, 1), (1, 2), (2, 1)):
        yield f"mixed m={m} n={n} mult", B.mixed_moment_bound(model, 0.4 * s, m, n, mult, EPS).value, m + n
        yield (f"mixed-symmetric m={m} n={n} mult",
               B.mixed_moment_bound(model, 0.0, m, n, mult, EPS, use_symmetry=True).value, m + n)
    for k in (2, 3, 4):
        yield f"centered k={k} mult", B.centered_moment_first_order(model, k, mult, EPS).value, k
        yield f"centered k={k} add", B.centered_moment_first_order(model, k, add, delta).value, k
    for scheme in CANCELLING:
        for k, signed in ((1, False), (1, True), (2, False), (3, True)):
            for mode, base in ((mult, EPS), (add, delta)):
                rep = B.unimodal_moment_bound(model, k, scheme, mode, base, signed=signed)
                yield f"unimodal {scheme.value} {mode} k={k} signed={signed}", rep.value, k
    mesh = UniformMesh(0.05 * s, 0.013 * s)
    for tier, scheme in TIERS:
        de, dv = B.mean_and_variance_diff_bounds(model, tier, mesh=mesh, scheme=scheme)
        yield f"tier {tier} {scheme.value} mean", de.value, 1
        yield f"tier {tier} {scheme.value} variance", dv.value, 2


def _oracle_values(model, s, j):
    """(name, value, power of s) of each oracle value and error estimate."""
    mesh = UniformMesh(0.05 * s, 0.013 * s)
    fs = FloatSystem(7, -12 + j, 6 + j)
    a, b = model.effective_range()
    for scheme in CANCELLING:
        de, dv = delta_e_and_v(model, mesh, scheme)
        yield f"delta_e {scheme.value}", de.value, 1
        yield f"delta_e {scheme.value} estimate", de.abs_error_estimate, 1
        yield f"delta_v {scheme.value}", dv.value, 2
        yield f"delta_v {scheme.value} estimate", dv.abs_error_estimate, 2
        for k, signed in ((1, True), (3, True), (2, False)):
            rep = B.float_moment_bound(model, fs, k, scheme, signed=signed)
            yield f"float bound {scheme.value} k={k} signed={signed}", rep.value, k
            orc = err_weighted_integral(fs, scheme, model, a, b, k, signed=signed)
            yield f"float oracle {scheme.value} k={k} signed={signed}", orc.value, k
            yield f"float oracle {scheme.value} k={k} signed={signed} estimate", orc.abs_error_estimate, k


@functools.cache
def values_at(name: str, j: int) -> dict:
    s = 2.0 ** j
    model = MODELS[name](s)
    out = {}
    for key, value, power in (*_moment_values(model, s), *_bound_values(model, s), *_oracle_values(model, s, j)):
        assert key not in out, key
        out[key] = (value, power)
    return out


@pytest.mark.parametrize("j", [-40, -20, 20, 40])
@pytest.mark.parametrize("name", list(MODELS))
def test_every_value_scales_by_an_exact_power_of_two(name, j):
    ref, got = values_at(name, 0), values_at(name, j)
    assert got.keys() == ref.keys()
    # an integral over a range that holds mass is never 0 at unit scale, so
    # a 0 at scale s cannot pass by matching a 0 at scale 1
    assert all(value != 0.0 for key, (value, _) in ref.items() if key.startswith(("abs_mixed", "strong"))), name
    wrong = [
        f"{key}: {value!r} != {ref[key][0]!r} * 2^({j} * {power})"
        for key, (value, power) in got.items()
        if value != ref[key][0] * 2.0 ** (j * power)
    ]
    assert wrong == []


def test_tiers_scale_up_to_where_a_power_of_delta_overflows():
    # at s = 2^498 a bound term's delta^3 (and delta^2 for a zero term) is
    # past a double while the term itself is not
    def tiers(s):
        model, mesh = make_normal(0.0, s * s), UniformMesh(0.1 * s, 0.013 * s)
        return [B.mean_and_variance_diff_bounds(model, tier, mesh=mesh, scheme=scheme) for tier, scheme in TIERS]

    s = 2.0 ** 498
    want = [(de.value * s, dv.value * s * s) for de, dv in tiers(1.0)]
    assert [(de.value, dv.value) for de, dv in tiers(s)] == want
