import math

import numpy as np
import pytest

from roundmoments.errors import PreconditionError
from roundmoments.quadrature import adaptive_quad, gauss_legendre_nodes


def test_polynomial_exact():
    val, err = adaptive_quad(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-10


@pytest.mark.parametrize("a,b", [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0),
                                 (0.0, math.nan), (math.inf, math.inf)],
                         ids=["left-tail", "right-tail", "both-tails", "nan-start", "nan-end", "inf-inf"])
def test_non_finite_end_is_refused(a, b):
    # no tail map: a model's integrals run over its finite moment_range
    with pytest.raises(PreconditionError, match="need finite ends"):
        adaptive_quad(lambda x: np.exp(-np.abs(x)), a, b)


def test_kink_with_breakpoint():
    val, _ = adaptive_quad(np.abs, -1.0, 2.0, breakpoints=(0.0,))
    assert val == pytest.approx(2.5, rel=1e-13)


def test_sqrt_edge_singularity():
    # semicircle-style integrand: derivative blows up at the endpoints
    val, _ = adaptive_quad(lambda x: np.sqrt(np.maximum(1 - x * x, 0.0)), -1.0, 1.0)
    assert val == pytest.approx(math.pi / 2, rel=1e-10)


def test_gauss_legendre_cached_and_exact():
    n1 = gauss_legendre_nodes(12)
    n2 = gauss_legendre_nodes(12)
    assert n1 is n2
    nodes, weights = n1
    # degree-23 polynomial integrated exactly on [-1, 1]
    assert float(weights @ nodes ** 22) == pytest.approx(2.0 / 23.0, rel=1e-13)
