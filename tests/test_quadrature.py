import math

import numpy as np
import pytest

from roundmoments.quadrature import adaptive_quad, gauss_legendre_nodes


def test_polynomial_exact():
    val, err = adaptive_quad(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-10


def test_gaussian_mass_infinite_domain():
    val, err = adaptive_quad(lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi), -np.inf, np.inf)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_one_sided_tail():
    val, _ = adaptive_quad(lambda x: np.exp(-x), 0.0, np.inf)
    assert val == pytest.approx(1.0, rel=1e-12)
    val, _ = adaptive_quad(lambda x: np.exp(x), -np.inf, 0.0)
    assert val == pytest.approx(1.0, rel=1e-12)


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
