"""Truncated Euler products, the power-closure check, the factorization
identity kept as a test oracle, and heat-trace transforms of the length
spectrum."""

import cmath
import math

import pytest

from cuspedzeta import ruelle
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.spectrum import load_spectrum

from conftest import FIXTURES
from heat_oracle import (hyperbolic_heat, log_derivative,
                         log_derivative_series, y_series)
from quadrature_oracle import quadrature_lprime
from spectrum_oracle import (fried_residual, log_euler_product,
                             single_orbit_spectrum, weights)


@pytest.fixture(scope="module")
def orbit():
    return single_orbit_spectrum(1.0, 0.7, cmath.exp(0.4j), 60)


@pytest.fixture(scope="module")
def fig8():
    return load_spectrum(FIXTURES / "fig8_spectrum.csv")


def test_weights_formulas(orbit):
    c = orbit.classes[0]
    w = weights(c)
    delta = 1 - 2 * math.exp(-c.length) * math.cos(c.holonomy) \
        + math.exp(-2 * c.length)
    assert abs(w.a0 - c.char_value * c.primitive_length / delta) < 1e-14
    assert abs(w.a1 - 2 * math.cos(c.holonomy) * w.a0) < 1e-14


def test_log_euler_product_matches_product(fig8):
    z = 5 + 0.3j
    total = log_euler_product(fig8, z).value
    prod = ruelle.euler_product(fig8, z).value
    # the class list is power-closed far beyond convergence needs here
    assert abs(cmath.exp(total) - prod) < 1e-6


def test_single_orbit_factorization_residual(orbit):
    assert fried_residual(orbit, 4 + 0j) <= 1e-12


def test_fig8_factorization_residual(fig8):
    # the old Fried sums, and the power-closure check that replaced them
    assert fried_residual(fig8, 5 + 0j) <= 1e-12
    residual, bound, closed = ruelle.power_closure(fig8, 5 + 0j)
    assert closed and residual <= bound <= 1e-13


def test_log_derivative_identity(orbit):
    for z in (4 + 0j, 4 + 0.5j):
        lhs = log_derivative(orbit, z)
        rhs = log_derivative_series(orbit, z)
        assert abs(lhs - rhs) < 1e-6


def test_heat_transforms_match_y_series(orbit):
    z = 3.0

    def transform(j):
        re = quadrature_lprime(
            lambda t: hyperbolic_heat(orbit, j, t).real, z)
        im = quadrature_lprime(
            lambda t: hyperbolic_heat(orbit, j, t).imag, z)
        return re + 1j * im

    w = math.sqrt(z * z + 1)
    y0 = y_series(orbit, 0, w + 1).value
    assert abs(transform(0) - (z / w) * y0) < 1e-10
    y1 = y_series(orbit, 1, z + 1).value
    assert abs(transform(1) - y1) < 1e-10


def test_tail_bound_monotone():
    s = single_orbit_spectrum(1.0, 0.0, 1.0 + 0j, 10)
    tails = [ruelle.euler_product(s, x + 0j).tail_bound
             for x in (2.5, 3.0, 4.0, 6.0)]
    assert all(t > 0 for t in tails)
    assert tails == sorted(tails, reverse=True)


def test_convergence_region_enforced_when_incomplete(fig8):
    # every spectrum is a truncation, the synthetic one included
    s = single_orbit_spectrum(1.0, 0.0, 1.0 + 0j, 10)
    for sp in (s, fig8):
        for z in (2 + 0j, 1.5 + 0j, 0.01 + 3j):
            for evaluate in (ruelle.euler_product, ruelle.power_closure):
                with pytest.raises(CuspedZetaError, match="convergence region"):
                    evaluate(sp, z)


def test_fig8_value_is_frozen(fig8):
    rep = ruelle.euler_product(fig8, 5 + 0j)
    assert abs(rep.value - 0.98097367527794854) < 1e-13
    assert abs(rep.tail_bound - 5.4926229739046447e-06) < 1e-18
