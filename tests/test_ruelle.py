"""Truncated Euler products, the factorization identity, and heat-trace
transforms of the length spectrum."""

import cmath
import math

import pytest

from cuspedzeta import ruelle
from cuspedzeta.errors import ConvergenceRegionError
from cuspedzeta.spectrum import load_spectrum

from conftest import FIXTURES
from quadrature_oracle import quadrature_lprime


@pytest.fixture(scope="module")
def orbit():
    return ruelle.single_orbit_spectrum(1.0, 0.7, cmath.exp(0.4j), 60)


@pytest.fixture(scope="module")
def fig8():
    return load_spectrum(FIXTURES / "fig8_spectrum.csv")


def test_weights_formulas(orbit):
    c = orbit.classes[0]
    w = ruelle.weights(c)
    delta = 1 - 2 * math.exp(-c.length) * math.cos(c.holonomy) \
        + math.exp(-2 * c.length)
    assert abs(w.a0 - c.char_value * c.primitive_length / delta) < 1e-14
    assert abs(w.a1 - 2 * math.cos(c.holonomy) * w.a0) < 1e-14


def test_log_euler_product_matches_product(fig8):
    z = 5 + 0.3j
    total = ruelle.log_euler_product(fig8, z).value
    prod = ruelle.euler_product(fig8, z).value
    # the class list is power-closed far beyond convergence needs here
    assert abs(cmath.exp(total) - prod) < 1e-6


def test_single_orbit_factorization_residual(orbit):
    assert ruelle.fried_residual(orbit, 4 + 0j) <= 1e-12


def test_fig8_factorization_residual(fig8):
    residual = ruelle.fried_residual(fig8, 5 + 0j)
    # complete spectrum: residual is pure roundoff
    assert residual <= 1e-12


def test_log_derivative_identity(orbit):
    for z in (4 + 0j, 4 + 0.5j):
        lhs = ruelle.log_derivative(orbit, z)
        rhs = ruelle.log_derivative_series(orbit, z)
        assert abs(lhs - rhs) < 1e-6


def test_heat_transforms_match_y_series(orbit):
    z = 3.0

    def transform(j):
        re = quadrature_lprime(
            lambda t: ruelle.hyperbolic_heat(orbit, j, t).real, z)
        im = quadrature_lprime(
            lambda t: ruelle.hyperbolic_heat(orbit, j, t).imag, z)
        return re + 1j * im

    w = math.sqrt(z * z + 1)
    y0 = ruelle.y_series(orbit, 0, w + 1).value
    assert abs(transform(0) - (z / w) * y0) < 1e-10
    y1 = ruelle.y_series(orbit, 1, z + 1).value
    assert abs(transform(1) - y1) < 1e-10


def test_tail_bound_monotone():
    s = ruelle.single_orbit_spectrum(1.0, 0.0, 1.0 + 0j, 10)
    incomplete = s.__class__(classes=s.classes, cutoff_length=s.cutoff_length,
                             lattice_covolume=s.lattice_covolume,
                             volume=s.volume, complete=False)
    tails = [ruelle.euler_product(incomplete, x + 0j).tail_bound
             for x in (2.5, 3.0, 4.0, 6.0)]
    assert all(t > 0 for t in tails)
    assert tails == sorted(tails, reverse=True)


def test_convergence_region_enforced_when_incomplete():
    s = ruelle.single_orbit_spectrum(1.0, 0.0, 1.0 + 0j, 10)
    incomplete = s.__class__(classes=s.classes, cutoff_length=s.cutoff_length,
                             lattice_covolume=s.lattice_covolume,
                             volume=s.volume, complete=False)
    with pytest.raises(ConvergenceRegionError):
        ruelle.euler_product(incomplete, 1.5 + 0j)
    # a complete spectrum carries no truncation error and no restriction
    rep = ruelle.euler_product(s, 1.5 + 0j)
    assert rep.tail_bound == 0.0


def test_fig8_value_is_frozen(fig8):
    rep = ruelle.euler_product(fig8, 5 + 0j)
    assert abs(rep.value - 0.98097367527794854) < 1e-13
    assert rep.tail_bound == 0.0
