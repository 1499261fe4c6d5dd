"""Cusp contributions: identity/unipotent/threshold/scattering closed
forms, Plancherel traces, and the lattice L-function."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from cuspedzeta.cli import _load_poles
from cuspedzeta.cuspterms import (Lattice2D, LatticeCharacter, _tail_shape,
                                  NontrivialRestriction, ScatteringPoles,
                                  TrivialRestriction, epstein,
                                  epstein_residue_and_constant, identity_heat,
                                  identity_lprime, j1_pm_lprime,
                                  j1_zero_lprime, plancherel_trace,
                                  scattering_lprime, threshold_lprime,
                                  unipotent_lprime)
from cuspedzeta.errors import ConvergenceRegionError, PoleOnAxis
from cuspedzeta.laplace import MeroSum, digamma, evaluate, residue_at

from conftest import FIXTURES
from quadrature_oracle import quadrature_lprime, tail_shape_theta

SQ = Lattice2D(1.0 + 0j, 1j)
TRIV = LatticeCharacter(1.0 + 0j, 1.0 + 0j)
SIGN = LatticeCharacter(-1.0 + 0j, 1.0 + 0j)
FIG8_CUSP = Lattice2D(1.0 + 0j, 2j * math.sqrt(3))


# --- closed forms (structural equality) ------------------------------------

def test_identity_polynomials_structural():
    vol = 2.029883212819307
    m0, m1 = identity_lprime(vol)
    assert m0 == MeroSum.build(poly=[0, 0, -math.pi * vol])
    assert m1 == MeroSum.build(poly=[2 * math.pi * vol, 0, -2 * math.pi * vol])


def test_identity_heat_transform_matches_polynomial():
    vol = 1.7
    m0, m1 = identity_lprime(vol)
    from fractions import Fraction
    for z in (1.5, 2.5):
        # I0 carries the threshold factor e^{-t}, so its raw transform is
        # (z/w) m0(w) with w = sqrt(z^2+1) = -pi vol z sqrt(z^2+1)
        got0 = quadrature_lprime(lambda t: identity_heat(vol, t, 0), z,
                                 power_part=((vol * math.sqrt(math.pi) / 4,
                                              Fraction(-3, 2)),))
        want0 = -math.pi * vol * z * math.sqrt(z * z + 1)
        assert abs(got0 - want0) < 1e-8 * max(1, abs(want0))
        w = math.sqrt(z * z + 1)
        assert abs(got0 - (z / w) * evaluate(m0, w)) < 1e-8 * abs(want0)
        got1 = quadrature_lprime(lambda t: identity_heat(vol, t, 1), z,
                                 power_part=((vol * math.sqrt(math.pi),
                                              Fraction(-1, 2)),
                                             (vol * math.sqrt(math.pi) / 2,
                                              Fraction(-3, 2))))
        assert abs(got1 - evaluate(m1, z)) < 1e-8 * max(1, abs(evaluate(m1, z)))


def test_threshold_structural():
    assert threshold_lprime() == MeroSum.build(poles=[(0, -0.5)])
    assert abs(evaluate(threshold_lprime(), 2.0) + 0.25) < 1e-15


def test_digamma_sums_structural():
    assert j1_zero_lprime() == MeroSum.build(
        poly=[2 * digamma(1).real], digamma_atoms=[(-2, 1)])
    assert j1_pm_lprime() == MeroSum.build(
        poly=[2 * digamma(1).real], digamma_atoms=[(-1, 0), (-1, 2)])


@pytest.mark.parametrize("case", [
    TrivialRestriction(),
    NontrivialRestriction(covolume=2 * math.sqrt(3), c_rho=-1.0887930451516938),
    NontrivialRestriction(covolume=1.0, c_rho=2.5),
])
def test_unipotent_combination_vanishes_structurally(case):
    u0s, u1, comb = unipotent_lprime(case)
    assert comb.is_zero()
    # and the returned pieces are consistent with the combination formula
    u0 = u0s.shifted(-1)
    assert (u0.shifted(1) + u0.shifted(-1) - u1).is_zero()


def test_plancherel_traces():
    for t in (0.3, 1.0, 2.0):
        g = math.sqrt(math.pi / t)
        assert abs(plancherel_trace(0, t)
                   - math.exp(-t) / (4 * math.pi ** 2) * g) < 1e-15
        assert abs(plancherel_trace(1, t) - plancherel_trace(0, t)
                   - g / (2 * math.pi ** 2)) < 1e-15


# --- scattering ------------------------------------------------------------

def _example_poles():
    # one pole per conjugate pair: the partial fractions add the
    # conjugate partner themselves (a conjugate-closed input list would
    # cancel identically)
    return ScatteringPoles(poles_sigma0=(-0.5 + 1j, -0.7 + 2j),
                           poles_sigma1=(-0.75 + 2j, -1.25 + 0.5j),
                           c0=0.25, c1=-0.5)


def test_scattering_residues():
    p = _example_poles()
    s0, s1 = scattering_lprime(p)
    for a in p.poles_sigma0:
        a = complex(a)
        sgn = 1 if a.real > 0 else -1
        # s0 carries the unit shift: poles move by +1
        assert abs(residue_at(s0, -sgn * a + 1) + 0.5) < 1e-12
        assert abs(residue_at(s0, -sgn * a.conjugate() + 1) - 0.5) < 1e-12
    for a in p.poles_sigma1:
        a = complex(a)
        sgn = 1 if a.real > 0 else -1
        assert abs(residue_at(s1, -sgn * a) + 1.0) < 1e-12
        assert abs(residue_at(s1, -sgn * a.conjugate()) - 1.0) < 1e-12


def test_scattering_no_residue_at_spectral_points():
    s0, s1 = scattering_lprime(_example_poles())
    # the threshold pole of s0 sits at z = 1 after the shift
    assert abs(residue_at(s0, 1.0) + 0.5) < 1e-12
    assert abs(residue_at(s0, 0.0)) < 1e-12
    assert abs(residue_at(s0, 2.0)) < 1e-12
    assert abs(residue_at(s1, 0.0)) < 1e-12


def test_pole_on_axis_rejected():
    with pytest.raises(PoleOnAxis):
        ScatteringPoles(poles_sigma0=(1j,), poles_sigma1=())


def test_scattering_poles_file_loads():
    assert _load_poles(str(FIXTURES / "scattering_example.json")) \
        == _example_poles()


# --- Epstein L-function ----------------------------------------------------

def test_epstein_square_lattice_value():
    # classical: sum' (m^2+n^2)^{-2} = 4 zeta(2) beta(2), beta(2) = Catalan
    want = float(4 * mpmath.zeta(2) * mpmath.catalan)
    got = epstein(SQ, TRIV, 1.0)
    assert abs(got - want) < 1e-9


def test_epstein_residue_is_pi_over_covolume():
    res, _ = epstein_residue_and_constant(SQ, TRIV)
    assert abs(res - math.pi) < 1e-4
    res8, _ = epstein_residue_and_constant(FIG8_CUSP, TRIV)
    assert abs(res8 - math.pi / (2 * math.sqrt(3))) < 1e-4


def test_epstein_sign_character_constant():
    # sum' (-1)^m (m^2+n^2)^{-1} = -(pi/2) ln 2 at s = 0
    res, const = epstein_residue_and_constant(SQ, SIGN)
    assert res == 0
    assert abs(const - (-(math.pi / 2) * math.log(2))) < 1e-6


def test_epstein_sign_character_matches_annulus_oracle():
    s = 0.25
    got = epstein(SQ, SIGN, s)
    # independent brute-force square-block oracle with plain averaging
    def block(k):
        r = np.arange(-k, k + 1)
        m, n = np.meshgrid(r, r, indexing="ij")
        mask = (m != 0) | (n != 0)
        m, n = m[mask], n[mask]
        return np.sum((-1.0) ** m * (m * m + n * n + 0.0) ** (-(1 + s)))
    pair = [block(k) for k in range(400, 408)]
    want = sum(pair) / len(pair)
    assert abs(got - want) < 1e-6


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("b2", [1j, cmath.exp(1j * math.pi / 3), 3 + 0.3j,
                                0.99 + 0.05j, 1000j])
def test_tail_shape_edge_integral_matches_octant_oracle(b2):
    # the edge integral in t = tan(th) against QUADPACK over the angle
    lat = Lattice2D(1.0 + 0j, b2)
    for s in (1, 0.05, 0.003125, 0.05 + 2j, 0.2 + 3j):
        want = tail_shape_theta(lat, complex(s))
        got = _tail_shape(lat, complex(s))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_epstein_homogeneity_exact_in_exponent():
    s = 0.5
    c = 1.7
    scaled = Lattice2D(c * complex(SQ.b1), c * complex(SQ.b2))
    a = epstein(scaled, TRIV, s)
    b = epstein(SQ, TRIV, s) * c ** (-2 * (1 + s))
    assert abs(a - b) < 1e-9 * abs(b)


def test_epstein_convergence_region():
    with pytest.raises(ConvergenceRegionError):
        epstein(SQ, TRIV, -0.1)


def test_character_values():
    assert TRIV.is_trivial
    assert not SIGN.is_trivial
    assert abs(SIGN.value(3, 2) - (-1.0)) < 1e-15
    assert abs(SIGN.value(2, 5) - 1.0) < 1e-15


def test_epstein_real_character_at_real_s_is_real():
    # the three block sums agree to rounding here, so the Aitken
    # denominator is noise and must not be divided by
    got = epstein(SQ, SIGN, 1.316485)
    assert abs(got.imag) < 1e-12
    assert abs(got.real - (-0.64208403242631)) < 1e-12
