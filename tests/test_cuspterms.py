"""Cusp contributions: identity/unipotent/threshold/scattering closed
forms, Plancherel traces, and the lattice L-function."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cuspedzeta.cli import _load_poles
from cuspedzeta.cuspterms import (Lattice2D, LatticeCharacter,
                                  NontrivialRestriction, ScatteringPoles,
                                  TrivialRestriction, epstein,
                                  epstein_residue_and_constant,
                                  identity_lprime, j1_pm_lprime,
                                  j1_zero_lprime, scattering_lprime,
                                  threshold_lprime, unipotent_lprime)
from cuspedzeta.errors import CuspedZetaError, InputError
from cuspedzeta.laplace import EULER_GAMMA, MeroSum

from conftest import FIXTURES
from epstein_oracle import _tail_shape, epstein_mpmath, kronecker_constant
from epstein_oracle import epstein as shell_epstein
from heat_oracle import evaluate, residue_at
from mpmath_references import NEAR_TRIVIAL, NEAR_TRIVIAL_S, epstein_case_id
from mpmath_references import load as load_references
from quadrature_oracle import quadrature_lprime, tail_shape_theta


def identity_heat(vol: float, t: float, j: int) -> float:
    """Plancherel heat contributions of the identity:
    I0 = vol (sqrt(pi)/4) t^{-3/2} e^{-t},
    I1 = 2 vol (sqrt(pi)/2)(t^{-1/2} + t^{-3/2}/2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if j == 0:
        return vol * math.sqrt(math.pi) / 4 * t ** -1.5 * math.exp(-t)
    if j == 1:
        return 2 * vol * math.sqrt(math.pi) / 2 * (t ** -0.5 + t ** -1.5 / 2)
    raise ValueError("j must be 0 or 1")


def plancherel_trace(j: int, t: float) -> float:
    """The sigma-integrated unipotent kernel traces:
    j=0: (e^{-t}/4 pi^2) sqrt(pi/t);  j=1: adds (1/2 pi^2) sqrt(pi/t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = math.sqrt(math.pi / t)
    zero = math.exp(-t) / (4 * math.pi ** 2) * g
    if j == 0:
        return zero
    if j == 1:
        return g / (2 * math.pi ** 2) + zero
    raise ValueError("j must be 0 or 1")

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
        poly=[-2 * EULER_GAMMA], digamma_atoms=[(-2, 1)])
    assert j1_pm_lprime() == MeroSum.build(
        poly=[-2 * EULER_GAMMA], digamma_atoms=[(-1, 0), (-1, 2)])


@pytest.mark.parametrize("case", [
    TrivialRestriction(),
    # c_rho = -(pi/2) ln 2, the constant term at s = 0 of the square
    # lattice's sign-character L-function (perfbench/oracle.py,
    # sign_character_constant)
    NontrivialRestriction(covolume=2 * math.sqrt(3), c_rho=-math.pi / 2 * math.log(2)),
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
    with pytest.raises(InputError, match="imaginary axis"):
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
    with pytest.raises(CuspedZetaError, match="summation region"):
        epstein(SQ, TRIV, -0.1)


def character_value(chi: LatticeCharacter, m: int, n: int) -> complex:
    """chi(m b1 + n b2) = v1^m v2^n."""
    return chi.v1 ** m * chi.v2 ** n


def test_character_values():
    assert TRIV.is_trivial
    assert not SIGN.is_trivial
    assert abs(character_value(SIGN, 3, 2) - (-1.0)) < 1e-15
    assert abs(character_value(SIGN, 2, 5) - 1.0) < 1e-15


def test_epstein_real_character_at_real_s_is_real():
    # the three block sums agree to rounding here, so the Aitken
    # denominator is noise and must not be divided by
    got = epstein(SQ, SIGN, 1.316485)
    assert abs(got.imag) < 1e-12
    assert abs(got.real - (-0.64208403242631)) < 1e-12


# --- Chowla-Selberg expansion against independent oracles ------------------

def _unit(phase) -> complex:
    """e^{2 pi i phase}, exactly 1 and -1 at the phases 0 and 1/2."""
    phase %= 1
    if phase == 0:
        return 1 + 0j
    if phase == Fraction(1, 2):
        return -1 + 0j
    return cmath.exp(2j * math.pi * float(phase))


BASES = {"square": (1, 1j), "hexagonal": (1, cmath.exp(1j * math.pi / 3)),
         "skewed": (1, 3 + 0.3j), "random": (0.83, -0.41 + 1.37j)}
CHARACTERS = {"trivial": (Fraction(0), Fraction(0)),
              "sign": (Fraction(1, 2), Fraction(0)),
              "order3": (Fraction(1, 3), Fraction(2, 3)),
              "irrational": (Fraction(0.2371), Fraction(0.61803))}
S_VALUES = (0.05 + 2j, 0.3, 1, 1.9 - 0.6j)
# the shell route's own error, against epstein_mpmath, is above 1e-7 here
# (up to 2.4e-6: its Aitken step meets a slowly damped oscillation); the
# same points are in the 40-digit comparison below
SHELL_ERROR = {("square", "irrational", 0.05 + 2j): 3e-6,
               ("hexagonal", "irrational", 0.05 + 2j): 3e-6,
               ("random", "irrational", 0.05 + 2j): 3e-6,
               ("random", "irrational", 0.3): 3e-6,
               ("random", "order3", 0.05 + 2j): 3e-6}


def _case(basis, character):
    (b1, b2), (a, c) = BASES[basis], CHARACTERS[character]
    return (Lattice2D(complex(b1), complex(b2)),
            LatticeCharacter(_unit(a), _unit(c)))


@pytest.mark.parametrize("s", S_VALUES, ids=str)
@pytest.mark.parametrize("character", CHARACTERS)
@pytest.mark.parametrize("basis", BASES)
def test_epstein_matches_shell_oracle(basis, character, s):
    lat, chi = _case(basis, character)
    want = shell_epstein(lat, chi, s)
    got = epstein(lat, chi, s)
    assert abs(got - want) <= SHELL_ERROR.get((basis, character, s), 1e-7) * abs(want)


MPMATH_CASES = [(basis, character, s) for basis, character, s in SHELL_ERROR] + [
    ("square", "sign", 0.5 + 10j), ("hexagonal", "order3", 0.2 - 7j),
    ("random", "trivial", 1 + 9.5j), ("random", "irrational", 0.3 + 6j),
    ("square", "sign", 0.3 + 15j), ("hexagonal", "trivial", 1.2 - 20j),
    ("random", "order3", 0.5 + 20j)]


# the cheapest case of each lattice computes its reference live; the
# others read the table `mpmath_references.py` wrote
LIVE_MPMATH_CASES = {("square", "sign", 0.3 + 15j), ("hexagonal", "order3", 0.2 - 7j),
                     ("random", "irrational", 0.3)}


def _live_reference(want: complex, live: complex) -> complex:
    """The live 40-digit value, after checking that the table holds it."""
    assert abs(live - want) <= 1e-15 * abs(live)
    return live


def test_mpmath_table_covers_every_case():
    refs = load_references()
    assert set(refs["epstein"]) == {epstein_case_id(*case) for case in MPMATH_CASES}
    assert LIVE_MPMATH_CASES <= set(MPMATH_CASES)
    assert set(refs["near_trivial"]) == {str(s) for s in NEAR_TRIVIAL_S}


@pytest.mark.parametrize("basis,character,s", MPMATH_CASES,
                         ids=[epstein_case_id(*case) for case in MPMATH_CASES])
def test_epstein_matches_mpmath(basis, character, s):
    lat, chi = _case(basis, character)
    want = load_references()["epstein"][epstein_case_id(basis, character, s)]
    if (basis, character, s) in LIVE_MPMATH_CASES:
        (b1, b2), (a, c) = BASES[basis], CHARACTERS[character]
        want = _live_reference(want, epstein_mpmath(complex(b1), complex(b2), a, c, s))
    tol = 1e-10 if abs(complex(s).imag) <= 10 else 1e-8
    assert abs(epstein(lat, chi, s) - want) <= tol * abs(want)


def test_epstein_classical_closed_forms():
    square, _ = _case("square", "trivial")
    hexagonal, _ = _case("hexagonal", "trivial")
    # 4 zeta(2) G and 6 zeta(2) L(2, chi_-3) at s = 1
    want = 4 * mpmath.zeta(2) * mpmath.catalan
    assert abs(epstein(square, TRIV, 1) - float(want)) <= 1e-13 * want
    want = 6 * mpmath.zeta(2) * (mpmath.zeta(2, 1 / 3.) - mpmath.zeta(2, 2 / 3.)) / 9
    assert abs(epstein(hexagonal, TRIV, 1) - float(want)) <= 1e-13 * want
    res, const = epstein_residue_and_constant(square, SIGN)
    want = -(math.pi / 2) * math.log(2)
    assert res == 0 and abs(const - want) <= 1e-13 * abs(want)
    rng = random.Random(11)
    for _ in range(3):
        b1 = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        b2 = b1 * complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))
        lat = Lattice2D(b1, b2)
        res, const = epstein_residue_and_constant(lat, TRIV)
        assert abs(res - math.pi / lat.covolume) <= 1e-13 * res
        want = kronecker_constant(b1, b2)
        assert abs(const - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("s", NEAR_TRIVIAL_S)
def test_epstein_near_trivial_character(s):
    # chi = (e^{2 pi i/1000}, 1): along b1 the Bessel terms decay only
    # like e^{-2 pi n y/1000}; Poisson summation runs along b2 instead
    lat = Lattice2D(1 + 0j, 0.3 + 1.1j)
    chi = LatticeCharacter(_unit(0.001), 1 + 0j)
    want = load_references()["near_trivial"][str(s)]
    if s == 1:  # the cheap one stays live
        want = _live_reference(want, epstein_mpmath(*NEAR_TRIVIAL, s))
    assert abs(epstein(lat, chi, s) - want) <= 1e-12 * abs(want)


SL2Z = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (2, 3, 1, 2), (-3, 5, 4, -7),
        (7, -2, 11, -3), (13, 8, 5, 3)]


@pytest.mark.parametrize("character", CHARACTERS)
@pytest.mark.parametrize("basis", BASES)
def test_epstein_invariant_under_basis_change(basis, character):
    # (b1', b2') = (p b1 + q b2, r b1 + t b2) carries the phases along
    (b1, b2), (a, c) = BASES[basis], CHARACTERS[character]
    for s in (0.3, 0.05 + 2j):
        want = epstein(*_case(basis, character), s)
        for p, q, r, t in SL2Z:
            lat = Lattice2D(complex(p * b1 + q * b2), complex(r * b1 + t * b2))
            chi = LatticeCharacter(_unit(p * a + q * c), _unit(r * a + t * c))
            assert abs(epstein(lat, chi, s) - want) <= 1e-13 * abs(want)


def test_epstein_skewed_basis_is_reduced_first():
    # covolume 1e-6: the shell sums ran in these basis coordinates and
    # could not resolve their tail integral
    lat = Lattice2D(1 + 0j, 0.999999 + 1e-6j)
    short = complex(0.999999 - 1, 1e-6)
    for chi, reduced_chi in ((TRIV, TRIV), (SIGN, LatticeCharacter(-1 + 0j, -1 + 0j))):
        got = epstein(lat, chi, 1)
        want = epstein(Lattice2D(short, 1 + 0j), reduced_chi, 1)
        assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(got.imag) <= 1e-13 * abs(got)


@pytest.mark.parametrize("v, s, message", [
    (_unit(1e-7), 0.5, "term evaluations"),
    (-1 + 0j, 0.5 + 2000j, "term evaluations"),
    (1 + 0j, 100, "rounding estimate"),
    (1 + 0j, 1e-300, "division by zero"),
], ids=["near-trivial", "large-im-s", "large-re-s", "tiny-s"])
def test_epstein_refuses_what_it_cannot_resolve(v, s, message):
    lat = Lattice2D(1 + 0j, cmath.exp(1j * math.pi / 3))
    with pytest.raises(CuspedZetaError, match=message):
        epstein(lat, LatticeCharacter(v, v if v != -1 else 1 + 0j), s)
