"""The 2z-normalized Laplace transform: special functions, meromorphic
bookkeeping, closed forms against quadrature, and the spectral lemmas."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.cli import mero_to_json
from cuspedzeta.cuspterms import (EULER_GAMMA, MeroSum, _besselk, _cosine_zeta,
                                  _log_gamma)

import mpmath_references as references
from heat_oracle import (HeatAtom, PoleEvaluation, UnsupportedAtom,
                         atom_function, closed_value, digamma, evaluate,
                         lprime_closed, residue_at, spectral_lprime)
from quadrature_oracle import quadrature_lprime


def mero_from_json(d: dict) -> MeroSum:
    un = lambda p: complex(p[0], p[1])
    return MeroSum.build(
        poly=[un(c) for c in d.get("polyPart", [])],
        poles=[(un(l), un(r)) for l, r in d.get("poles", [])],
        digamma_atoms=[(un(c), un(s)) for c, s in d.get("digammaAtoms", [])],
        exp_atoms=[(un(c), r) for c, r in d.get("expAtoms", [])],
    )

# --- special functions -----------------------------------------------------

def test_digamma_against_mpmath():
    rng = random.Random(1)
    pts = [0.1, 0.5, 1.0, 2.5, 10.0, 0.5 + 3j, -0.5 + 0.2j]
    pts += [rng.uniform(0.05, 20) + 1j * rng.uniform(-5, 5) for _ in range(20)]
    for z in pts:
        got = digamma(z)
        want = complex(mpmath.digamma(z))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_lattice_special_functions_against_mpmath():
    # log-gamma, the cosine zeta sum and K-Bessel behind the lattice
    # L-function, over the orders and arguments its expansion meets,
    # against the 40-digit table
    refs = references.load()
    for z, want in refs["gamma"]:
        assert abs(cmath.exp(_log_gamma(z)) - want) <= 1e-13 * abs(want)
    for z, a, want in refs["cosine_zeta"]:
        assert abs(_cosine_zeta(z, a) - want) <= 1e-13 * abs(want)
    for nu, x, want in refs["besselk"]:
        assert abs(_besselk(nu, x) - want) <= 1e-12 * abs(want)


def test_lattice_special_function_table_holds_the_seeded_points():
    # the table's points are the seeded ones, and its first value of
    # each function is what mpmath gives now
    refs = references.load()
    gamma, cosine_zeta, besselk = references.lattice_special_function_points()
    assert [row[0] for row in refs["gamma"]] == gamma
    assert [row[:2] for row in refs["cosine_zeta"]] == cosine_zeta
    assert [row[:2] for row in refs["besselk"]] == besselk
    for (*args, want), live in ((refs["gamma"][0], references.gamma_ref),
                                (refs["cosine_zeta"][0], references.cosine_zeta_ref),
                                (refs["besselk"][0], references.besselk_ref)):
        assert abs(live(*args) - want) <= 1e-15 * abs(want)


def test_digamma_poles_raise():
    for k in (0, -1, -5):
        with pytest.raises(PoleEvaluation):
            digamma(k)


def test_euler_gamma_value():
    with mpmath.workdps(40):
        assert EULER_GAMMA == float(mpmath.euler)
    # the series for psi(1) is 6 ulps off
    assert abs(-digamma(1).real - EULER_GAMMA) < 1e-15


# --- atoms and closed forms ------------------------------------------------

def test_atom_validation():
    with pytest.raises(UnsupportedAtom):
        HeatAtom("nope", 1.0)
    with pytest.raises(UnsupportedAtom):
        HeatAtom("exp", -1.0)
    with pytest.raises(UnsupportedAtom):
        HeatAtom("power", Fraction(1, 3))
    with pytest.raises(UnsupportedAtom):
        HeatAtom("theta", 0.0)


def test_power_atom_gamma_pole_unsupported():
    # 2 Gamma(1 + nu) has poles at nu = -1, -2, ...
    with pytest.raises(UnsupportedAtom):
        closed_value(HeatAtom("power", -1), 1.0)
    # nu >= 1 transforms to a higher-order pole: no simple-pole sum exists
    with pytest.raises(UnsupportedAtom):
        lprime_closed(HeatAtom("power", 1))


def test_exp_atom_closed_forms():
    m = lprime_closed(HeatAtom("exp", 4.0))
    assert abs(residue_at(m, 2j) - 1) < 1e-12
    assert abs(residue_at(m, -2j) - 1) < 1e-12
    m0 = lprime_closed(HeatAtom("exp", 0.0))
    assert abs(residue_at(m0, 0) - 2) < 1e-12


CRITERION1_ATOMS = (
    [HeatAtom("exp", lam) for lam in (0.0, 0.5, 1.0, 4.0)]
    + [HeatAtom("power", nu) for nu in (Fraction(-1, 2), 0, Fraction(1, 2), 1)]
    + [HeatAtom("theta", l) for l in (0.5, 1.0, 2.0)]
)


@pytest.mark.parametrize("atom", CRITERION1_ATOMS,
                         ids=[f"{a.kind}-{a.param}" for a in CRITERION1_ATOMS])
def test_closed_form_matches_quadrature(atom):
    f = atom_function(atom)
    power_part = [(1.0, Fraction(atom.param))] if atom.kind == "power" else ()
    for z in (0.75, 1.0, 2.0, 3.0):
        want = closed_value(atom, z)
        got = quadrature_lprime(f, z, power_part=power_part)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_digamma_atom_closed_form():
    m = lprime_closed(HeatAtom("digamma", 0.5))
    for z in (0.75, 2.0):
        assert abs(evaluate(m, z) - 2 * math.pi * digamma(z + 0.5)) < 1e-12


# --- MeroSum algebra -------------------------------------------------------

def _sample_mero():
    # poly 1.5 - 0.25 z; poles at 1 (res 2) and -0.5+0.5i (res -1)
    return MeroSum.build(
        poly=(1.5, -0.25),
        poles=((1.0 + 0j, 2.0), (-0.5 + 0.5j, -1.0)),
        digamma_atoms=((0.5, 0.25),),
        exp_atoms=((1.0 + 0.5j, 0.7),))


def test_build_merges_duplicate_atoms():
    a = MeroSum.build(poles=((2.0, 1.0), (2.0, 2.0)))
    b = MeroSum.build(poles=((2.0, 3.0),))
    assert a == b
    c = MeroSum.build(exp_atoms=((1.0, 0.5), (-1.0, 0.5)))
    assert c.is_zero()


def test_add_sub_scale_consistency():
    m = _sample_mero()
    z = 0.3 + 0.9j
    two = m + m
    assert abs(evaluate(two, z) - 2 * evaluate(m, z)) < 1e-12
    assert (m - m).is_zero()
    assert abs(evaluate(m.scale(3), z) - 3 * evaluate(m, z)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_shift_evaluates_correctly(h, im):
    m = _sample_mero()
    z = 0.123 + 1j * im
    shifted = m.shifted(h)
    try:
        want = evaluate(m, z - h)
    except PoleEvaluation:
        return
    assert abs(evaluate(shifted, z) - want) < 1e-9 * max(1.0, abs(want))


def test_evaluate_at_pole_raises():
    m = MeroSum.build(poles=((0.5, 1.0),))
    with pytest.raises(PoleEvaluation):
        evaluate(m, 0.5)


def test_residues():
    m = _sample_mero()
    assert abs(residue_at(m, 1.0) - 2.0) < 1e-12
    assert abs(residue_at(m, -0.5 + 0.5j) + 1.0) < 1e-12
    assert abs(residue_at(m, 7.5)) < 1e-12
    # digamma atom: residue -c at nonpositive integer arguments of psi
    d = MeroSum.build(digamma_atoms=((0.5, 0.25),))
    assert abs(residue_at(d, -0.25) + 0.5) < 1e-12
    assert abs(residue_at(d, -1.25) + 0.5) < 1e-12


def test_json_round_trip():
    m = _sample_mero()
    d = mero_to_json(m)
    assert mero_from_json(d) == m
    import json
    assert json.dumps(d, sort_keys=True) == json.dumps(
        mero_to_json(mero_from_json(d)), sort_keys=True)


# --- spectral lemmas -------------------------------------------------------

def _random_eigenlists(rng):
    b0 = rng.randint(0, 3)
    b1 = rng.randint(0, 3)
    e0 = [0.0] * b0 + sorted(rng.uniform(0.05, 6) for _ in range(rng.randint(0, 6)))
    e1 = [0.0] * b1 + sorted(rng.uniform(0.05, 6) for _ in range(rng.randint(0, 6)))
    return e0, e1, b0, b1


def test_spectral_lemmas_on_random_lists():
    rng = random.Random(42)
    for _ in range(50):
        e0, e1, b0, b1 = _random_eigenlists(rng)
        l0, l1 = spectral_lprime(e0, e1)
        # oddness and residue at zero (exact atom bookkeeping)
        assert abs(residue_at(l1, 0) - 2 * (b1 - b0)) < 1e-12
        z = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
        for w in (z, 1.7 * z):
            assert abs(evaluate(l1, -w) + evaluate(l1, w)) < 1e-10
        # functional equation of the degree-zero transform
        assert abs(evaluate(l0, 1 + z) + evaluate(l0, 1 - z)) < 1e-10


def test_spectral_eigenvalue_one_merges_poles():
    l0, _ = spectral_lprime([1.0], [])
    assert abs(residue_at(l0, 1.0) - 2.0) < 1e-12
