"""Acceptance gate: nine verifiable criteria, one printed verdict line
each.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the
per-criterion lines as they execute."""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from cuspedzeta import ruelle
from cuspedzeta.alexander import alexander_invariant
from cuspedzeta.cli import run as cli_run
from cuspedzeta.cuspterms import (EULER_GAMMA, Lattice2D, LatticeCharacter, MeroSum,
                                  NontrivialRestriction, TrivialRestriction,
                                  epstein, epstein_residue_and_constant,
                                  identity_lprime, j1_pm_lprime,
                                  j1_zero_lprime, threshold_lprime,
                                  unipotent_lprime)
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.laurent import LaurentPoly
from cuspedzeta.presentation import parse_presentation
from cuspedzeta.spectrum import Spectrum, enumerate_classes, load_spectrum
from cuspedzeta.verdict import main_conjecture_report

from conftest import FIXTURES, fig8_generators, read_fixture
from heat_oracle import (HeatAtom, atom_function, closed_value, evaluate,
                         hyperbolic_heat, log_derivative,
                         log_derivative_series, residue_at, spectral_lprime,
                         y_series)
from quadrature_oracle import quadrature_lprime
from spectrum_oracle import single_orbit_spectrum
from wada_oracle import wada_holds


def _verdict(n, ok, desc):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {n} failed: {desc}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_transform_algebra():
    t0 = time.perf_counter()
    atoms = ([HeatAtom("exp", lam) for lam in (0.0, 0.5, 1.0, 4.0)]
             + [HeatAtom("power", nu)
                for nu in (Fraction(-1, 2), 0, Fraction(1, 2), 1)]
             + [HeatAtom("theta", l) for l in (0.5, 1.0, 2.0)])
    ok = True
    for atom in atoms:
        f = atom_function(atom)
        pp = [(1.0, Fraction(atom.param))] if atom.kind == "power" else ()
        for z in (0.75, 1.0, 2.0, 3.0):
            want = closed_value(atom, z)
            got = quadrature_lprime(f, z, power_part=pp) \
                if atom.kind == "power" else quadrature_lprime(f, z)
            ok &= abs(got - want) <= 1e-8 * max(1.0, abs(want))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    _verdict(1, ok, f"closed transforms vs quadrature on the atom grid "
                    f"(rel err <= 1e-8, {elapsed:.2f}s)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_structural_closed_forms():
    vol = 2.029883212819307
    m0, m1 = identity_lprime(vol)
    ok = m0 == MeroSum.build(poly=[0, 0, -math.pi * vol])
    ok &= m1 == MeroSum.build(poly=[2 * math.pi * vol, 0, -2 * math.pi * vol])
    ok &= j1_zero_lprime() == MeroSum.build(
        poly=[-2 * EULER_GAMMA], digamma_atoms=[(-2, 1)])
    ok &= j1_pm_lprime() == MeroSum.build(
        poly=[-2 * EULER_GAMMA], digamma_atoms=[(-1, 0), (-1, 2)])
    ok &= threshold_lprime() == MeroSum.build(poles=[(0, -0.5)])
    # c_rho = -(pi/2) ln 2, the constant term at s = 0 of the square
    # lattice's sign-character L-function (perfbench/oracle.py,
    # sign_character_constant)
    for case in (TrivialRestriction(),
                 NontrivialRestriction(2 * math.sqrt(3), -math.pi / 2 * math.log(2))):
        ok &= unipotent_lprime(case)[2].is_zero()
    _verdict(2, ok, "identity/digamma/threshold closed forms structural; "
                    "unipotent combinations identically zero")


# -- 3 ----------------------------------------------------------------------

def _unit_equal(p, q):
    return p.divides(q) and q.divides(p)


def test_criterion_3_alexander_exactness():
    t0 = time.perf_counter()
    ok = True
    for name, coeffs in (("trefoil.pres", [1, -1, 1]),
                         ("fig8.pres", [1, -3, 1])):
        p, eps, rho = parse_presentation(read_fixture(name))
        d = alexander_invariant(p, rho, eps)
        ok &= _unit_equal(d.char1, LaurentPoly.from_int_coeffs(1, coeffs))
        ok &= d.ord_at_one == 1 and d.h1 == 1
        ok &= wada_holds(p, rho, eps, d)
    for name in ("trefoil_zeta5.pres", "fig8_zeta5.pres"):
        p, eps, rho = parse_presentation(read_fixture(name))
        d = alexander_invariant(p, rho, eps)
        ok &= d.h0_infinity_vanishes and d.ord_at_one <= -d.h1
        if p.peripheral_words:  # trefoil_zeta5.pres has none, so no report
            rep, _ = main_conjecture_report(p, rho, eps)
            ok &= rep["inequalityHolds"] is True
            ok &= rep["equalityExpected"] is d.semisimple_at_one
        if d.semisimple_at_one:
            ok &= d.ord_at_one == -d.h1
        ok &= wada_holds(p, rho, eps, d)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5
    _verdict(3, ok, f"char1 = t^2-t+1 / t^2-3t+1, ord=1, h1=1; zeta5 "
                    f"inequality; Wada determinant oracle ({elapsed:.2f}s)")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_factorization():
    # Fried's factorization holds row by row on any truncation, so the
    # check that can fail is its premise: the rows hold every power of
    # every primitive row under the cutoff
    z = 3 + 0j
    spectra = {"fixture": load_spectrum(FIXTURES / "fig8_spectrum.csv")}
    for word_len, cutoff in ((10, 3.5), (12, 4.0)):
        spectra[f"({cutoff}, {word_len})"] = enumerate_classes(
            fig8_generators(), [1.0, 1.0], max_word_len=word_len,
            cutoff_length=cutoff)
    worst = 0.0
    ok = True
    for sp in spectra.values():
        residual, bound, closed = ruelle.power_closure(sp, z)
        ok &= closed
        worst = max(worst, residual)
    fixture = spectra["fixture"]
    dropped = Spectrum(classes=[c for c in fixture.classes if c.word != "AbAb"],
                       cutoff_length=fixture.cutoff_length)
    residual, bound, closed = ruelle.power_closure(dropped, z)
    ok &= not closed and residual > 1e-6
    _verdict(4, ok, f"power closure at z=3 on the fixture and the (3.5, 10), "
                    f"(4, 12) spectra (residuals <= {worst:.1e}, within bound); "
                    f"fails without AbAb (residual {residual:.1e})")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_heat_and_derivative_identities():
    orbit = single_orbit_spectrum(1.0, 0.7, cmath.exp(0.4j), 60)
    z = 3.0

    def transform(j):
        re = quadrature_lprime(
            lambda t: hyperbolic_heat(orbit, j, t).real, z)
        im = quadrature_lprime(
            lambda t: hyperbolic_heat(orbit, j, t).imag, z)
        return re + 1j * im

    w = math.sqrt(z * z + 1)
    ok = abs(transform(0)
             - (z / w) * y_series(orbit, 0, w + 1).value) < 1e-6
    ok &= abs(transform(1) - y_series(orbit, 1, z + 1).value) < 1e-6
    diff = abs(log_derivative(orbit, 4 + 0j)
               - log_derivative_series(orbit, 4 + 0j))
    ok &= diff < 1e-6
    _verdict(5, ok, f"heat-term transforms match Y-series at z=3; "
                    f"d/dz log R identity at z=4 (diff {diff:.2e})")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_epstein():
    sq = Lattice2D(1.0 + 0j, 1j)
    triv = LatticeCharacter(1.0 + 0j, 1.0 + 0j)
    sign = LatticeCharacter(-1.0 + 0j, 1.0 + 0j)
    res, _ = epstein_residue_and_constant(sq, triv)
    ok = abs(res - math.pi) < 1e-4
    _, const = epstein_residue_and_constant(sq, sign)
    oracle = -(math.pi / 2) * math.log(2)   # closed-form annulus-sum limit
    ok &= abs(const - oracle) < 1e-6
    s, c = 0.5, 1.7
    scaled = Lattice2D(c + 0j, c * 1j)
    ok &= abs(epstein(scaled, triv, s)
              - epstein(sq, triv, s) * c ** (-2 * (1 + s))) < 1e-9
    _verdict(6, ok, "s L(s) -> pi within 1e-4; sign character constant "
                    "-(pi/2)ln2 within 1e-6; homogeneity exact in exponent")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_spectral_lemmas():
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        b0, b1 = rng.randint(0, 3), rng.randint(0, 3)
        e0 = [0.0] * b0 + [rng.uniform(0.05, 6)
                           for _ in range(rng.randint(0, 6))]
        e1 = [0.0] * b1 + [rng.uniform(0.05, 6)
                           for _ in range(rng.randint(0, 6))]
        l0, l1 = spectral_lprime(e0, e1)
        ok &= residue_at(l1, 0) == 2 * (b1 - b0)
        z = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
        ok &= abs(evaluate(l1, -z) + evaluate(l1, z)) < 1e-10
        ok &= abs(evaluate(l0, 1 + z) + evaluate(l0, 1 - z)) < 1e-10
    _verdict(7, ok, "50 random eigenvalue lists: oddness, residue "
                    "2(b1-b0) exact, functional equation to 1e-10")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_order_formula_coherence():
    from cuspedzeta.verdict import l2_betti, ruelle_order_prediction
    ok = True
    for h0 in (0, 1):
        for h1 in range(11):
            for delta in (False, True):
                if h0 == 1 and not delta:
                    continue
                if delta and h1 < 1:
                    # no manifold: triviality on the cusp forces h1 >= 1
                    with pytest.raises(CuspedZetaError):
                        ruelle_order_prediction(h0, h1, delta)
                    continue
                b0, b1 = l2_betti(h0, h1, delta)
                ok &= ruelle_order_prediction(h0, h1, delta) \
                    == 2 * (2 * b0 - b1)
    _verdict(8, ok, "branch formula agrees with 2(2 beta0 - beta1) "
                    "exhaustively, exact integers")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_end_to_end(capsys):
    t0 = time.perf_counter()
    code5 = cli_run(["verify", str(FIXTURES / "fig8_zeta5.pres")])
    out5 = capsys.readouterr().out
    code1 = cli_run(["verify", str(FIXTURES / "fig8.pres")])
    out1 = capsys.readouterr().out
    d5, d1 = json.loads(out5), json.loads(out1)
    ok = code5 == 0 and d5["inequalityHolds"] is True
    ok &= code1 == 2
    ok &= d1["predictedRuelleOrder"] == 4
    ok &= d1["alexanderOrder"] == 1
    # the informational 4-vs-4 agreement: 2(1 + ord) meets the prediction
    ok &= 2 * (1 + d1["alexanderOrder"]) == d1["predictedRuelleOrder"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    with capsys.disabled():
        _verdict(9, ok, f"verify exits 0 (zeta5) and 2 (trivial, 4-vs-4 "
                        f"informational), {elapsed:.2f}s")
