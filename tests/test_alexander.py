"""Twisted Alexander invariants on the knot-group fixtures and the
torus knots T(2, k).

All equalities here are exact (cyclotomic-rational arithmetic).  Two
oracles check the Smith-form route without going through it: Wada's
determinant identity on deficiency-one presentations (`wada_oracle`),
and the classical closed form (t^k + 1)/(t + 1) for T(2, k).  A third,
`h1_oracle`, keeps the earlier kernel-basis and t = 1 rank routes, and
`laurent_oracle` takes the Smith form of T(2, k) on one cyclotomic
number per coefficient, and the gcd of the augmentation column that
char0 was before it was read from the character.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspedzeta import alexander
from cuspedzeta.alexander import (_homology, alexander_invariant,
                                  build_complex, twisted_betti)
from cuspedzeta.errors import CuspedZetaError
from cuspedzeta.laurent import LaurentPoly, format_poly, ord_at_one, smith_form
from cuspedzeta.presentation import (Epsilon, GroupPresentation, UnitCharacter,
                                     parse_presentation)
from cuspedzeta.verdict import main_conjecture_report

import h1_oracle
import laurent_oracle
from cyclotomic_oracle import CyclotomicNumber
from conftest import read_fixture
from wada_oracle import unit_equal, wada_holds


def load(name):
    return parse_presentation(read_fixture(name))


@pytest.mark.parametrize("name,char1_coeffs", [
    ("trefoil.pres", [1, -1, 1]),
    ("fig8.pres", [1, -3, 1]),
])
def test_trivial_character_fixtures(name, char1_coeffs):
    p, eps, rho = load(name)
    data = alexander_invariant(p, rho, eps)
    expected = LaurentPoly.from_int_coeffs(rho.modulus, char1_coeffs)
    assert unit_equal(data.char1, expected)
    assert unit_equal(data.char0, LaurentPoly.from_int_coeffs(rho.modulus, [-1, 1]))
    assert data.char2 == LaurentPoly.one(rho.modulus)
    assert data.ord_at_one == 1
    assert data.h0 == 1 and data.h1 == 1
    assert data.h0_infinity_vanishes is False
    assert wada_holds(p, rho, eps, data)


@pytest.mark.parametrize("name", ["trefoil_zeta5.pres", "fig8_zeta5.pres"])
def test_zeta5_fixtures(name):
    p, eps, rho = load(name)
    data = alexander_invariant(p, rho, eps)
    # nontrivial character: the t = 1 fiber of degree-zero cohomology vanishes
    assert ord_at_one(data.char0) == 0
    assert data.h0 == 0
    assert data.h0_infinity_vanishes is True
    # the order inequality, with equality expected when semisimple at t = 1
    assert data.ord_at_one <= -data.h1
    if p.peripheral_words:  # trefoil_zeta5.pres has none, so no report
        report, _ = main_conjecture_report(p, rho, eps)
        assert report["inequalityHolds"] is True
        assert report["equalityExpected"] is data.semisimple_at_one
    if data.semisimple_at_one:
        assert data.ord_at_one == -data.h1
    assert wada_holds(p, rho, eps, data)


def test_ord_matches_divisor_factorization():
    for name in ("trefoil.pres", "fig8.pres", "fig8_zeta5.pres"):
        p, eps, rho = load(name)
        data = alexander_invariant(p, rho, eps)
        direct = ord_at_one(data.char0) + ord_at_one(data.char2) \
            - ord_at_one(data.char1)
        assert data.ord_at_one == direct
        prod = LaurentPoly.one(rho.modulus)
        for d in data.h1_divisors:
            prod = prod * d
        assert unit_equal(prod, data.char1)


def test_betti_matches_invariant():
    for name in ("trefoil.pres", "fig8.pres", "trefoil_zeta5.pres",
                 "fig8_zeta5.pres"):
        p, eps, rho = load(name)
        data = alexander_invariant(p, rho, eps)
        assert twisted_betti(p, rho) == (data.h0, data.h1)


def test_nonvanishing_h0_leaves_the_comparison_informational():
    p, eps, rho = load("fig8.pres")
    assert alexander_invariant(p, rho, eps).h0_infinity_vanishes is False
    report, code = main_conjecture_report(p, rho, eps)
    assert report["corollaryBranch"] == "hypothesisNotMet"
    assert code == 2


# --- modules that are not torsion ------------------------------------------

TREFOIL_TWICE = "gens a b\nrel abaBAB\nrel abaBAB\neps 1 1\nrho n={n}: {e} {e}\n"


@pytest.mark.parametrize("text,which", [
    ("gens a b\neps 1 1\nrho n=1: 0 0\n", "H1"),
    (TREFOIL_TWICE.format(n=1, e=0), "H2"),
    (TREFOIL_TWICE.format(n=5, e=1), "H2"),
], ids=["free-group", "trefoil-relator-twice", "trefoil-relator-twice-zeta5"])
def test_not_torsion(text, which):
    p, eps, rho = parse_presentation(text)
    with pytest.raises(CuspedZetaError,
                       match=f"^module {which} is not torsion$"):
        alexander_invariant(p, rho, eps)


def test_complex_condition_violation():
    """The relator ab is not killed by eps = (1, 1), which the parser
    refuses; built directly, its Fox row times d0 is t^2 - 1, not 0."""
    p = GroupPresentation(("a", "b"), (((0, 1), (1, 1)),))
    rho, eps = UnitCharacter(1, (0, 0)), Epsilon((1, 1))
    for build in (build_complex, alexander_invariant):
        with pytest.raises(CuspedZetaError, match="augmentation column is nonzero"):
            build(p, rho, eps)


@pytest.mark.parametrize("name", ["fig8.pres", "fig8_zeta5.pres", "trefoil_zeta5.pres"])
def test_complex_check_refuses_each_changed_fox_entry(monkeypatch, name):
    """d1 d0 = 0 is checked on one integer table per relator: adding 1 to
    any one Fox derivative adds the nonzero d0 entry of its generator."""
    p, eps, rho = load(name)
    build_complex(p, rho, eps)
    fox_row = alexander.fox_row
    for target in p.relators:
        for j in range(p.arity):
            def changed(word, rho, eps, target=target, j=j):
                row = fox_row(word, rho, eps)
                if word is target:
                    row[j] += LaurentPoly.one(rho.modulus)
                return row
            monkeypatch.setattr(alexander, "fox_row", changed)
            with pytest.raises(CuspedZetaError, match="augmentation column is nonzero"):
                build_complex(p, rho, eps)


# --- torus knots T(2, k) ---------------------------------------------------

def torus_knot(k, n, e):
    """Wirtinger presentation of T(2, k), the closure of the 2-braid
    sigma^k, with character zeta_n^e on every meridian: arcs x_0..x_{k-1}
    with x_{i+1} = x_i x_{i-1} x_i^{-1}, the last relation left out."""
    names = "abcdefghijklmnopqrstuvwxyz"[:k]
    rels = [names[i] + names[i - 1] + names[i].upper() + names[(i + 1) % k].upper()
            for i in range(k - 1)]
    text = "\n".join(["gens " + " ".join(names)] + ["rel " + r for r in rels]
                     + ["eps " + " ".join("1" * k),
                        f"rho n={n}: " + " ".join([str(e)] * k)]) + "\n"
    return parse_presentation(text)


def torus_alexander(k, n, e):
    """Delta_k(zeta^e t) with Delta_k = (t^k + 1)/(t + 1) = sum (-t)^j."""
    return laurent_oracle.to_library(laurent_oracle.LaurentPoly(
        n, 0, [CyclotomicNumber.zeta_power(n, e * j) * (-1) ** j for j in range(k)]))


def torus_vanishes_at_one(k, n, e):
    """Delta_k(zeta^e) = 0: zeta^e is a root of t^k = -1 other than -1."""
    return 2 * (e * k % n) == n and 2 * (e % n) != n


# trivial, order-5 and order-3 characters on every k, plus characters at
# which Delta_k vanishes (zeta^e of order 6, 10 or 14)
TORUS_CASES = [(k, n, e) for k in range(3, 22, 2)
               for n, e in ((1, 0), (5, 1 + k % 4), (3, 1 + k % 2))] \
    + [(3, 6, 1), (9, 6, 5), (15, 6, 1), (21, 6, 1), (5, 10, 3), (15, 10, 7),
       (7, 14, 3)]


@pytest.mark.parametrize("k,n,e", TORUS_CASES)
def test_torus_knot_closed_form(k, n, e):
    p, eps, rho = torus_knot(k, n, e)
    data = alexander_invariant(p, rho, eps)
    assert unit_equal(data.char1, torus_alexander(k, n, e))
    if e % n == 0:
        assert (data.ord_at_one, data.h1) == (1, 1)
    else:
        vanish = int(torus_vanishes_at_one(k, n, e))
        assert (data.ord_at_one, data.h1) == (-vanish, vanish)
    if k <= 11:
        # every deleted column gives the same invariant; the fixtures test all
        assert wada_holds(p, rho, eps, data, columns=[k - 1])


@pytest.mark.parametrize("k", range(3, 18))
def test_torus_smith_form_matches_the_per_coefficient_route(k):
    """The Smith form of the Fox matrix of T(2, k) equals the one that
    `laurent_oracle` computes on one cyclotomic number per coefficient."""
    n = (1, 3, 5, 7)[k % 4]
    p, eps, rho = torus_knot(k, n, 1 % n)
    d1, _ = build_complex(p, rho, eps)
    want = laurent_oracle.smith_form([[laurent_oracle.from_library(x) for x in row]
                                      for row in d1])
    assert [format_poly(d) for d in smith_form(d1)] == \
        [laurent_oracle.format_poly(d) for d in want]


# --- one Smith form against the earlier routes ------------------------------

ORACLE_TEXTS = {
    "free-group": "gens a b\neps 1 1\nrho n=1: 0 0\n",
    "free-group-zeta3": "gens a b c\neps 1 0 1\nrho n=3: 1 2 0\n",
    "one-generator": "gens a\neps 1\nrho n=1: 0\n",
    "one-generator-zeta5": "gens a\neps 1\nrho n=5: 2\n",
    "one-generator-relator": "gens a\nrel aA\neps 1\nrho n=1: 0\n",
    "trefoil-relator-twice": TREFOIL_TWICE.format(n=1, e=0),
    "trefoil-relator-twice-zeta5": TREFOIL_TWICE.format(n=5, e=1),
}
# the two-component links T(2, k), k even, next to the knots
ORACLE_INPUTS = {
    **{name: functools.partial(load, name)
       for name in ("trefoil.pres", "fig8.pres", "trefoil_zeta5.pres",
                    "fig8_zeta5.pres")},
    **{name: functools.partial(parse_presentation, text)
       for name, text in ORACLE_TEXTS.items()},
    **{f"T(2,{k})-n{n}-e{e}": functools.partial(torus_knot, k, n, e)
       for k, n, e in TORUS_CASES + [(k, n, e) for k in (2, 4, 6)
                                     for n, e in ((1, 0), (3, 1), (4, 2), (5, 2))]},
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_h1_and_betti_match_old_routes(name):
    """The padded Smith form of d1 gives the H1 divisors of the kernel-
    basis route, each with its order at t = 1, and the (h0, h1) of the
    t = 1 rank route, also where H1 or H2 is not torsion."""
    p, eps, rho = ORACLE_INPUTS[name]()
    c = build_complex(p, rho, eps)
    want_divisors = h1_oracle._h1_divisors(*c)
    want_betti = h1_oracle.twisted_betti(p, rho)
    assert twisted_betti(p, rho) == want_betti
    divisors, orders, h0, h1 = _homology(*c, rho)
    assert orders == tuple(ord_at_one(d) for d in divisors)
    try:
        data = alexander_invariant(p, rho, eps)
    except CuspedZetaError as exc:
        which = "H1" if any(d.is_zero() for d in want_divisors) else "H2"
        assert str(exc) == f"module {which} is not torsion"
    else:
        assert repr((data.h1_divisors, data.h0, data.h1)) == repr((divisors, h0, h1))
    assert repr(divisors) == repr(want_divisors)
    assert (h0, h1) == want_betti


# --- H0 from the character ---------------------------------------------------

@st.composite
def character_pair(draw):
    """(n, eps, rho) on 2 or 3 generators: eps_j in -2..2 with gcd 1 and
    eps_0 != 0, and rho either c eps mod n with c != 0 or drawn freely."""
    n, g = draw(st.integers(1, 12)), draw(st.sampled_from((2, 3)))
    eps = draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g).filter(
        lambda e: e[0] and math.gcd(*e) == 1))
    if n > 1 and draw(st.booleans()):
        c = draw(st.integers(1, n - 1))
        return n, eps, [c * e % n for e in eps]
    return n, eps, draw(st.lists(st.integers(0, n - 1), min_size=g, max_size=g))


@settings(max_examples=150, deadline=None)
@given(character_pair())
@example((5, [1, 1], [1, 1]))  # c = 1: char0 is t - zeta^4
@example((7, [2, -1, 1], [4, 5, 2]))  # c = 2
@example((6, [1, 2], [0, 1]))  # no c
@example((3, [1, 0], [0, 0]))  # trivial
def test_char0_is_the_gcd_of_the_augmentation_column(case):
    """char0, read from the character, is the normalized gcd of the d0
    entries, taken by `laurent_oracle`, on the torus group (two
    generators) or Z x F2 with the first generator central (three), whose
    H1 is torsion as eps_0 != 0."""
    n, eps, rho = case
    names = "abc"[:len(eps)]
    rels = "".join(f"rel a{x}A{x.upper()}\n" for x in names[1:])
    p, eps, rho = parse_presentation(
        f"gens {' '.join(names)}\n{rels}eps {' '.join(map(str, eps))}\n"
        f"rho n={n}: {' '.join(map(str, rho))}\n")
    data = alexander_invariant(p, rho, eps)
    _, d0 = build_complex(p, rho, eps)
    want = laurent_oracle.determinantal_divisor(
        [[laurent_oracle.from_library(x)] for x in d0], 1)
    assert data.char0 == laurent_oracle.to_library(want)
    assert data.h0_infinity_vanishes is (not rho.is_trivial)
