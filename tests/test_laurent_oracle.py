"""The integer-table Laurent arithmetic against the per-coefficient
oracle in `laurent_oracle`: the same sums, products, quotients,
remainders, gcds, normal forms, zeros at t = 1 and orders there, on
seeded random polynomials shaped like the entries of a twisted Fox
matrix."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.cyclotomic import euler_phi
from cuspedzeta.laurent import LaurentPoly, format_poly, ord_at_one

import cyclotomic_oracle
import laurent_oracle as oracle


def _terms(rng, n):
    """Up to five terms c * zeta^a * t^k, |c| <= 2, k in -2..3, with a
    rational c now and then; terms may share a power of t."""
    out = []
    for _ in range(rng.randint(1, 5)):
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.15:
            c = Fraction(c, rng.choice((2, 3)))
        out.append((c, rng.randrange(n), rng.randint(-2, 3)))
    return out


def _build(n, terms):
    """The library polynomial and the oracle polynomial of one term list."""
    lib, orc = LaurentPoly.zero(n), oracle.LaurentPoly.zero(n)
    for c, a, k in terms:
        coeffs = [0] * a + [c]
        term = oracle.LaurentPoly(n, k, [cyclotomic_oracle.CyclotomicNumber(n, coeffs)])
        lib, orc = lib + oracle.to_library(term), orc + term
    return lib, orc


def agree(lib, orc):
    assert format_poly(lib) == oracle.format_poly(orc)
    # stored in lowest terms, so the oracle's coefficients rebuild the
    # same table, denominator and hash
    rebuilt = oracle.to_library(orc)
    assert (lib.low, lib.rows, lib.den) == (rebuilt.low, rebuilt.rows, rebuilt.den)
    assert lib == rebuilt and hash(lib) == hash(rebuilt)
    assert lib.den > 0


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_arithmetic_matches_the_per_coefficient_oracle(n):
    rng = random.Random(700 + n)
    tm1 = _build(n, [(-1, 0, 0), (1, 0, 1)])
    for _ in range(60):
        (f, of), (g, og), (h, oh) = (_build(n, _terms(rng, n)) for _ in range(3))
        if rng.random() < 0.5:
            # a common factor for gcd, and a zero of some order at t = 1
            f, of = f * h, of * oh
            g, og = g * h * tm1[0], og * oh * tm1[1]
        for lib, orc in ((f, of), (g, og)):
            agree(lib, orc)
            agree(-lib, -orc)
            agree(lib.normalize(), orc.normalize())
            assert (ord_at_one(lib) > 0) == orc.at_one().is_zero()
            if not orc.is_zero():
                assert ord_at_one(lib) == oracle.ord_at_one(orc)
        agree(f + g, of + og)
        agree(f - g, of - og)
        agree(f - f, of - of)
        agree(f * g, of * og)
        if not og.is_zero():
            (q, r), (oq, orr) = f.divmod(g), of.divmod(og)
            agree(q, oq)
            agree(r, orr)
        agree(f.gcd(g), of.gcd(og))


@st.composite
def dividend_and_unit(draw):
    """(n, terms of a dividend for `_build`, the power-basis coefficients
    of a nonzero c, k): the unit is c t^k."""
    n = draw(st.sampled_from((1, 3, 5, 7)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = draw(st.lists(st.tuples(small, st.integers(0, n - 1), st.integers(-2, 3)),
                          max_size=5))
    c = draw(st.lists(small, min_size=euler_phi(n), max_size=euler_phi(n)).filter(any))
    return n, terms, c, draw(st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(dividend_and_unit())
def test_division_by_a_unit_matches_the_oracle(case):
    n, terms, c, k = case
    a, oa = _build(n, terms)
    ou = oracle.LaurentPoly(n, k, [cyclotomic_oracle.CyclotomicNumber(n, c)])
    u = oracle.to_library(ou)
    (q, r), (oq, orr) = a.divmod(u), oa.divmod(ou)
    agree(q, oq)
    agree(r, orr)
    assert r.is_zero() and (a % u).is_zero()
    assert q * u == a


@st.composite
def times_power_of_t_minus_one(draw):
    """(n, terms of f for `_build`, k): the input f (t - 1)^k, k <= 4, with
    terms down to t^-4 so that low is often negative."""
    n = draw(st.sampled_from((1, 3, 5, 7)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = draw(st.lists(st.tuples(small, st.integers(0, n - 1), st.integers(-4, 3)),
                          max_size=5))
    return n, terms, draw(st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(times_power_of_t_minus_one())
def test_taylor_order_matches_repeated_division(case):
    """`ord_at_one` reads the order from Taylor sums; the oracle divides
    by t - 1 until the value at 1 is nonzero."""
    n, terms, k = case
    f, of = _build(n, terms)
    tm1, otm1 = _build(n, [(-1, 0, 0), (1, 0, 1)])
    for _ in range(k):
        f, of = f * tm1, of * otm1
    if of.is_zero():
        assert ord_at_one(f) == math.inf
    else:
        assert ord_at_one(f) == oracle.ord_at_one(of) >= k
    assert ord_at_one(LaurentPoly.zero(n)) == math.inf
