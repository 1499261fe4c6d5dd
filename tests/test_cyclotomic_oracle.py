"""The integer arithmetic mod Phi_n and the inverse against the
rational oracle in `cyclotomic_oracle`: the same reductions, products,
inverses and quotients on random rational coefficients and on every
root of unity, the same sums, equalities and printed forms of the
constant polynomials that `laurent` stores them as, and `laurent.dot`,
the Smith row update a - q b and sums of products, against
`laurent_oracle`."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.cyclotomic import cyclotomic_polynomial, divmod_monic, invert, mulmod
from cuspedzeta.laurent import LaurentPoly, dot, format_poly

import cyclotomic_oracle as oracle
import laurent_oracle

MODULI = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15, 16, 30)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def pairs(draw):
    """Two coefficient lists of one modulus, sometimes longer than phi(n)
    so that the reduction mod Phi_n runs, sometimes sharing values so
    that equal elements occur."""
    n = draw(st.sampled_from(MODULI))
    size = st.integers(0, oracle.euler_phi(n) + 3)
    a = draw(st.lists(rationals, min_size=0, max_size=draw(size)))
    b = a if draw(st.booleans()) else draw(
        st.lists(rationals, min_size=0, max_size=draw(size)))
    return n, a, b


def numerators(x):
    """An oracle element as phi(n) integer numerators over one positive
    denominator, in lowest terms."""
    den = lcm(*(c.denominator for c in x.coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in x.coeffs), den


def constant(x):
    """An oracle element as the library's constant polynomial."""
    return laurent_oracle.to_library(laurent_oracle.LaurentPoly(x.n, 0, [x]))


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_arithmetic_matches_the_rational_oracle(case):
    n, a, b = case
    phi = cyclotomic_polynomial(n)
    ox, oy = oracle.CyclotomicNumber(n, a), oracle.CyclotomicNumber(n, b)
    # a list of any length reduces mod Phi_n as the oracle's does
    d = lcm(*(Fraction(c).denominator for c in a))
    long = [int(c * d) for c in a] + [0] * len(phi)
    assert [Fraction(c, d) for c in divmod_monic(long, phi)[1]] == list(ox.coeffs)
    (xa, dx), (ya, dy) = numerators(ox), numerators(oy)
    assert [Fraction(c, dx * dy) for c in mulmod(xa, ya, phi)] == list((ox * oy).coeffs)
    x, y = constant(ox), constant(oy)
    for lib, orc in ((x, ox), (x + y, ox + oy), (x - y, ox - oy), (-x, -ox),
                     (x * y, ox * oy)):
        assert lib == constant(orc) and lib.den > 0
        if not orc.is_zero():
            assert format_poly(lib) == f"{orc!r}*t^0"
    assert (x == y) == (ox == oy)
    assert x.is_zero() == ox.is_zero()
    if ox.is_zero():
        with pytest.raises(ZeroDivisionError):
            invert(n, xa, dx)
        return
    inum, iden = invert(n, xa, dx)
    assert (inum, iden) == numerators(ox.inverse())
    quotient = [Fraction(c, dy * iden) for c in mulmod(ya, inum, phi)]
    assert quotient == list((oy * ox.inverse()).coeffs)


def test_cyclotomic_polynomials_match_the_oracle():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == oracle.cyclotomic_polynomial(n)


def test_roots_of_unity_invert_as_the_oracle_does():
    """+-zeta^j skips the norm in `invert`, and random draws almost never
    give one: every j < phi(n) and both signs for n <= 60, also stored
    over a denominator (3 zeta^j / 3)."""
    for n in range(1, 61):
        phi = cyclotomic_polynomial(n)
        m = len(phi) - 1
        for j in range(m):
            for sign in (1, -1):
                want = numerators(oracle.CyclotomicNumber(n, [0] * j + [sign]).inverse())
                for den in (1, 3):
                    num = [0] * m
                    num[j] = sign * den
                    inum, iden = invert(n, num, den)
                    assert (inum, iden) == want
                    assert mulmod(num, inum, phi) == [den * iden] + [0] * (m - 1)


@st.composite
def polynomials(draw, count=3):
    """One modulus and `count` oracle polynomials of up to three rational
    coefficients each, with lowest exponents in -2..2."""
    n = draw(st.sampled_from(MODULI))
    size = st.integers(0, oracle.euler_phi(n) + 2)
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.lists(rationals, max_size=draw(size)), max_size=3))
        out.append(laurent_oracle.LaurentPoly(
            n, draw(st.integers(-2, 2)), [oracle.CyclotomicNumber(n, c) for c in coeffs]))
    return n, out


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_one_pass_row_update_and_sums_match_the_product_and_the_oracle(case):
    n, (oa, oq, ob) = case
    a, q, b = (laurent_oracle.to_library(p) for p in (oa, oq, ob))
    got = dot(n, [q], [b], a, -1)
    assert got == a - q * b == laurent_oracle.to_library(oa - oq * ob)
    assert got.den > 0
    assert dot(n, [a, q, b], [b, a, q]) == laurent_oracle.to_library(oa * ob + oq * oa + ob * oq)
    assert dot(n, [q, b], [a, q], a) == laurent_oracle.to_library(oa + oq * oa + ob * oq)
    assert dot(n, [q, b], [a, q], a, -1) == laurent_oracle.to_library(oa - oq * oa - ob * oq)
