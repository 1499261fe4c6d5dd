"""The integer cyclotomic arithmetic against the rational oracle in
`cyclotomic_oracle`: the same sums, products, inverses, equalities
and printed forms on random rational coefficients."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.cyclotomic import CyclotomicNumber, cyclotomic_polynomial

import cyclotomic_oracle as oracle

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


def agree(new, old):
    assert repr(new) == repr(old)
    # stored in lowest terms, so building from the oracle's coefficients
    # gives the same numerators, denominator and hash
    rebuilt = CyclotomicNumber(new.n, old.coeffs)
    assert (new.num, new.den) == (rebuilt.num, rebuilt.den)
    assert new == rebuilt and hash(new) == hash(rebuilt)
    assert new.den > 0


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_arithmetic_matches_the_rational_oracle(case):
    n, a, b = case
    x, y = CyclotomicNumber(n, a), CyclotomicNumber(n, b)
    ox, oy = oracle.CyclotomicNumber(n, a), oracle.CyclotomicNumber(n, b)
    agree(x, ox)
    agree(x + y, ox + oy)
    agree(x - y, ox - oy)
    agree(-x, -ox)
    agree(x * y, ox * oy)
    agree(x * 2, ox * 2)
    assert (x == y) == (ox == oy)
    assert x.is_zero() == ox.is_zero()
    if not ox.is_zero():
        agree(x.inverse(), ox.inverse())
        agree(y * x.inverse(), oy * ox.inverse())


def test_cyclotomic_polynomials_match_the_oracle():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == oracle.cyclotomic_polynomial(n)
