"""Cyclotomic field arithmetic and Laurent-polynomial linear algebra."""

import cmath
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.cyclotomic import cyclotomic_polynomial, euler_phi, invert
from cuspedzeta.laurent import LaurentPoly, format_poly, ord_at_one, smith_form

import laurent_oracle
from cyclotomic_oracle import CyclotomicNumber
from laurent_oracle import from_library, to_library
from smith_oracle import smith_form_per_pivot


def poly(n, low, coeffs):
    """The library polynomial sum coeffs[i] t^(low+i), for oracle
    cyclotomic numbers coeffs."""
    return to_library(laurent_oracle.LaurentPoly(n, low, coeffs))


def constant(x: CyclotomicNumber) -> LaurentPoly:
    return poly(x.n, 0, [x])


def to_complex(p: LaurentPoly) -> complex:
    """The value of a constant polynomial under zeta -> e^(2 pi i / n)."""
    assert p.is_zero() or (p.low, p.span) == (0, 0)
    z = cmath.exp(2j * math.pi / p.n)
    return sum(c / p.den * z ** k for row in p.rows for k, c in enumerate(row))

# --- cyclotomic numbers, as constant polynomials ----------------------------

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == tuple(Fraction(c) for c in coeffs)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


def test_zeta_power_order():
    z = constant(CyclotomicNumber.zeta_power(5, 1))
    acc = LaurentPoly.one(5)
    for _ in range(5):
        acc = acc * z
    assert acc == LaurentPoly.one(5)
    # sum of all 5th roots of unity vanishes
    total = LaurentPoly.zero(5)
    for k in range(5):
        total = total + constant(CyclotomicNumber.zeta_power(5, k))
    assert total.is_zero()


def test_field_inverse():
    rng = random.Random(7)
    for n in (3, 5, 8, 12):
        for _ in range(5):
            x = constant(CyclotomicNumber(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                              for _ in range(euler_phi(n))]))
            if x.is_zero():
                continue
            inum, iden = invert(n, x.rows[0], x.den)
            assert x * LaurentPoly.from_rows(n, 0, [inum], iden) == LaurentPoly.one(n)


def test_complex_embedding():
    z = constant(CyclotomicNumber.zeta_power(12, 1))
    assert abs(to_complex(z) - cmath.exp(1j * math.pi / 6)) < 1e-14


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=4))
def test_cyclotomic_ring_axioms(a, b):
    x = constant(CyclotomicNumber(5, a))
    y = constant(CyclotomicNumber(5, b))
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x
    assert abs(to_complex(x * y) - to_complex(x) * to_complex(y)) < 1e-10


# --- Laurent polynomials ---------------------------------------------------

def P(coeffs, low=0, n=1):
    return LaurentPoly.from_int_coeffs(n, coeffs, low)


def test_trim_and_units():
    assert P([0, 0, 1], low=-1).low == 1
    assert P([3], low=-2).is_unit()
    assert not P([1, 1]).is_unit()
    assert P([], low=5).is_zero()


def test_divmod_and_gcd():
    a = P([-1, 0, 1])           # t^2 - 1
    b = P([-1, 1])              # t - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q == P([1, 1])
    assert a.gcd(P([1, 1])) == P([1, 1])
    assert a.gcd(P([1, 1, 1])).is_unit()


def test_ord_at_one_known_values():
    assert ord_at_one(P([-1, 1])) == 1
    assert ord_at_one(P([1, -2, 1])) == 2
    assert ord_at_one(P([1, 1, 1])) == 0
    assert ord_at_one(P([1, -2, 1], low=-5)) == 2
    assert ord_at_one(LaurentPoly.zero(1)) == math.inf


small_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(
    lambda c: any(c)).map(lambda c: P(c))


@settings(max_examples=60, deadline=None)
@given(small_poly, small_poly)
def test_ord_at_one_additive(f, g):
    assert ord_at_one(f * g) == ord_at_one(f) + ord_at_one(g)


def test_format_round_stability():
    p = P([1, -3, 1], low=-1)
    assert format_poly(p) == "[1]@1*t^-1 + [-3]@1*t^0 + [1]@1*t^1"


# --- Smith normal form -----------------------------------------------------

def _mat(rows, n=1):
    return [[P(c, n=n) if isinstance(c, list) else c for c in row] for row in rows]


def test_smith_diagonal_example():
    m = _mat([[[ -1, 1], []], [[], [1, -2, 1]]])
    d = smith_form(m)
    assert d[0] == P([-1, 1]).normalize()
    assert d[1] == P([1, -2, 1]).normalize()


def test_smith_divisibility_chain():
    rng = random.Random(11)
    for _ in range(8):
        m = _mat([[ [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
                    for _ in range(3)] for _ in range(3)])
        d = smith_form(m)
        for a, b in zip(d, d[1:]):
            if a.is_zero():
                assert b.is_zero()
            elif not b.is_zero():
                assert a.divides(b)


def _unimodular_ops(m, rng):
    """Apply random elementary row/column operations (unit pivots)."""
    e = [row[:] for row in m]
    n = e[0][0].n
    t = LaurentPoly.from_int_coeffs(n, [0, 1])
    for _ in range(6):
        i, j = rng.sample(range(len(e)), 2)
        f = LaurentPoly.from_int_coeffs(n, [rng.randint(-2, 2)]) * \
            (t if rng.random() < 0.5 else LaurentPoly.one(n))
        if rng.random() < 0.5:
            e[i] = [a + f * b for a, b in zip(e[i], e[j])]
        else:
            for row in e:
                row[i] = row[i] + f * row[j]
    return e


def test_smith_invariant_under_unimodular_ops():
    rng = random.Random(23)
    for _ in range(5):
        m = _mat([[ [rng.randint(-2, 2), rng.randint(-2, 2)]
                    for _ in range(3)] for _ in range(3)])
        d1 = smith_form(m)
        d2 = smith_form(_unimodular_ops(m, rng))
        assert [p.normalize() for p in d1] == [p.normalize() for p in d2]


def test_smith_rank_deficiency_gives_zero_divisor():
    row = P([-1, 1])
    m = _mat([[[ -1, 1], [-1, 1]], [[-1, 1], [-1, 1]]])
    d = smith_form(m)
    assert not d[0].is_zero()
    assert d[1].is_zero()


# --- Smith form against the per-pivot oracle -------------------------------

def _random_poly(rng, n):
    """Zero, or up to three terms c * zeta^a * t^k with |c| <= 2, like
    the entries of a twisted Fox matrix."""
    if rng.random() < 0.4:
        return LaurentPoly.zero(n)
    return poly(n, rng.randint(-1, 1),
                [CyclotomicNumber.zeta_power(n, rng.randrange(n)) * rng.randint(-2, 2)
                 for _ in range(rng.randint(1, 3))])


def _scrambled_diagonal(rng, n, rows, cols):
    """(D, U D V): D is diagonal with products of factors t -+ zeta^a,
    drawn out of divisibility order (some zero), and U, V are products
    of elementary operations with multipliers +-t^k."""
    z = LaurentPoly.zero(n)
    diag = []
    for _ in range(min(rows, cols)):
        d = LaurentPoly.one(n) if rng.random() < 0.85 else z
        for _ in range(rng.randint(0, 3)):
            d = d * poly(n, 0, [CyclotomicNumber.zeta_power(n, rng.randrange(n))
                                * rng.choice((-1, 1)), CyclotomicNumber(n, [1])])
        diag.append(d)
    e = [[diag[i] if i == j else z for j in range(cols)] for i in range(rows)]
    d_matrix = [row[:] for row in e]
    for _ in range(2):
        f = LaurentPoly.from_int_coeffs(n, [rng.choice((-1, 1))], low=rng.randint(-1, 1))
        if rows > 1:
            i, j = rng.sample(range(rows), 2)
            e[i] = [a + f * b for a, b in zip(e[i], e[j])]
        if cols > 1:
            i, j = rng.sample(range(cols), 2)
            for row in e:
                row[i] = row[i] + f * row[j]
    return d_matrix, e


def _assert_matches_oracle(m, oracle_input=None):
    want = smith_form_per_pivot([[from_library(p) for p in row]
                                 for row in (m if oracle_input is None else oracle_input)])
    assert repr(smith_form(m)) == repr(want)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_smith_matches_per_pivot_oracle_on_random_matrices(n):
    """Random matrices go to both routes as they are.  A scrambled
    diagonal U D V goes to the oracle as D: the oracle's row additions
    can blow up the coefficients of U D V (one 4 x 3 case over Q(zeta_5)
    takes it 37 s, against 0.02 s here), and U, V do not change the
    divisors."""
    rng = random.Random(100 + n)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        _assert_matches_oracle(
            [[_random_poly(rng, n) for _ in range(cols)] for _ in range(rows)])
        d_matrix, scrambled = _scrambled_diagonal(rng, n, rows, cols)
        _assert_matches_oracle(d_matrix)
        _assert_matches_oracle(scrambled, oracle_input=d_matrix)


def test_smith_gcd_lcm_repair_cases():
    tm1, tp1, cyc3 = P([-1, 1]), P([1, 1]), P([1, 1, 1])
    z = LaurentPoly.zero(1)
    d = smith_form([[tm1, z], [z, tp1]])
    assert d == [LaurentPoly.one(1), P([-1, 0, 1])]
    d = smith_form([[tm1 * tm1, z, z], [z, tm1 * tp1, z], [z, z, cyc3]])
    assert d == [LaurentPoly.one(1), tm1, (tm1 * tm1 * tp1 * cyc3).normalize()]
    for diag in ([tm1, tp1], [tm1 * tm1, tm1 * tp1, cyc3], [cyc3, tm1, cyc3 * tm1],
                 [tp1 * tp1, tm1, tp1 * tm1, cyc3]):
        size = len(diag)
        m = [[diag[i] if i == j else z for j in range(size)] for i in range(size)]
        _assert_matches_oracle(m)
        _assert_matches_oracle(_unimodular_ops(m, random.Random(size)))
    # the same repair over Q(zeta_5), with t - zeta and t - zeta^2
    z5 = LaurentPoly.zero(5)
    a = poly(5, 0, [-CyclotomicNumber.zeta_power(5, 1), CyclotomicNumber(5, [1])])
    b = poly(5, 0, [-CyclotomicNumber.zeta_power(5, 2), CyclotomicNumber(5, [1])])
    _assert_matches_oracle([[a * a, z5], [z5, a * b]])


def test_smith_rank_deficient_matches_oracle():
    rng = random.Random(31)
    for n in (1, 3, 5):
        for short, long in ((2, 2), (3, 3), (3, 4), (4, 5)):
            base = [[_random_poly(rng, n) for _ in range(long)] for _ in range(short - 1)]
            f = _random_poly(rng, n)
            e = base + [[x * f for x in base[0]]]
            for m in (e, [list(col) for col in zip(*e)]):
                assert smith_form(m)[-1].is_zero()
                _assert_matches_oracle(m)
    assert smith_form([[LaurentPoly.zero(3)] * 3 for _ in range(2)]) == [LaurentPoly.zero(3)] * 2


# --- dense Smith forms against the determinantal divisors -----------------

def _dense(seed, n=5, rows=4, cols=5):
    """A dense rows x cols matrix over Q(zeta_n): each entry is zero with
    probability 0.15, and otherwise spans one to three consecutive
    heights from low in -1..1, each height holding one count in -2..2 of
    one power of zeta_n."""
    rng = random.Random(seed)
    m = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append(LaurentPoly.zero(n))
                continue
            low = rng.randint(-1, 1)
            counts = {}
            for h in range(low, low + rng.randint(1, 3)):
                c = counts[h] = [0] * n
                c[rng.randrange(n)] += rng.randint(-2, 2)
            row.append(LaurentPoly.from_zeta_counts(n, counts))
        m.append(row)
    return m


DENSE_SECONDS = 2.0


def _smith_form_within(seconds, m):
    """smith_form(m), or TimeoutError once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"smith_form took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return smith_form(m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", range(1, 41))
def test_dense_smith_form_matches_determinantal_divisors(seed):
    """An elimination that ran its column pass on every row, also while
    the pivot column still had entries below the pivot, grew numerators
    past 33,000 bits on seeds 2, 18, 29, 30 and 36 and did not finish;
    every seed now takes milliseconds.  The first
    divisor must be the gcd of the entries and the product of all of
    them the gcd of the 4 x 4 minors; seeds 1 and 3-8 must also match
    the per-pivot oracle.  Only seeds 16 and 20 have a divisor that is
    not a unit, and none needs the gcd/lcm repair, which
    `test_smith_gcd_lcm_repair_cases` covers."""
    m = _dense(seed)
    got = _smith_form_within(DENSE_SECONDS, m)
    oracle_m = [[from_library(p) for p in row] for row in m]
    divisors = [from_library(d) for d in got]
    assert divisors[0] == laurent_oracle.determinantal_divisor(oracle_m, 1)
    product = laurent_oracle.LaurentPoly.one(5)
    for d in divisors:
        product = product * d
    assert product == laurent_oracle.determinantal_divisor(oracle_m, len(m))
    if seed == 1 or 3 <= seed <= 8:
        assert repr(got) == repr(smith_form_per_pivot(oracle_m))


def _dense_zeta3(seed, rows=6, cols=7):
    """A dense rows x cols matrix over Q(zeta_3): each entry is zero with
    probability 0.15, and otherwise has its lowest height in -1..1 and
    one to three rows of phi(3) numerators in -2..2."""
    rng = random.Random(seed)
    m = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append(LaurentPoly.zero(3))
                continue
            low = rng.randint(-1, 1)
            numerators = [[rng.randint(-2, 2) for _ in range(euler_phi(3))]
                          for _ in range(rng.randint(1, 3))]
            row.append(LaurentPoly.from_rows(3, low, numerators))
        m.append(row)
    return m


@pytest.mark.xfail(strict=True, raises=TimeoutError,
                   reason="smith_form never clears the content of a pivot "
                          "row, so its coefficients grow without bound")
def test_dense_6x7_smith_form_over_zeta3_finishes():
    """Seeds 0 and 4 of `_dense_zeta3` finish in well under a second;
    seed 1 takes about 15 s on a 2-CPU machine.  A fix that keeps the
    coefficients small must finish it in 2 s and so flip this test."""
    _smith_form_within(DENSE_SECONDS, _dense_zeta3(1))
