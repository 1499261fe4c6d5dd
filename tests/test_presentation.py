"""Presentation-file parsing, Fox calculus, and twisted evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspedzeta.errors import InputError
from cuspedzeta.laurent import LaurentPoly
from cuspedzeta.presentation import (MAX_HEIGHT_SPAN, Epsilon, UnitCharacter, fox_row,
                                     free_reduce, parse_letters, parse_presentation,
                                     peripheral_trivial, serialize_presentation)

import fox_oracle
import laurent_oracle
from conftest import read_fixture
from cyclotomic_oracle import CyclotomicNumber
from fox_oracle import GroupRingElement, evaluate_twisted

def test_round_trip_is_identity():
    for name in ("trefoil.pres", "fig8.pres", "fig8_zeta5.pres"):
        p, eps, rho = parse_presentation(read_fixture(name))
        text = serialize_presentation(p, eps, rho)
        assert parse_presentation(text) == (p, eps, rho)
        assert serialize_presentation(*parse_presentation(text)) == text


def test_comments_and_blank_lines_ignored():
    p1 = parse_presentation(read_fixture("fig8.pres"))
    stripped = "\n".join(
        ln.split("#")[0] for ln in read_fixture("fig8.pres").splitlines()
        if ln.split("#")[0].strip())
    assert parse_presentation(stripped) == p1


@pytest.mark.parametrize("text,fragment,line", [
    ("rel ab\ngens a b\neps 1 1\nrho n=1: 0 0", "before 'gens'", 1),
    ("gens a b\nrel ab!\neps 1 1\nrho n=1: 0 0", "!", 2),
    # the Kelvin sign lowercases to 'k' but is no letter a-z
    ("gens a k\nrel a\u212a\neps 1 0\nrho n=1: 0 0", "unknown generator letter '\u212a'", 2),
    ("gens a b\nrel ab\neps 1 1\nrho 5: 1 1", "rho n=", 4),
    ("gens a b\nrel ab\neps 1 1\nrho n=0: 0 0", "positive", 4),
    ("gens a b\nrel aB\neps 1 1\nrho n=10000000000000000000000: 0 0",
     "rho modulus 10000000000000000000000 is above the limit", 4),
    ("gens a b\nrel aB\neps 1 1\nrho n=1: 0 0\nvol x", "float", 5),
    ("gens a b\nrel aB\neps 1 1\nrho n=1: 0 0\nbogus 1", "bogus", 5),
    # rel and peri lines may repeat, the other keywords not
    ("gens a b\nrel aB\neps 1 1\neps 1 1\nrho n=1: 0 0",
     "repeated 'eps' line, first given on line 3", 4),
    ("gens a b\nrel aB\neps 1 1\nrho n=1: 0 0\nrho n=5: 1 1",
     "repeated 'rho' line, first given on line 4", 5),
    ("gens a b\nrel aB\neps 1 1\nrho n=1: 0 0\nvol 2\nvol 3",
     "repeated 'vol' line, first given on line 5", 6),
])
def test_syntax_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(InputError) as exc:
        parse_presentation(text)
    assert fragment in str(exc.value)
    assert f"line {line}" in str(exc.value)


def test_relator_height_span_is_bounded():
    """The prefix heights of abAB under eps (E, 1) are 0, E, E + 1, 1, 0:
    E + 2 powers of t, each phi(n) integers in a Fox row."""
    text = "gens a b\nrel abAB\neps {} 1\nrho n={}: 1 0\n"
    parse_presentation(text.format(MAX_HEIGHT_SPAN - 2, 1))
    with pytest.raises(InputError) as exc:
        parse_presentation(text.format(MAX_HEIGHT_SPAN - 1, 1))
    assert str(exc.value) == (f"relator 1 (abAB) spans {MAX_HEIGHT_SPAN + 1} powers "
                              f"of t, above the limit {MAX_HEIGHT_SPAN}")
    # phi(499) = 498: a span of 20 is 9,960 integers, and 21 is 10,458
    parse_presentation(text.format(18, 499))
    for e, span in ((19, 21), (MAX_HEIGHT_SPAN - 2, MAX_HEIGHT_SPAN)):
        with pytest.raises(InputError) as exc:
            parse_presentation(text.format(e, 499))
        assert str(exc.value) == (
            f"relator 1 (abAB) spans {span} powers of t, each phi(499) = 498 "
            f"integers, {span * 498} in all, above the limit {MAX_HEIGHT_SPAN}")


def test_validation_failures_are_aggregated():
    # eps misses the relator AND rho is nontrivial on it: one error, both listed
    text = "gens a b\nrel aab\neps 1 1\nrho n=5: 1 1\n"
    with pytest.raises(InputError) as exc:
        parse_presentation(text)
    msg = str(exc.value)
    assert "eps does not kill relator" in msg
    assert "rho is nontrivial on relator" in msg


def test_bad_rho_fixture_rejected():
    with pytest.raises(InputError):
        parse_presentation(read_fixture("bad_rho.pres"))


def test_epsilon_and_character_values():
    p, eps, rho = parse_presentation(read_fixture("fig8_zeta5.pres"))
    assert eps.of(parse_letters("ab", "ab")) == 2
    assert eps.of(parse_letters("aB", "ab")) == 0
    assert rho.modulus == 5 and rho.exponents == (1, 1)
    assert rho.exponent_of(p.relators[0]) == 0


# --- Fox calculus -----------------------------------------------------------

@st.composite
def twisted(draw, max_size=12):
    """A freely reduced word on 1-4 generators with a character mod n
    and heights in [-2, 2]."""
    g = draw(st.integers(1, 4))
    n = draw(st.sampled_from((1, 2, 3, 5, 6, 7, 12)))
    rho = UnitCharacter(n, tuple(draw(st.lists(st.integers(0, n - 1),
                                               min_size=g, max_size=g))))
    eps = Epsilon(tuple(draw(st.lists(st.integers(-2, 2),
                                      min_size=g, max_size=g))))
    letter = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
    word = free_reduce(draw(st.lists(letter, max_size=max_size)))
    return word, rho, eps


def unit(w, rho, eps):
    """rho(w) t^eps(w)."""
    n = rho.modulus
    return laurent_oracle.to_library(laurent_oracle.LaurentPoly(
        n, eps.of(w), [CyclotomicNumber.zeta_power(n, rho.exponent_of(w))]))


def test_fox_derivative_on_generators():
    _, eps, rho = parse_presentation(read_fixture("fig8_zeta5.pres"))
    a, a_inv = ((0, 1),), ((0, -1),)
    da, db = fox_row(a, rho, eps)
    assert da == LaurentPoly.one(5)
    assert db.is_zero()
    da_inv, db_inv = fox_row(a_inv, rho, eps)
    assert da_inv == -unit(a_inv, rho, eps)
    assert db_inv.is_zero()


@settings(max_examples=300, deadline=None)
@given(twisted(max_size=16))
def test_fox_derivative_matches_free_group_ring_oracle(case):
    w, rho, eps = case
    row = fox_row(w, rho, eps)
    assert len(row) == len(rho.exponents)
    for i, got in enumerate(row):
        want = evaluate_twisted(fox_oracle.fox_derivative(w, i), rho, eps)
        assert (got.low, got.rows, got.den) == (want.low, want.rows, want.den)


@settings(max_examples=100, deadline=None)
@given(twisted(max_size=8), st.data())
def test_fox_product_rule(case, data):
    # d(uv) = du + rho(u) t^eps(u) dv
    u, rho, eps = case
    g = len(rho.exponents)
    v = free_reduce(data.draw(st.lists(
        st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1))), max_size=8)))
    uv = free_reduce(u + v)
    for du, dv, duv in zip(fox_row(u, rho, eps), fox_row(v, rho, eps), fox_row(uv, rho, eps)):
        assert duv == du + unit(u, rho, eps) * dv


@settings(max_examples=60, deadline=None)
@given(twisted())
def test_fundamental_fox_identity(case):
    # sum_j dw/dx_j (rho(x_j) t^eps(x_j) - 1) == rho(w) t^eps(w) - 1
    w, rho, eps = case
    one = LaurentPoly.one(rho.modulus)
    total = LaurentPoly.zero(rho.modulus)
    for j, dw in enumerate(fox_row(w, rho, eps)):
        total = total + dw * (unit(((j, 1),), rho, eps) - one)
    assert total == unit(w, rho, eps) - one


def test_evaluate_twisted_is_multiplicative_on_units():
    _, eps, rho = parse_presentation(read_fixture("fig8_zeta5.pres"))
    u = parse_letters("abA", "ab")
    v = parse_letters("Bab", "ab")
    pu = evaluate_twisted(GroupRingElement.of_word(u), rho, eps)
    pv = evaluate_twisted(GroupRingElement.of_word(v), rho, eps)
    puv = evaluate_twisted(GroupRingElement.of_word(fox_oracle.concat(u, v)), rho, eps)
    assert pu * pv == puv


def test_peripheral_trivial_branches():
    p, _, rho1 = parse_presentation(read_fixture("fig8.pres"))
    assert peripheral_trivial(p, rho1) is True
    p5, _, rho5 = parse_presentation(read_fixture("fig8_zeta5.pres"))
    assert peripheral_trivial(p5, rho5) is False
