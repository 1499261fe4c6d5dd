"""Twisted chain complex of a presentation 2-complex and the
alternating-product Alexander invariant.

The infinite cyclic cover is modelled by coefficients in the Laurent
ring: a generator x maps to rho(x) * t^eps(x).  Homology of the twisted
complex is computed over Q(zeta_n)[t, t^-1], a PID, from one Smith
form of the Fox matrix; only orders and degrees at t=1 are contract values
(characteristic polynomials carry the usual unit ambiguity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComplexConditionViolation, NotTorsion
from .laurent import (LaurentMatrix, LaurentPoly, char_poly_from_divisors,
                      ord_at_one, smith_form)
from .presentation import (Epsilon, GroupPresentation, UnitCharacter,
                           fox_derivative)


@dataclass(frozen=True)
class TwistedComplex:
    """d1: relators x generators Fox matrix; d0: generators x 1 column
    with entries rho(x_j) t^eps(x_j) - 1.  d1 followed by d0 is zero."""

    d1: LaurentMatrix
    d0: LaurentMatrix


@dataclass(frozen=True)
class AlexanderData:
    char0: LaurentPoly
    char1: LaurentPoly
    char2: LaurentPoly
    ord_at_one: int
    h0: int
    h1: int
    semisimple_at_one: bool
    h0_infinity_vanishes: bool
    h1_divisors: tuple[LaurentPoly, ...] = ()


def build_complex(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon) -> TwistedComplex:
    n = rho.modulus
    g = p.arity
    d1 = LaurentMatrix(n, [[fox_derivative(r, j, rho, eps) for j in range(g)]
                           for r in p.relators]) if p.relators else LaurentMatrix(n, [])
    col = []
    for j in range(g):
        word = ((j, 1),)
        col.append(LaurentPoly(n, eps.of(word), [rho.value(word)]) - 1)
    d0 = LaurentMatrix(n, [[c] for c in col])
    if p.relators and not d1.matmul(d0).is_zero():
        raise ComplexConditionViolation(
            "Fox matrix times the augmentation column is nonzero")
    return TwistedComplex(d1=d1, d0=d0)


def _homology(c: TwistedComplex, rho: UnitCharacter
              ) -> tuple[tuple[LaurentPoly, ...], int, int]:
    """(H1 divisors, h0, h1) from one Smith form of d1.

    0 -> H1 -> C1/im d1 -> im d0 -> 0 splits when d0 != 0, as im d0 is
    then a nonzero ideal of a PID and so free of rank one: the divisors
    of coker d1, padded with zeros to one per generator, are those of H1
    followed by one zero.  Unimodular matrices stay invertible at t = 1,
    so rank d1(1) is the number of divisors that do not vanish there.
    """
    g = c.d0.rows
    divisors = smith_form(c.d1)
    divisors += [LaurentPoly.zero(c.d0.n)] * (g - len(divisors))
    rank = sum(not d.at_one().is_zero() for d in divisors)
    h0 = 1 if rho.is_trivial else 0
    return tuple(divisors[:-1]), h0, (g - rank) - (1 - h0)


def _char0(c: TwistedComplex) -> LaurentPoly:
    n = c.d0.n
    acc = LaurentPoly.zero(n)
    for row in c.d0.entries:
        acc = acc.gcd(row[0]) if not acc.is_zero() else row[0]
    return acc.normalize()


def twisted_betti(p: GroupPresentation, rho: UnitCharacter) -> tuple[int, int]:
    """Dimensions (h0, h1) of the rho-twisted cohomology of the
    presentation complex over Q(zeta_n), with no t variable: the
    complex with every height 0 is the one at t = 1."""
    flat = build_complex(p, rho, Epsilon((0,) * p.arity))
    return _homology(flat, rho)[1:]


def alexander_invariant(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon) -> AlexanderData:
    c = build_complex(p, rho, eps)
    n = rho.modulus

    char0 = _char0(c)
    if char0.is_unit():
        char0 = LaurentPoly.one(n)
    # the hypothesis that matters for the order arithmetic is vanishing
    # of the t=1 localized piece: rho factoring through eps leaves a
    # one-dimensional H0 with t acting by a nontrivial root of unity,
    # which contributes nothing at t=1
    h0_inf_vanishes = ord_at_one(char0) == 0

    divisors1, h0, h1 = _homology(c, rho)
    if any(d.is_zero() for d in divisors1):
        raise NotTorsion("H1")
    char1 = char_poly_from_divisors(list(divisors1)) if divisors1 else LaurentPoly.one(n)

    # d1 d0 = 0 with d0 != 0 gives rank d1 <= g - 1, and torsion H1 gives
    # rank d1 = g - 1, so H2 = ker d1 is torsion iff relators <= g - 1
    if len(p.relators) > p.arity - 1:
        raise NotTorsion("H2")
    char2 = LaurentPoly.one(n)

    ord1 = ord_at_one(char0) - ord_at_one(char1)
    semisimple = all(d.is_unit() or ord_at_one(d) <= 1 for d in divisors1)
    return AlexanderData(char0=char0, char1=char1, char2=char2,
                         ord_at_one=ord1, h0=h0, h1=h1,
                         semisimple_at_one=semisimple,
                         h0_infinity_vanishes=h0_inf_vanishes,
                         h1_divisors=divisors1)

