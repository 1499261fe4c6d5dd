"""Twisted chain complex of a presentation 2-complex and the
alternating-product Alexander invariant.

The infinite cyclic cover is modelled by coefficients in the Laurent
ring: a generator x maps to rho(x) * t^eps(x).  Homology of the twisted
complex is computed over Q(zeta_n)[t, t^-1], a PID, from one Smith
form of the Fox matrix; only orders and degrees at t=1 are contract values
(characteristic polynomials carry the usual unit ambiguity).  Each is a
closed form with no further division: H0 is read from the character,
and each H1 divisor's order at t = 1 from its Taylor sums, once.

Where only t = 1 matters, the Smith form is not needed: the Betti
numbers of `twisted_betti` come from `laurent.rank_at_one`, the rank of
the Fox matrix at t = 1, and `verdict` needs the Smith form only when
h1 > h0, that is when an H1 divisor vanishes at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CuspedZetaError
from .laurent import LaurentPoly, dot, ord_at_one, rank_at_one, smith_form
from .presentation import Epsilon, GroupPresentation, UnitCharacter, fox_row


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


def build_complex(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon
                  ) -> tuple[list[list[LaurentPoly]], list[LaurentPoly]]:
    """(d1, d0): d1 holds one row of Fox derivatives per relator, d0 the
    entry rho(x_j) t^eps(x_j) - 1 per generator.  d1 followed by d0 is
    zero, checked exactly with one `dot` per relator."""
    n = rho.modulus
    d1 = [fox_row(r, rho, eps) for r in p.relators]
    d0 = []
    for j in range(p.arity):
        # -1 at height 0, and zeta^rho(x_j) at height eps(x_j)
        counts = {0: [-1] + [0] * (n - 1)}
        counts.setdefault(eps.values[j], [0] * n)[rho.exponents[j] % n] += 1
        d0.append(LaurentPoly.from_zeta_counts(n, counts))
    for row in d1:
        if not dot(n, row, d0).is_zero():
            raise CuspedZetaError(
                "Fox matrix times the augmentation column is nonzero")
    return d1, d0


def _homology(d1: list[list[LaurentPoly]], d0: list[LaurentPoly], rho: UnitCharacter
              ) -> tuple[tuple[LaurentPoly, ...], tuple[int, ...], int, int]:
    """(H1 divisors, their orders at t = 1, h0, h1) from one Smith form
    of d1.

    0 -> H1 -> C1/im d1 -> im d0 -> 0 splits when d0 != 0, as im d0 is
    then a nonzero ideal of a PID and so free of rank one: the divisors
    of coker d1, padded with zeros to one per generator, are those of H1
    followed by one zero.  Unimodular matrices stay invertible at t = 1,
    so rank d1(1) is the number of divisors of order 0 there.
    """
    g = len(d0)
    divisors = smith_form(d1)
    divisors += [LaurentPoly.zero(rho.modulus)] * (g - len(divisors))
    orders = [ord_at_one(d) for d in divisors]
    h0 = 1 if rho.is_trivial else 0
    return (tuple(divisors[:-1]), tuple(orders[:-1]), h0,
            (g - orders.count(0)) - (1 - h0))


def twisted_betti(p: GroupPresentation, rho: UnitCharacter) -> tuple[int, int]:
    """Dimensions (h0, h1) of the rho-twisted cohomology of the
    presentation complex over Q(zeta_n), with no t variable: the
    complex with every height 0 is the one at t = 1.  h0 is 1 exactly
    when rho is trivial, and then d0 = 0, so dim ker d0 = g - 1 + h0
    and h1 = (g - rank d1(1)) - (1 - h0)."""
    d1, _ = build_complex(p, rho, Epsilon((0,) * p.arity))
    h0 = int(rho.is_trivial)
    return h0, (p.arity - rank_at_one(rho.modulus, d1)) - (1 - h0)


def check_h2_torsion(p: GroupPresentation):
    """d1 d0 = 0 with d0 != 0 gives rank d1 <= g - 1, and torsion H1
    gives rank d1 = g - 1, so H2 = ker d1 is torsion iff relators <= g - 1."""
    if len(p.relators) > p.arity - 1:
        raise CuspedZetaError("module H2 is not torsion")


def alexander_invariant(p: GroupPresentation, rho: UnitCharacter, eps: Epsilon
                        ) -> AlexanderData:
    """The Alexander data of `alexander`, from one Smith form of the
    complex of `build_complex`."""
    d1, d0 = build_complex(p, rho, eps)
    n = rho.modulus

    # the characteristic polynomial of t on H0 = coker d0: the entries
    # (zeta^c t)^eps_j - 1 of rho = zeta^(c eps) have the one common
    # root t = zeta^-c, as gcd(eps) = 1, which also fixes c mod n; with
    # no such c they have none
    c = next((c for c in range(n) if all((c * e - r) % n == 0
                                         for e, r in zip(eps.values, rho.exponents))), None)
    char0 = LaurentPoly.one(n) if c is None else LaurentPoly.from_zeta_counts(
        n, {0: [-(r == -c % n) for r in range(n)], 1: [1] + [0] * (n - 1)})

    divisors1, orders, h0, h1 = _homology(d1, d0, rho)
    if any(d.is_zero() for d in divisors1):
        raise CuspedZetaError("module H1 is not torsion")
    # the characteristic polynomial of t on the torsion module H1
    char1 = LaurentPoly.one(n)
    for d in divisors1:
        if not d.is_unit():
            char1 = char1 * d
    char1 = char1.normalize()

    check_h2_torsion(p)
    char2 = LaurentPoly.one(n)

    # ord char0 = h0, as t - zeta^-c vanishes at 1 only for rho trivial;
    # otherwise H0 localized at t = 1 is zero, the hypothesis that matters
    return AlexanderData(char0=char0, char1=char1, char2=char2,
                         ord_at_one=h0 - sum(orders), h0=h0, h1=h1,
                         semisimple_at_one=max(orders, default=0) <= 1,
                         h0_infinity_vanishes=not h0,
                         h1_divisors=divisors1)

