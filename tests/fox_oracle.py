"""Fox calculus in the integral free-group ring, an oracle for the
one-pass twisted Fox derivatives of `cuspedzeta.presentation.fox_row`.

`fox_derivative` here returns the derivative as a combination of
freely reduced words, and `evaluate_twisted` then applies the ring map
w -> rho(w) t^eps(w).  The library computes the composite in one pass
over the word without ever forming the words.
"""

import string

from cuspedzeta.laurent import LaurentPoly
from cuspedzeta.presentation import (Epsilon, GroupWord, Letter, UnitCharacter,
                                     format_letters, free_reduce)

import laurent_oracle
from cyclotomic_oracle import CyclotomicNumber


def concat(*words: GroupWord) -> GroupWord:
    letters: list[Letter] = []
    for w in words:
        letters.extend(w)
    return free_reduce(letters)


class GroupRingElement:
    """Finite integer combination of group words; the carrier of Fox
    derivatives.  Zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[GroupWord, int] = {}
        if terms:
            for w, c in dict(terms).items():
                if c:
                    self.terms[tuple(w)] = c

    @classmethod
    def of_word(cls, word: GroupWord, coeff: int = 1):
        return cls({tuple(word): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def left_mul(self, word: GroupWord):
        """Multiply every term on the left by the given word."""
        out: dict[GroupWord, int] = {}
        for w, c in self.terms.items():
            key = concat(word, w)
            out[key] = out.get(key, 0) + c
        return GroupRingElement(out)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items()):
            parts.append(f"{c}*[{format_letters(w, string.ascii_lowercase)}]")
        return " + ".join(parts)


def fox_derivative(w: GroupWord, i: int) -> GroupRingElement:
    """Free-group Fox derivative with respect to generator i.

    Satisfies d(uv) = du + u dv, d(x) = 1 and d(x^-1) = -x^-1.
    """
    out = GroupRingElement()
    prefix: GroupWord = ()
    for g, e in w:
        if g == i:
            if e == 1:
                out = out + GroupRingElement.of_word(prefix)
            else:
                out = out - GroupRingElement.of_word(concat(prefix, ((g, -1),)))
        prefix = concat(prefix, ((g, e),))
    return out


def evaluate_twisted(e: GroupRingElement, rho: UnitCharacter, eps: Epsilon) -> LaurentPoly:
    """Ring homomorphism sending word w to rho(w) * t^eps(w), extended
    linearly over the integers, computed on the oracle's polynomials."""
    n = rho.modulus
    out = laurent_oracle.LaurentPoly.zero(n)
    for w, c in e.terms.items():
        coeff = CyclotomicNumber.zeta_power(n, rho.exponent_of(w)) * c
        out = out + laurent_oracle.LaurentPoly(n, eps.of(w), [coeff])
    return laurent_oracle.to_library(out)
