"""The class enumeration without the trace prefilter, kept as a test
oracle, with the matrix type, the four-kind element classification and
the matrix product and inverse that the tests build matrices with.

`enumerate_classes` carries the word products as `MoebiusMatrix`
values and normalizes and classifies every class word with `classify`,
so a word is dropped only on its computed length.  The package carries
(a, b, c, d) tuples and reads only "loxodromic or not" off a product
(`spectrum._complex_length`); `classify` is the reference it is checked
against.  The trace-cluster merge and the power-root matching are the
package's linear scans, copied: `merge_conjugates` takes the first
cluster within TRACE_TOL by a scan over all clusters and `_power_root`
scans the primitives in order, where the package bisects.

The oracle keeps words as tuples of (generator, exponent) letters,
where the package keeps letter indices, and canonicalizes them with
the free-group helpers below, which the package no longer needs.
"""

import cmath
import math
import string
import warnings
from dataclasses import dataclass

from cuspedzeta.errors import CuspedZetaError, DiscretenessSuspect, InputError
from cuspedzeta.presentation import GroupWord, format_letters, free_reduce
from cuspedzeta.spectrum import (DET_TOL, TRACE_TOL, GeodesicClass, Spectrum,
                                 _canonical_angle, _trace_key, necklace_walk)


def word_inverse(word: GroupWord) -> GroupWord:
    return tuple((g, -e) for g, e in reversed(word))


def cyclic_reduce(word: GroupWord) -> GroupWord:
    """Freely reduce, then strip cancelling first/last letters."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def canonical_conjugacy_form(word: GroupWord) -> GroupWord:
    """Least cyclic rotation of the cyclic reduction; a canonical
    representative of the free-conjugacy class."""
    w = cyclic_reduce(word)
    return min((w[i:] + w[:i] for i in range(len(w))), default=w)


def spell(word: GroupWord) -> str:
    """The letter text of a word on the generators a-z."""
    return format_letters(word, string.ascii_lowercase)


@dataclass(frozen=True)
class MoebiusMatrix:
    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def check_normalized(self, tol: float = DET_TOL):
        if abs(self.det - 1) > tol:
            raise ValueError(f"matrix determinant {self.det} is not 1")
        return self

    @classmethod
    def normalized(cls, a, b, c, d):
        s = cmath.sqrt(a * d - b * c)
        return cls(a / s, b / s, c / s, d / s)


@dataclass(frozen=True)
class ElementType:
    kind: str  # loxodromic | parabolic | elliptic | identity
    length: float | None = None
    holonomy: float | None = None


def classify(m: MoebiusMatrix) -> ElementType:
    """Element type from the trace: tr = +-2 cosh((l + i theta)/2).

    The determinant check allows the rounding of a.d - b.c, which grows
    with |a.d| + |b.c| on long word products."""
    m.check_normalized(DET_TOL * max(1.0, abs(m.a * m.d) + abs(m.b * m.c)))
    tr = m.trace
    if abs(tr.imag) <= TRACE_TOL and abs(tr.real) <= 2 + TRACE_TOL:
        if abs(abs(tr.real) - 2) <= TRACE_TOL:
            if abs(m.b) <= TRACE_TOL and abs(m.c) <= TRACE_TOL:
                return ElementType("identity")
            return ElementType("parabolic")
        return ElementType("elliptic")
    # larger eigenvalue lambda = e^{(l + i theta)/2}
    disc = cmath.sqrt(tr * tr - 4)
    lam = (tr + disc) / 2
    if abs(lam) < 1:
        lam = (tr - disc) / 2
    length = 2 * math.log(abs(lam))
    theta = _canonical_angle(2 * math.atan2(lam.imag, lam.real))
    return ElementType("loxodromic", length=length, holonomy=theta)


def matmul(m: MoebiusMatrix, n: MoebiusMatrix) -> MoebiusMatrix:
    """The matrix product m n."""
    return MoebiusMatrix(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                         m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def inverse(m: MoebiusMatrix) -> MoebiusMatrix:
    """The inverse of a matrix of determinant 1."""
    return MoebiusMatrix(m.d, -m.b, -m.c, m.a)


def merge_conjugates(found):
    """The classes kept from ``found``, (word, trace key, length,
    holonomy, char) tuples sorted by (word length, word): each word
    joins the first trace cluster within TRACE_TOL, by a linear scan."""
    kept = []
    clusters = []  # (trace key, char, canonical inverse word or None)
    for cand in found:
        canon, trk, length, theta, char = cand
        hit = None
        for cl in clusters:
            if abs(trk - cl[0]) <= TRACE_TOL:
                hit = cl
                break
        if hit is None:
            inv = canonical_conjugacy_form(word_inverse(canon))
            clusters.append([trk, char, inv if inv != canon else None])
            kept.append(cand)
        elif canon == hit[2]:
            hit[2] = None
            kept.append(cand)
        elif min(abs(char - hit[1]), abs(char - hit[1].conjugate())) > 1e-6:
            warnings.warn(
                f"near-equal traces with incompatible character values: "
                f"word {spell(canon)}",
                DiscretenessSuspect)
            kept.append(cand)
    return kept


def _power_root(cls_lth, primitives):
    """Match (length, holonomy, char) against integer multiples of an
    already-found primitive class; returns (multiplicity, primitive_length)."""
    length, theta, char = cls_lth
    for p in primitives:
        k = round(length / p.length)
        if k < 2:
            break  # primitives ascend in length, so k only falls from here
        if abs(length - k * p.length) > 1e-6:
            continue
        if abs(_canonical_angle(theta - k * p.holonomy)) > 1e-6:
            continue
        if abs(char - p.char_value ** k) > 1e-6:
            continue
        return k, p.length
    return 1, length


def enumerate_classes(gens, rho_values, max_word_len: int,
                      cutoff_length: float) -> Spectrum:
    """`spectrum.enumerate_classes` on the same (a, b, c, d) generators."""
    gens = [MoebiusMatrix(*g) for g in gens]
    if len(gens) > 26:
        raise InputError(f"generators: {len(gens)} given, at most 26 allowed")
    for i, g in enumerate(gens):
        if not abs(g.det - 1) <= DET_TOL:
            raise InputError(f"generators[{i}]: determinant {g.det} is not 1")
    if len(rho_values) != len(gens):
        raise InputError(f"rho: {len(rho_values)} character value(s) for "
                              f"{len(gens)} generator(s)")
    letters = sorted((g, e) for g in range(len(gens)) for e in (-1, 1))
    mats = [gens[g] if e == 1 else inverse(gens[g]) for g, e in letters]

    found = []  # (canonical word, trace_key, length, theta, char)
    for idx, m in necklace_walk(mats, max_word_len, matmul):
        word = tuple(letters[i] for i in idx)
        if not cmath.isfinite(m.a + m.b + m.c + m.d):
            raise CuspedZetaError(
                f"the matrix product of word {spell(word)} is not finite")
        try:
            et = classify(MoebiusMatrix.normalized(m.a, m.b, m.c, m.d))
        except ZeroDivisionError:
            raise CuspedZetaError(f"the matrix product of word {spell(word)} "
                                  f"has determinant 0 to rounding") from None
        if et.kind != "loxodromic" or et.length > cutoff_length:
            continue
        char = 1 + 0j
        for g, e in word:
            char *= rho_values[g] if e == 1 else rho_values[g].conjugate()
        found.append((word, _trace_key(m.trace), et.length, et.holonomy, char))

    found.sort(key=lambda f: (len(f[0]), f[0]))
    kept = merge_conjugates(found)

    classes = []
    primitives = []
    kept.sort(key=lambda f: (f[2], len(f[0]), f[0]))
    for canon, trk, length, theta, char in kept:
        mult, prim_len = _power_root((length, theta, char), primitives)
        cls = GeodesicClass(length=length, holonomy=theta, char_value=char,
                            primitive_length=prim_len, multiplicity=mult,
                            word=canon)
        classes.append(cls)
        if mult == 1:
            primitives.append(cls)

    classes.sort(key=lambda c: (c.length, c.holonomy, c.word))
    # spelled as the package stores a word, after the tuple-word order
    classes = [c._replace(word=spell(c.word)) for c in classes]
    return Spectrum(classes=classes, cutoff_length=cutoff_length,
                    max_word_len=max_word_len).validate()
