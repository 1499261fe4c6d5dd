"""Geodesic length spectra from Moebius-matrix generators.

A matrix (a b; c d) is the tuple (a, b, c, d) throughout: the
generators, their inverses and every word product.  Conjugacy classes
of loxodromic elements are enumerated as cyclically reduced necklaces
(`necklace_walk`), one canonical word per free conjugacy class, with
the product carried down the walk.  A word is a tuple of letter
indices: letter i is ``sorted((g, e))[i]`` over the generators g and
the exponents e = -1, 1, so index order is word order and letter
i ^ 1 is the inverse of letter i.  `_complex_length` reads a class
word's complex length off its product, or finds it not loxodromic;
only a word whose trace can put it under the length cutoff L is read:
the larger eigenvalue lambda = e^{(l + i theta)/2} of the normalized
product gives |tr| = |lambda + 1/lambda| <= 2 cosh(l/2), so a product
with |tr|^2 > (2 cosh(L/2))^2 |det| (1 + 1e-6) has l > L and is
skipped unclassified.  Classes that are conjugate in the group but not freely
are merged by trace clustering.  Each class carries its complex length
(l, theta), character value, multiplicity data and its word, spelled
as the spectrum CSV spells it: generator g is the letter
``chr(ord("a") + g)``, and its inverse that letter's uppercase.  Orientation convention: a
class and its inverse are kept as two classes (the Euler product runs
over oriented geodesics).
"""

from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (CuspedZetaError, DiscretenessSuspect, InputError,
                     read_utf8)

TRACE_TOL = 1e-9
DET_TOL = 1e-12
# how far past its cutoff a spectrum file may list a class
CUTOFF_SLACK = 1e-9


def _canonical_angle(theta: float) -> float:
    """Reduce into (-pi, pi]."""
    t = math.fmod(theta, 2 * math.pi)
    if t <= -math.pi:
        t += 2 * math.pi
    elif t > math.pi:
        t -= 2 * math.pi
    return t


def _complex_length(a, b, c, d) -> tuple[float, float] | None:
    """The complex length (l, theta) of (a b; c d) from its trace
    tr = +-2 cosh((l + i theta)/2) once normalized to determinant 1, or
    None when the element is not loxodromic (identity, parabolic or
    elliptic: a real trace of modulus at most 2).

    The determinant check allows the rounding of a.d - b.c, which grows
    with |a.d| + |b.c| on long word products."""
    s = cmath.sqrt(a * d - b * c)
    a, b, c, d = a / s, b / s, c / s, d / s
    ad, bc = a * d, b * c
    if abs(ad - bc - 1) > DET_TOL * max(1.0, abs(ad) + abs(bc)):
        raise ValueError(f"matrix determinant {ad - bc} is not 1")
    tr = a + d
    if abs(tr.imag) <= TRACE_TOL and abs(tr.real) <= 2 + TRACE_TOL:
        return None
    # larger eigenvalue lambda = e^{(l + i theta)/2}
    disc = cmath.sqrt(tr * tr - 4)
    lam = (tr + disc) / 2
    if abs(lam) < 1:
        lam = (tr - disc) / 2
    # atan2, not cmath.phase, which raises on a subnormal angle
    theta = 2 * math.atan2(lam.imag, lam.real)
    return 2 * math.log(abs(lam)), _canonical_angle(theta)


class GeodesicClass(NamedTuple):
    """One row of the spectrum: a tuple, so it unpacks positionally and
    costs one allocation to build.  The word is the letter text of the
    CSV, such as ``abAB``."""
    length: float
    holonomy: float
    char_value: complex
    primitive_length: float
    multiplicity: int
    word: str

    def validate(self):
        length, holonomy, char_value, primitive_length, multiplicity, word = self
        if not math.isfinite(primitive_length):
            raise InputError(f"primitive length {primitive_length} is not finite")
        # relative below length 1, so that l0 / l stays near 1 / m on a
        # tiny class; abs leaves a length <= 0 to the rule that names it
        if abs(length - multiplicity * primitive_length) > 1e-9 * min(1, abs(length)):
            raise InputError(
                f"length {length} is not multiplicity x primitive length")
        if abs(abs(char_value) - 1) > 1e-12:
            raise InputError(f"character value {char_value} is off the unit circle")
        if not length > 0:
            raise InputError(f"length {length} is not positive")
        if multiplicity < 1:
            raise InputError(f"multiplicity {multiplicity} is below 1")
        if not word:
            raise InputError("empty word")
        if not math.isfinite(holonomy):
            raise InputError(f"holonomy {holonomy} is not finite")
        return self


@dataclass
class Spectrum:
    classes: list[GeodesicClass]
    cutoff_length: float
    max_word_len: int | None = None

    def primitives(self):
        return [c for c in self.classes if c.multiplicity == 1]

    def validate(self):
        last = -math.inf
        for c in self.classes:
            c.validate()
            if c.length > self.cutoff_length + CUTOFF_SLACK:
                raise InputError(f"class length {c.length} beyond cutoff")
            if c.length < last - 1e-12:
                raise InputError("classes are not sorted by length")
            last = c.length
        return self


def _trace_key(tr: complex):
    """Sign-canonical trace for PSL(2, C): flip so the leading nonzero
    part is positive."""
    if tr.real < 0 or (abs(tr.real) < 1e-15 and tr.imag < 0):
        tr = -tr
    return tr


def _power_root(length, theta, char, primitives, lengths):
    """Match (length, holonomy, char) against integer multiples of an
    already-found primitive class; returns (multiplicity, primitive_length).

    ``primitives`` ascend in length and ``lengths`` holds their lengths.
    The match is the first primitive p, in that order, with
    k = round(length / p.length) >= 2 whose k-th power agrees with the
    class.  Every such p has |length - k p.length| <= 1e-6, so it lies
    in the window (length +- 2e-6) / k; the windows for k = 2..K, K the
    k of the shortest primitive, are found by bisection.  When they are
    more than there are primitives, every primitive is a candidate."""
    top = round(length / lengths[0]) if lengths else 1
    if top - 1 > len(lengths):
        candidates = range(len(lengths))
    else:
        # windows in ascending position, each started past the last
        candidates = []
        end = 0
        for k in range(top, 1, -1):
            lo = max(end, bisect_left(lengths, (length - 2e-6) / k))
            end = max(end, bisect_right(lengths, (length + 2e-6) / k))
            candidates.extend(range(lo, end))
    for i in candidates:
        p = primitives[i]
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


def necklace_walk(values, max_len: int, mul):
    """Depth-first walk over the freely reduced prenecklaces of length
    1..max_len: the Fredricksen-Kessler-Maiorana recursion with the
    inverse of the previous letter skipped.

    ``values[i]`` is the value of letter i, one per letter, and
    ``mul(x, y)`` the product of two values; each word carries the
    product of its letters' values, taken left to right, down the walk.

    Yields ``(indices, product)`` for the words that are the least
    rotation of their cyclic reduction (the length is a multiple of the
    longest Lyndon prefix, and the last letter does not cancel the
    first), so each free conjugacy class of cyclically reduced length
    <= max_len comes exactly once, in pre-order.
    """
    if max_len < 1:
        raise ValueError(f"maximum word length {max_len} is below 1")
    top = len(values) - 1
    # stack entries: (letter indices, product, longest Lyndon prefix length)
    stack = [((i,), values[i], 1) for i in range(top, -1, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        idx, m, p = pop()
        n = len(idx)
        if n % p == 0 and idx[0] != idx[-1] ^ 1:
            yield idx, m
        if n == max_len:
            continue
        ref = idx[n - p]
        cancel = idx[-1] ^ 1
        n += 1
        if n == max_len:
            # the children are leaves, yielded in order without a push
            # when they are classes and never built when they are not
            closes = idx[0] ^ 1
            if n % p == 0 and ref != cancel and ref != closes:
                yield idx + (ref,), mul(m, values[ref])
            for j in range(ref + 1, top + 1):
                if j != cancel and j != closes:
                    yield idx + (j,), mul(m, values[j])
            continue
        for j in range(top, ref - 1, -1):
            if j != cancel:
                push((idx + (j,), mul(m, values[j]), p if j == ref else n))


def _merge_conjugates(found, texts):
    """The classes kept from ``found``, (word, trace key, length,
    holonomy, char) tuples sorted by (word length, word), each word the
    letter indices of a necklace; ``texts[i]`` spells letter i.

    Words that are conjugate in the group but not freely conjugate are
    merged by trace.  The trace cannot separate a class from its
    inverse, so each trace cluster keeps its first word plus the
    necklace of that word's inverse (the oriented-geodesic
    convention), and every other member of the cluster is assumed
    conjugate to one of those two; a member whose character value
    matches neither is kept with a DiscretenessSuspect warning.  A word
    joins the first cluster whose key is within TRACE_TOL of its own;
    the candidates are the clusters whose key's real part lies within
    2 TRACE_TOL, found by bisection."""
    kept = []
    clusters = []  # [trace key, char, canonical inverse word or None]
    reals = []  # the clusters' key real parts, ascending ...
    ids = []  # ... and the index in `clusters` of each
    for cand in found:
        canon, trk, length, theta, char = cand
        re = trk.real
        hit = len(clusters)
        for pos in range(bisect_left(reals, re - 2 * TRACE_TOL),
                         bisect_right(reals, re + 2 * TRACE_TOL)):
            i = ids[pos]
            if i < hit and abs(trk - clusters[i][0]) <= TRACE_TOL:
                hit = i
        if hit == len(clusters):
            # the inverse of a necklace is cyclically reduced, so its
            # canonical form is its least rotation
            inv = tuple(i ^ 1 for i in reversed(canon))
            inv = min(inv[i:] + inv[:i] for i in range(len(inv)))
            pos = bisect_right(reals, re)
            reals.insert(pos, re)
            ids.insert(pos, hit)
            clusters.append([trk, char, inv if inv != canon else None])
            kept.append(cand)
            continue
        cl = clusters[hit]
        if canon == cl[2]:
            cl[2] = None  # the inverse orientation, kept once
            kept.append(cand)
        elif min(abs(char - cl[1]), abs(char - cl[1].conjugate())) > 1e-6:
            warnings.warn(
                f"near-equal traces with incompatible character values: "
                f"word {''.join(map(texts.__getitem__, canon))}",
                DiscretenessSuspect)
            kept.append(cand)
    return kept


def _matmul(m, n):
    """(a b; c d)(e f; g h)"""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def enumerate_classes(gens, rho_values, max_word_len: int,
                      cutoff_length: float) -> Spectrum:
    """Enumerate loxodromic conjugacy classes up to the word-length and
    geodesic-length cutoffs.

    Each generator is a tuple (a, b, c, d), the matrix (a b; c d).
    Words longer than max_word_len are not visited, so a class under the
    length cutoff may be missing; max_word_len is recorded in the
    metadata.  A max_word_len below 1 raises ValueError; more than 26
    generators, a generator of determinant other than 1, a character
    value count other than the generator count, or a character value off
    the unit circle, raises InputError; a word whose matrix product
    leaves the float range, or whose determinant rounds to 0, raises
    CuspedZetaError.
    """
    if len(gens) > 26:
        # the spectrum file spells words in the letters a-z
        raise InputError(f"generators: {len(gens)} given, at most 26 allowed")
    for i, (a, b, c, d) in enumerate(gens):
        det = a * d - b * c
        if not abs(det - 1) <= DET_TOL:
            raise InputError(f"generators[{i}]: determinant {det} is not 1")
    if len(rho_values) != len(gens):
        raise InputError(f"rho: {len(rho_values)} character value(s) for "
                         f"{len(gens)} generator(s)")
    for i, v in enumerate(rho_values):
        # the rule of GeodesicClass.validate, checked before any word
        if not abs(abs(v) - 1) <= 1e-12:
            raise InputError(f"rho[{i}]: character value {v} "
                             f"is off the unit circle")
    # letter i of the walk, its matrix, its character value and its text
    mats, chars, texts = [], [], []
    for g, e in sorted((g, e) for g in range(len(gens)) for e in (-1, 1)):
        a, b, c, d = gens[g]
        mats.append((a, b, c, d) if e == 1 else (d, -b, -c, a))
        chars.append(rho_values[g] if e == 1 else rho_values[g].conjugate())
        texts.append(chr(ord("a" if e == 1 else "A") + g))
    spell = texts.__getitem__
    # |tr|^2 of a product above this times |det| puts its length above the
    # cutoff; the margin is far above rounding, and no elliptic, parabolic
    # or identity trace (|tr| <= 2 + TRACE_TOL) reaches it.  |tr|^2
    # overflows near length 709, so a cutoff past 700 filters nothing.
    if abs(cutoff_length) > 700:
        bound = math.inf
    else:
        bound = 2 * math.cosh(cutoff_length / 2)
        bound = bound * bound * (1 + 1e-6)

    found = []  # (canonical word, trace_key, length, theta, char)
    for idx, (a, b, c, d) in necklace_walk(mats, max_word_len, _matmul):
        # an entry past the float range, or inf - inf, makes the sum non-finite
        if not cmath.isfinite(a + b + c + d):
            raise CuspedZetaError(f"the matrix product of word "
                                  f"{''.join(map(spell, idx))} is not finite")
        det = a * d - b * c
        if det == 0:
            raise CuspedZetaError(f"the matrix product of word {''.join(map(spell, idx))} "
                                  f"has determinant 0 to rounding")
        tr = a + d
        if tr.real * tr.real + tr.imag * tr.imag > bound * abs(det):
            continue
        lth = _complex_length(a, b, c, d)
        if lth is None or lth[0] > cutoff_length:
            continue
        char = 1 + 0j
        for i in idx:
            char *= chars[i]
        found.append((idx, _trace_key(tr), *lth, char))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    kept = _merge_conjugates(found, texts)

    # the row order, (length, holonomy) ties broken by the index word.
    # `_power_root` reads only primitives under two thirds of a class's
    # length, which any order by length puts first, so ties cannot change
    # a multiplicity.
    kept.sort(key=lambda f: (f[2], f[3], f[0]))
    classes = []
    primitives: list[GeodesicClass] = []
    lengths = []  # of the primitives
    for canon, trk, length, theta, char in kept:
        mult, prim_len = _power_root(length, theta, char, primitives, lengths)
        cls = GeodesicClass(length, theta, char, prim_len, mult,
                            "".join(map(spell, canon)))
        classes.append(cls)
        if mult == 1:
            primitives.append(cls)
            lengths.append(length)
    return Spectrum(classes=classes, cutoff_length=cutoff_length,
                    max_word_len=max_word_len).validate()


# ---------------------------------------------------------------------------
# CSV round trip

def _fmt(x: float) -> str:
    return format(x, ".17g")


def format_spectrum(s: Spectrum) -> str:
    """The CSV text of a spectrum: header comments, then one row per class."""
    lines = [f"# cutoff={_fmt(s.cutoff_length)}"]
    if s.max_word_len is not None:
        lines.append(f"# max_word_len={s.max_word_len}")
    for c in s.classes:
        lines.append(",".join([
            _fmt(c.length), _fmt(c.holonomy),
            _fmt(c.char_value.real), _fmt(c.char_value.imag),
            _fmt(c.primitive_length), str(c.multiplicity), c.word,
        ]))
    return "\n".join(lines) + "\n"


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def _row(line: str, lineno: int) -> GeodesicClass | None:
    """One spectrum row checked field by field, for the rows the fast
    path of `load_spectrum` refuses: None for a blank line, else the
    class or an InputError that names the line and the first bad field."""
    if not line.strip():
        return None
    parts = line.split(",")
    if len(parts) != 7:
        raise InputError("expected 7 comma-separated fields", line=lineno)
    try:
        length, theta, re_c, im_c, prim = map(_finite_float, parts[:5])
        mult = int(parts[5])
        for ch in parts[6]:
            if not (ch.isascii() and ch.isalpha()):
                raise InputError(f"unknown generator letter {ch!r}")
        cls = GeodesicClass(length, theta, complex(re_c, im_c), prim, mult,
                            parts[6])
    except Exception as exc:
        raise InputError(f"bad row: {exc}", line=lineno)
    try:
        return cls.validate()
    except InputError as exc:
        raise InputError(str(exc), line=lineno)
    except OverflowError as exc:  # a multiplicity past the float range
        raise InputError(f"bad row: {exc}", line=lineno)


def _header(line: str, lineno: int) -> dict:
    """The key=value tokens of a ``# `` header line; a token without
    '=', or one that repeats a key, raises the InputError that names it."""
    fields = {}
    for tok in line[2:].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise InputError(f"bad header: token {tok!r} is not key=value",
                             line=lineno)
        if key in fields:
            raise InputError(f"bad header: token {tok!r} repeats key {key!r}",
                             line=lineno)
        fields[key] = value
    return fields


def load_spectrum(path) -> Spectrum:
    """Read a spectrum CSV in one pass; every error names its line.

    Each row is split and unpacked once and checked inline by the rules
    of `GeodesicClass.validate`.  A row whose multiplicity text is ``1``
    and whose primitive-length text is its length text is primitive
    outright: its primitive length is its length and its gap 0, so it
    skips the multiplicity and gap rules, which every other row keeps.
    Each distinct character text is parsed and checked once per call,
    kept in a table keyed by the real text and then the imaginary text.
    The word is kept as its letter text.  A row that fails in any way,
    a blank line included, goes to `_row`, which skips it or raises the
    located message."""
    raw = read_utf8(path).splitlines()
    if not raw or not raw[0].startswith("# cutoff="):
        raise InputError("missing spectrum header", line=1)
    try:
        cutoff = _finite_float(_header(raw[0], 1)["cutoff"])
    except ValueError as exc:
        raise InputError(f"bad header: {exc}", line=1)
    max_word_len = None
    body_start = 1
    if len(raw) > 1 and raw[1].startswith("# max_word_len="):
        try:
            mwl = int(_header(raw[1], 2)["max_word_len"])
        except ValueError as exc:
            raise InputError(f"bad header: {exc}", line=2)
        max_word_len = None if mwl < 0 else mwl
        body_start = 2
    classes = []
    append = classes.append
    limit = cutoff + CUTOFF_SLACK
    last = -math.inf
    isfinite = math.isfinite
    # GeodesicClass(...) without the Python-level __new__ of a NamedTuple
    new = tuple.__new__
    # re text -> im text -> character value that passed the check; a
    # finite order character repeats a handful of texts over the file
    chars = {}
    no_chars = {}
    for lineno, line in enumerate(raw[body_start:], start=body_start + 1):
        try:
            l, th, re_c, im_c, pl, m, text = line.split(",")
            length = float(l)
            theta = float(th)
            if m == "1" and pl == l:
                # a primitive row: prim is the length, mult 1, gap 0
                prim, mult = length, 1
                if not isfinite(length + theta):
                    raise ValueError
            else:
                prim = float(pl)
                # a sum of finite numbers is finite unless it overflows,
                # which only sends the row to the slow path
                if not isfinite(length + theta + prim):
                    raise ValueError
                # the rules of GeodesicClass.validate, in its order; for
                # the length > 0 of every row kept, the first is
                # gap > 1e-9 * min(1, length)
                mult = int(m)
                gap = abs(length - mult * prim)
                if gap and (gap > 1e-9 or gap > 1e-9 * length):
                    raise ValueError
            char = chars.get(re_c, no_chars).get(im_c)
            if char is None:
                re_v, im_v = float(re_c), float(im_c)
                char = complex(re_v, im_v)
                if not isfinite(re_v + im_v) or abs(abs(char) - 1) > 1e-12:
                    raise ValueError
                chars.setdefault(re_c, {})[im_c] = char
            # ASCII letters are the 52 of the a-z alphabet, and an empty
            # word is not alphabetic
            if not length > 0 or mult < 1 or not (text.isascii()
                                                   and text.isalpha()):
                raise ValueError
            cls = new(GeodesicClass, (length, theta, char, prim, mult, text))
        except Exception:
            cls = _row(line, lineno)
            if cls is None:
                continue
            length = cls.length
        if length > limit:
            raise InputError(f"class length {length} beyond cutoff", line=lineno)
        if length < last - 1e-12:
            raise InputError("classes are not sorted by length", line=lineno)
        last = length
        append(cls)
    return Spectrum(classes=classes, cutoff_length=cutoff,
                    max_word_len=max_word_len)
