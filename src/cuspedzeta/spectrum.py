"""Geodesic length spectra from Moebius-matrix generators.

Conjugacy classes of loxodromic elements are enumerated as cyclically
reduced necklaces (``words.necklace_walk``), one canonical word per free
conjugacy class, with the matrix product carried down the walk; classes
that are conjugate in the group but not freely are merged by trace
clustering.  Each class carries its complex length (l, theta),
character value, and multiplicity data.  Orientation convention: a
class and its inverse are kept as two classes (the Euler product runs
over oriented geodesics).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from . import words as W
from .errors import DiscretenessSuspect, FormatError, ValidationError
from .words import GroupWord

TRACE_TOL = 1e-9
DET_TOL = 1e-12


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

    def __matmul__(self, other):
        return MoebiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return MoebiusMatrix(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class ElementType:
    kind: str  # loxodromic | parabolic | elliptic | identity
    length: float | None = None
    holonomy: float | None = None


def _canonical_angle(theta: float) -> float:
    """Reduce into (-pi, pi]."""
    t = math.fmod(theta, 2 * math.pi)
    if t <= -math.pi:
        t += 2 * math.pi
    elif t > math.pi:
        t -= 2 * math.pi
    return t


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
    theta = _canonical_angle(2 * cmath.phase(lam))
    return ElementType("loxodromic", length=length, holonomy=theta)


@dataclass(frozen=True)
class GeodesicClass:
    length: float
    holonomy: float
    char_value: complex
    primitive_length: float
    multiplicity: int
    word: GroupWord

    def validate(self):
        if abs(self.length - self.multiplicity * self.primitive_length) > 1e-9:
            raise FormatError(
                f"length {self.length} is not multiplicity x primitive length")
        if abs(abs(self.char_value) - 1) > 1e-12:
            raise FormatError(f"character value {self.char_value} is off the unit circle")
        return self

    @property
    def is_primitive(self) -> bool:
        return self.multiplicity == 1


@dataclass
class Spectrum:
    classes: list[GeodesicClass]
    cutoff_length: float
    lattice_covolume: float = 1.0
    volume: float = 1.0
    max_word_len: int | None = None
    complete: bool = False

    def primitives(self):
        return [c for c in self.classes if c.is_primitive]

    def validate(self):
        last = -math.inf
        for c in self.classes:
            c.validate()
            if c.length > self.cutoff_length + 1e-9:
                raise FormatError(f"class length {c.length} beyond cutoff")
            if c.length < last - 1e-12:
                raise FormatError("classes are not sorted by length")
            last = c.length
        return self


def _trace_key(tr: complex):
    """Sign-canonical trace for PSL(2, C): flip so the leading nonzero
    part is positive."""
    if tr.real < 0 or (abs(tr.real) < 1e-15 and tr.imag < 0):
        tr = -tr
    return tr


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


def enumerate_classes(gens, rho_values, max_word_len: int, cutoff_length: float,
                      covolume: float = 1.0, volume: float = 1.0,
                      complete: bool = False) -> Spectrum:
    """Enumerate loxodromic conjugacy classes up to the word-length and
    geodesic-length cutoffs.

    Completeness is only relative to max_word_len; the flag is a caller
    assertion, recorded in the metadata.  A max_word_len below 1 raises
    ValueError; a generator of determinant other than 1, or a character
    value count other than the generator count, raises ValidationError.
    """
    for i, g in enumerate(gens):
        if abs(g.det - 1) > DET_TOL:
            raise ValidationError(f"generators[{i}]: determinant {g.det} is not 1")
    if len(rho_values) != len(gens):
        raise ValidationError(f"rho: {len(rho_values)} character value(s) for "
                              f"{len(gens)} generator(s)")
    mats = {}
    for i, g in enumerate(gens):
        mats[(i, 1)] = g
        mats[(i, -1)] = g.inverse()

    found = []  # (canonical word, trace_key, length, theta, char)
    # prods[n] is the product of the last walked word of length n,
    # accumulated left to right as the walk descends
    prods = [None] * (max_word_len + 1)
    for word, is_class in W.necklace_walk(len(gens), max_word_len):
        n = len(word)
        m = mats[word[-1]] if n == 1 else prods[n - 1] @ mats[word[-1]]
        prods[n] = m
        if not is_class:
            continue
        et = classify(MoebiusMatrix.normalized(m.a, m.b, m.c, m.d))
        if et.kind != "loxodromic" or et.length > cutoff_length:
            continue
        char = 1 + 0j
        for g, e in word:
            char *= rho_values[g] if e == 1 else rho_values[g].conjugate()
        found.append((word, _trace_key(m.trace), et.length, et.holonomy, char))

    # merge words that are conjugate in the group but not freely
    # conjugate.  The trace cannot separate a class from its inverse, so
    # each trace cluster keeps the shortest word plus the canonical form
    # of its inverse (the oriented-geodesic convention), and every other
    # member of the cluster is assumed conjugate to one of those two.
    found.sort(key=lambda f: (len(f[0]), f[0]))
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
            inv = W.canonical_conjugacy_form(W.inverse(canon))
            clusters.append([trk, char, inv if inv != canon else None])
            kept.append(cand)
        elif canon == hit[2]:
            hit[2] = None  # the inverse orientation, kept once
            kept.append(cand)
        elif min(abs(char - hit[1]), abs(char - hit[1].conjugate())) > 1e-6:
            warnings.warn(
                f"near-equal traces with incompatible character values: "
                f"word {W.format_letters(canon)}",
                DiscretenessSuspect)
            kept.append(cand)

    classes = []
    primitives: list[GeodesicClass] = []
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
    return Spectrum(classes=classes, cutoff_length=cutoff_length,
                    lattice_covolume=covolume, volume=volume,
                    max_word_len=max_word_len, complete=complete).validate()


# ---------------------------------------------------------------------------
# CSV round trip

def _fmt(x: float) -> str:
    return format(x, ".17g")


def format_spectrum(s: Spectrum) -> str:
    """The CSV text of a spectrum: header comments, then one row per class."""
    lines = [f"# cutoff={_fmt(s.cutoff_length)} covolume={_fmt(s.lattice_covolume)} "
             f"volume={_fmt(s.volume)}"]
    if s.max_word_len is not None or s.complete:
        lines.append(f"# max_word_len={s.max_word_len if s.max_word_len is not None else -1} "
                     f"complete={1 if s.complete else 0}")
    for c in s.classes:
        lines.append(",".join([
            _fmt(c.length), _fmt(c.holonomy),
            _fmt(c.char_value.real), _fmt(c.char_value.imag),
            _fmt(c.primitive_length), str(c.multiplicity),
            W.format_letters(c.word),
        ]))
    return "\n".join(lines) + "\n"


def save_spectrum(s: Spectrum, path):
    s.validate()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_spectrum(s))


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def load_spectrum(path) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith("# cutoff="):
        raise FormatError("missing spectrum header", line=1)
    try:
        head = dict(tok.split("=", 1) for tok in raw[0][2:].split())
        cutoff = _finite_float(head["cutoff"])
        covolume = _finite_float(head["covolume"])
        volume = _finite_float(head["volume"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}", line=1)
    max_word_len = None
    complete = False
    body_start = 1
    if len(raw) > 1 and raw[1].startswith("# max_word_len="):
        try:
            meta = dict(tok.split("=", 1) for tok in raw[1][2:].split())
            mwl = int(meta.get("max_word_len", -1))
        except ValueError as exc:
            raise FormatError(f"bad header: {exc}", line=2)
        max_word_len = None if mwl < 0 else mwl
        complete = meta.get("complete", "0") == "1"
        body_start = 2
    classes = []
    for lineno, line in enumerate(raw[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise FormatError("expected 7 comma-separated fields", line=lineno)
        try:
            length, theta, re_c, im_c, prim = (_finite_float(x) for x in parts[:5])
            mult = int(parts[5])
            word = W.parse_letters(parts[6], 26)
        except Exception as exc:
            raise FormatError(f"bad row: {exc}", line=lineno)
        cls = GeodesicClass(length=length, holonomy=theta,
                            char_value=complex(re_c, im_c),
                            primitive_length=prim, multiplicity=mult, word=word)
        try:
            cls.validate()
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno)
        classes.append(cls)
    return Spectrum(classes=classes, cutoff_length=cutoff,
                    lattice_covolume=covolume, volume=volume,
                    max_word_len=max_word_len, complete=complete).validate()


def figure_eight_generators():
    """The standard parabolic generator pair of the figure-eight knot
    group in PSL(2, C), plus cusp data for its maximal torus section."""
    om = cmath.exp(2j * math.pi / 3)
    a = MoebiusMatrix(1, 1, 0, 1)
    b = MoebiusMatrix(1, 0, -om, 1)
    return [a, b]
