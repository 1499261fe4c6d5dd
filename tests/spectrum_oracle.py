"""The spectrum read path and the Fried factorization sums as they were
before each became one pass or left the package, kept as test oracles,
and a slow reference for the power-closure check.

`load_spectrum` parses every number through `_finite_float`, every word
through a letter index rebuilt per row (`parse_letters`), validates
each row, and then `Spectrum.validate` checks the cutoff and the order
and validates every row again.  The edits to its body: it calls the
`parse_letters` below, a copy of the letter parser it once shared with
presentation files, keeps the word as its letter text, as the package
does, and refuses a header line that repeats a key, as the package
does; the Delta rule, which refused a row with
1 - 2 e^{-l} cos(theta) + e^{-2l} rounding to 0, left with the Fried
weights it protected.

`fried_residual` is the defect of Fried's factorization
R(z) = S0(z) S0(z+2) / S1(z+1), summing the log Euler product and each
of the three `s_log` sums in a pass of its own.  `weights` and
`log_euler_product` are the per-class Ruelle weights and the log Euler
product those sums are made of.  Each row's terms cancel exactly,
a0 (1 + e^{-2l}) - a1 e^{-l} = rho l0, so the residual is rounding on
any rows at all: that is why `fried check` now checks power closure.
`single_orbit_spectrum` is the synthetic spectrum the factorization
tests ran on.

`power_closed` decides power closure by matching rows, with no sums
and no point z: the verdict `ruelle.power_closure` must reach.
"""

import cmath
import math
from dataclasses import dataclass

from cuspedzeta.errors import InputError
from cuspedzeta.ruelle import TruncationReport, _tail_bound
from cuspedzeta.spectrum import GeodesicClass, Spectrum, _canonical_angle


@dataclass(frozen=True)
class HyperbolicWeights:
    delta: float
    a0: complex
    a1: complex


def weights(c: GeodesicClass) -> HyperbolicWeights:
    """Per-class weights a0 = rho(g) l0 / Delta, a1 = a0 * 2 cos(theta),
    where Delta = det(I - A^s) = 1 - 2 e^{-l} cos(theta) + e^{-2l}."""
    el = math.exp(-c.length)
    delta = 1 - 2 * el * math.cos(c.holonomy) + el * el
    a0 = c.char_value * c.primitive_length / delta
    return HyperbolicWeights(delta=delta, a0=a0, a1=a0 * 2 * math.cos(c.holonomy))


def log_euler_product(s: Spectrum, z: complex) -> TruncationReport:
    """log R_rho(z) summed per class: the class g0^k contributes
    -rho(g)^k e^{-z k l0}/k = -rho(g) e^{-z l} l0/l, so the full class
    list (powers included) gives the principal branch sum directly."""
    tail = _tail_bound(s, z)
    total = 0j
    for c in s.classes:
        total -= c.char_value * cmath.exp(-z * c.length) \
            * c.primitive_length / c.length
    return TruncationReport(value=total, tail_bound=tail,
                            terms_used=len(s.classes))


def parse_letters(text: str, n_generators: int, names=None,
                  line=None, col_offset=0):
    if names is None:
        names = [chr(ord("a") + i) for i in range(n_generators)]
    index = {nm: i for i, nm in enumerate(names)}
    letters = []
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low not in index:
            raise InputError(
                f"unknown generator letter {ch!r}", line=line,
                column=col_offset + pos + 1)
        letters.append((index[low], 1 if ch.islower() else -1))
    return tuple(letters)


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text!r}")
    return v


def _header(line: str) -> dict:
    """The key=value tokens of a header line; a token without '=' or a
    repeated key raises ValueError."""
    tokens = line[2:].split()
    fields = dict(tok.split("=", 1) for tok in tokens)
    if len(fields) != len(tokens):
        raise ValueError("repeated header key")
    return fields


def load_spectrum(path) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith("# cutoff="):
        raise InputError("missing spectrum header", line=1)
    try:
        head = _header(raw[0])
        cutoff = _finite_float(head["cutoff"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad header: {exc}", line=1)
    max_word_len = None
    body_start = 1
    if len(raw) > 1 and raw[1].startswith("# max_word_len="):
        try:
            meta = _header(raw[1])
            mwl = int(meta.get("max_word_len", -1))
        except ValueError as exc:
            raise InputError(f"bad header: {exc}", line=2)
        max_word_len = None if mwl < 0 else mwl
        body_start = 2
    classes = []
    for lineno, line in enumerate(raw[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise InputError("expected 7 comma-separated fields", line=lineno)
        try:
            length, theta, re_c, im_c, prim = (_finite_float(x) for x in parts[:5])
            mult = int(parts[5])
            parse_letters(parts[6], 26)
            word = parts[6]
        except Exception as exc:
            raise InputError(f"bad row: {exc}", line=lineno)
        cls = GeodesicClass(length=length, holonomy=theta,
                            char_value=complex(re_c, im_c),
                            primitive_length=prim, multiplicity=mult, word=word)
        try:
            cls.validate()
        except InputError as exc:
            raise InputError(str(exc), line=lineno)
        classes.append(cls)
    return Spectrum(classes=classes, cutoff_length=cutoff,
                    max_word_len=max_word_len).validate()


def s_log(s: Spectrum, j: int, z: complex) -> complex:
    """log S_j(z) = -sum a_j(g) e^{-z l(g)} / l(g)."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    total = 0j
    for c in s.classes:
        w = weights(c)
        total -= (w.a0 if j == 0 else w.a1) * cmath.exp(-z * c.length) / c.length
    return total


def fried_residual(s: Spectrum, z: complex) -> float:
    """Defect of the factorization R(z) = S0(z) S0(z+2) / S1(z+1) on the
    truncated class set; zero up to the tail for a power-closed set."""
    lhs = log_euler_product(s, z).value
    rhs = s_log(s, 0, z) + s_log(s, 0, z + 2) - s_log(s, 1, z + 1)
    return abs(lhs - rhs)


def single_orbit_spectrum(length: float, holonomy: float, char_value: complex,
                          powers: int) -> Spectrum:
    """Synthetic spectrum of one primitive class and its powers
    1..powers, truncated at the cutoff powers * length like any other
    spectrum."""
    classes = []
    for k in range(1, powers + 1):
        classes.append(GeodesicClass(
            length=k * length, holonomy=_canonical_angle(holonomy * k),
            char_value=char_value ** k,
            primitive_length=length, multiplicity=k, word="a" * k))
    return Spectrum(classes=classes, cutoff_length=powers * length).validate()


def power_closed(s: Spectrum, tol: float = 1e-9) -> bool:
    """Whether the rows are the primitive rows and their powers under the
    cutoff, by matching.  Each primitive p expects its k-th power
    (k l_p, rho_p^k), k >= 2, for every k l_p up to the cutoff less the
    loader's 1e-9 slack; a row of multiplicity k and primitive length
    l_p matches it within `tol`, and each row matches once.  Every power
    row up to that length must be matched; a power row above it may be
    there or not.  A primitive with more powers under the cutoff than
    there are rows fails at once.  Every expected power scans every
    row."""
    edge = s.cutoff_length - 1e-9
    unmatched = [c for c in s.classes if c.multiplicity > 1
                 and c.multiplicity * c.primitive_length <= edge]
    for p in s.classes:
        if p.multiplicity > 1:
            continue
        if edge / p.length > len(s.classes) + 1:
            return False
        k = 2
        while k * p.length <= edge:
            want_length, want_char = k * p.length, p.char_value ** k
            for i, c in enumerate(unmatched):
                if (c.multiplicity == k
                        and abs(c.primitive_length - p.length) <= tol
                        and abs(c.length - want_length) <= tol
                        and abs(c.char_value - want_char) <= tol):
                    del unmatched[i]
                    break
            else:
                return False
            k += 1
    return not unmatched
