"""The spectrum read path and the factorization check as they were
before each became one pass, kept as test oracles.

`load_spectrum` parses every number through `_finite_float`, every word
through a letter index rebuilt per row (`parse_letters`), validates
each row, and then `Spectrum.validate` checks the cutoff and the order
and validates every row again.  `fried_residual` sums the log Euler
product and each of the three `s_log` sums in a pass of its own, and
`fried_check` evaluates a whole Euler product to read its tail bound.
The edits to the bodies: `load_spectrum` calls the `parse_letters`
below, a copy of the letter parser it once shared with presentation
files, keeps the word as its letter text, as the package does, applies the Delta rule at every length,
where `GeodesicClass.validate` now evaluates it only for short classes,
and refuses a header line that repeats a key, as the package does.

`weights` and `log_euler_product` are the per-class Ruelle weights and
the log Euler product those sums are made of; `ruelle.fried_residual`
computes both inline.
"""

import cmath
import math
from dataclasses import dataclass

from cuspedzeta import ruelle
from cuspedzeta.errors import InputError
from cuspedzeta.ruelle import TruncationReport, _tail_bound
from cuspedzeta.spectrum import GeodesicClass, Spectrum


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
            # the Delta rule at every length, where `validate` evaluates
            # it only below DELTA_RULE_BELOW
            if not weights(cls).delta > 0:
                raise InputError(f"length {length} and holonomy {theta} "
                                 f"give det(1 - P) = 0 to rounding")
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


def fried_check(s: Spectrum, z: complex) -> tuple[float, float]:
    """(residual, tail bound) as `fried check` printed them."""
    residual = fried_residual(s, z)
    tail = ruelle.euler_product(s, z).tail_bound
    return residual, tail
