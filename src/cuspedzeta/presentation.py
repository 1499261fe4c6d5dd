"""Group presentations with an integral height map, a root-of-unity
character, peripheral data, and the twisted Fox derivatives of a relator.

The presentation file grammar (UTF-8, line oriented)::

    # comment
    gens a b
    rel abAB...
    peri word
    eps 1 1
    rho n=5: 1 2
    vol 2.03       (optional)

Generators are named by the letters a-z, and words are letter strings,
uppercase meaning inverse.  Parsing then serializing then parsing is
the identity.

A character value rho(w) is kept as its exponent mod n, never as a
field element: `fox_row` counts the powers of zeta_n at each height
and hands the counts to `LaurentPoly.from_zeta_counts`, so how an
element of Q(zeta_n) is stored is known in `laurent` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .cyclotomic import euler_phi
from .errors import InputError
from .laurent import LaurentPoly

# Largest rho modulus a presentation file may ask for.  The exact side
# costs grow fast with n (inverting in Q(zeta_n) multiplies phi(n) - 1
# conjugates), and cyclotomic_polynomial(n) alone builds n + 1 terms.
MAX_MODULUS = 500

# Most integers that one Fox derivative of a relator may hold: the span
# of the relator's prefix heights in powers of t, times phi(n), as each
# power is a row of phi(n) integers.  The cost grows linearly with both:
# on `rel abAB` with `eps E 1` (span E + 2), verify took 0.13 s and
# 26 MB at E = 10^4 and n = 1, 0.79 s and 56 MB at E = 10^5 and n = 1,
# and 30 s and 252 MB at E = 9,998 and n = 499 (2 CPUs, Python 3.11).
# At n = 1 this bounds the span alone.  Each fixture relator spans 4
# powers: 1,992 integers at n = 499.
MAX_HEIGHT_SPAN = 10_000

# A word is a tuple of (generator index, exponent) letters, exponent +1
# or -1; the empty tuple is the identity.
Letter = tuple[int, int]
GroupWord = tuple[Letter, ...]


def free_reduce(letters) -> GroupWord:
    """Cancel adjacent x x^-1 pairs until none remain."""
    out: list[Letter] = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def parse_letters(text: str, names, line=None, col_offset=0) -> GroupWord:
    """Parse a letter string like ``abAB`` into a word on the generators
    ``names``, each a letter a-z; its uppercase letter is its inverse."""
    index = {}
    for i, nm in enumerate(names):
        index[nm] = (i, 1)
        index[nm.upper()] = (i, -1)
    letters: list[Letter] = []
    for pos, ch in enumerate(text):
        letter = index.get(ch)
        if letter is None:
            raise InputError(
                f"unknown generator letter {ch!r}", line=line,
                column=col_offset + pos + 1)
        letters.append(letter)
    return tuple(letters)


def format_letters(word: GroupWord, names) -> str:
    return "".join(names[g] if e == 1 else names[g].upper() for g, e in word)


@dataclass(frozen=True)
class Epsilon:
    """Surjection to the integers, given by its values on generators."""

    values: tuple[int, ...]

    def of(self, word: GroupWord) -> int:
        return sum(self.values[g] * e for g, e in word)


@dataclass(frozen=True)
class UnitCharacter:
    """Character into the n-th roots of unity; generator i maps to
    zeta_n ** exponents[i]."""

    modulus: int
    exponents: tuple[int, ...]

    def exponent_of(self, word: GroupWord) -> int:
        return sum(self.exponents[g] * e for g, e in word) % self.modulus

    def is_trivial_on(self, word: GroupWord) -> bool:
        return self.exponent_of(word) == 0

    @property
    def is_trivial(self) -> bool:
        return all(e % self.modulus == 0 for e in self.exponents)


@dataclass(frozen=True)
class GroupPresentation:
    generator_names: tuple[str, ...]
    relators: tuple[GroupWord, ...]
    peripheral_words: tuple[GroupWord, ...] = ()
    volume: float | None = None

    @property
    def arity(self) -> int:
        return len(self.generator_names)


def fox_row(word: GroupWord, rho: UnitCharacter, eps: Epsilon) -> list[LaurentPoly]:
    """The Fox derivatives of `word` with respect to every generator,
    in generator order, under the ring map sending a word w to
    rho(w) t^eps(w).

    One pass over the word, carrying the prefix's character exponent
    mod n and its height: a letter x_i after the prefix p adds
    rho(p) t^eps(p) to the i-th derivative, and a letter x_i^-1
    subtracts rho(p x_i^-1) t^eps(p x_i^-1) from it.  Each derivative
    satisfies d(uv) = du + rho(u) t^eps(u) dv.
    """
    n = rho.modulus
    # per generator: height -> integer coefficient of each power of zeta_n
    terms: list[dict[int, list[int]]] = [{} for _ in rho.exponents]
    r = h = 0
    for g, e in word:
        if e < 0:
            r = (r - rho.exponents[g]) % n
            h -= eps.values[g]
        terms[g].setdefault(h, [0] * n)[r] += e
        if e > 0:
            r = (r + rho.exponents[g]) % n
            h += eps.values[g]
    return [LaurentPoly.from_zeta_counts(n, t) for t in terms]


def peripheral_trivial(p: GroupPresentation, rho: UnitCharacter) -> bool:
    """The delta indicator: does rho restrict trivially to the cusp
    subgroup generated by the peripheral words?"""
    if not p.peripheral_words:
        raise InputError("presentation carries no peripheral words")
    return all(rho.is_trivial_on(w) for w in p.peripheral_words)


# ---------------------------------------------------------------------------
# file format


def parse_presentation(text: str):
    """Parse a presentation file into (GroupPresentation, Epsilon,
    UnitCharacter), validating every invariant.  Validation failures are
    aggregated into a single InputError."""
    names: list[str] | None = None
    relators: list[GroupWord] = []
    peripheral: list[GroupWord] = []
    eps_values: list[int] | None = None
    rho_mod: int | None = None
    rho_exps: list[int] | None = None
    volume: float | None = None
    once: dict[str, int] = {}  # the line of each keyword that may not repeat

    def need_gens(lineno):
        if names is None:
            raise InputError("word line before 'gens'", line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw in once:
            raise InputError(f"repeated '{kw}' line, first given on line {once[kw]}",
                             line=lineno)
        if kw in ("gens", "eps", "rho", "vol"):
            once[kw] = lineno
        if kw == "gens":
            if len(parts) < 2:
                raise InputError("'gens' needs at least one name", line=lineno)
            names = parts[1:]
            for nm in names:
                # ASCII only: 'ß'.upper() is 'SS', which would not parse back
                if len(nm) != 1 or not "a" <= nm <= "z":
                    raise InputError(
                        f"generator name {nm!r} must be a single letter a-z", line=lineno)
        elif kw in ("rel", "peri"):
            need_gens(lineno)
            if len(parts) != 2:
                raise InputError(f"'{kw}' needs exactly one word", line=lineno)
            col = raw.index(parts[1], raw.index(kw) + len(kw))
            word = free_reduce(parse_letters(parts[1], names, line=lineno,
                                             col_offset=col))
            (relators if kw == "rel" else peripheral).append(word)
        elif kw == "eps":
            need_gens(lineno)
            try:
                eps_values = [int(x) for x in parts[1:]]
            except ValueError as exc:
                raise InputError(f"bad integer in 'eps': {exc}", line=lineno)
        elif kw == "rho":
            need_gens(lineno)
            rest = line[len("rho"):].strip()
            if not rest.startswith("n="):
                raise InputError("'rho' line must read 'rho n=<int>: <int>+'",
                                 line=lineno)
            head, sep, tail = rest.partition(":")
            if not sep:
                raise InputError("missing ':' in 'rho' line", line=lineno)
            try:
                rho_mod = int(head[2:].strip())
                rho_exps = [int(x) for x in tail.split()]
            except ValueError as exc:
                raise InputError(f"bad integer in 'rho': {exc}", line=lineno)
            if rho_mod < 1:
                raise InputError("rho modulus must be positive", line=lineno)
            if rho_mod > MAX_MODULUS:
                raise InputError(
                    f"rho modulus {rho_mod} is above the limit {MAX_MODULUS}", line=lineno)
        elif kw == "vol":
            if len(parts) != 2:
                raise InputError("'vol' needs one float", line=lineno)
            try:
                volume = float(parts[1])
            except ValueError as exc:
                raise InputError(f"bad float in 'vol': {exc}", line=lineno)
            if not volume > 0:
                raise InputError("volume must be positive", line=lineno)
            if not math.isfinite(volume):
                raise InputError("volume must be finite", line=lineno)
        else:
            raise InputError(f"unknown keyword {kw!r}", line=lineno)

    if names is None:
        raise InputError("missing 'gens' line")
    if eps_values is None:
        raise InputError("missing 'eps' line")
    if rho_mod is None:
        raise InputError("missing 'rho' line")

    problems: list[str] = []
    if len(set(names)) != len(names):
        problems.append("generator names are not unique")
    if len(eps_values) != len(names):
        problems.append(f"eps has {len(eps_values)} values for {len(names)} generators")
    if rho_exps is None or len(rho_exps) != len(names):
        problems.append(f"rho has {0 if rho_exps is None else len(rho_exps)} exponents "
                        f"for {len(names)} generators")
    if problems:
        raise InputError("; ".join(problems))

    eps = Epsilon(tuple(eps_values))
    rho = UnitCharacter(rho_mod, tuple(e % rho_mod for e in rho_exps))
    pres = GroupPresentation(tuple(names), tuple(relators), tuple(peripheral), volume)

    if not eps.values or math.gcd(*(abs(v) for v in eps.values)) != 1:
        problems.append("eps is not surjective (gcd of values is not 1)")
    phi = euler_phi(rho_mod)
    for idx, r in enumerate(relators):
        heights = list(accumulate((eps.values[g] * e for g, e in r), initial=0))
        span = max(heights) - min(heights) + 1
        if span * phi > MAX_HEIGHT_SPAN:
            per_power = "" if phi == 1 else (
                f", each phi({rho_mod}) = {phi} integers, {span * phi} in all")
            problems.append(f"relator {idx + 1} ({format_letters(r, names)}) spans {span} "
                            f"powers of t{per_power}, above the limit {MAX_HEIGHT_SPAN}")
        if eps.of(r) != 0:
            problems.append(f"eps does not kill relator {idx + 1} "
                            f"({format_letters(r, names)}): eps={eps.of(r)}")
        if rho.exponent_of(r) != 0:
            problems.append(f"rho is nontrivial on relator {idx + 1} "
                            f"({format_letters(r, names)}): exponent "
                            f"{rho.exponent_of(r)} mod {rho.modulus}")
    if problems:
        raise InputError("; ".join(problems))
    return pres, eps, rho


def serialize_presentation(p: GroupPresentation, eps: Epsilon, rho: UnitCharacter) -> str:
    lines = ["gens " + " ".join(p.generator_names)]
    for r in p.relators:
        lines.append("rel " + format_letters(r, p.generator_names))
    for w in p.peripheral_words:
        lines.append("peri " + format_letters(w, p.generator_names))
    lines.append("eps " + " ".join(str(v) for v in eps.values))
    lines.append(f"rho n={rho.modulus}: " + " ".join(str(e) for e in rho.exponents))
    if p.volume is not None:
        lines.append(f"vol {p.volume!r}")
    return "\n".join(lines) + "\n"
