"""Words in a finitely generated group.

A word is a tuple of ``(generator_index, exponent)`` pairs with exponent
+1 or -1.  The empty tuple is the identity.  Letter strings use the
convention that a lowercase letter is a generator and the corresponding
uppercase letter its inverse.
"""

from __future__ import annotations

import functools

from .errors import InputError

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


def cyclic_reduce(word: GroupWord) -> GroupWord:
    """Freely reduce, then strip cancelling first/last letters."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def inverse(word: GroupWord) -> GroupWord:
    return tuple((g, -e) for g, e in reversed(word))


def cyclic_rotations(word: GroupWord):
    for i in range(max(1, len(word))):
        yield word[i:] + word[:i]


def canonical_conjugacy_form(word: GroupWord) -> GroupWord:
    """Least cyclic rotation of the cyclic reduction; a canonical
    representative of the free-conjugacy class."""
    w = cyclic_reduce(word)
    if not w:
        return w
    return min(cyclic_rotations(w))


def necklace_walk(n_generators: int, max_len: int):
    """Depth-first walk over the freely reduced prenecklaces of length
    1..max_len: the Fredricksen-Kessler-Maiorana recursion with the
    letters in ``sorted`` order and the inverse of the previous letter
    skipped.

    Yields ``(word, is_class)`` for every prenecklace.  ``is_class``
    marks the words that are their own ``canonical_conjugacy_form``
    (the length is a multiple of the longest Lyndon prefix, and the
    last letter does not cancel the first), so each free conjugacy
    class of cyclically reduced length <= max_len is marked exactly
    once.  The walk is in pre-order: a word's prefix one letter shorter
    is the last word yielded at that length, so a caller can carry a
    running product in a list indexed by length.
    """
    if max_len < 1:
        raise ValueError(f"maximum word length {max_len} is below 1")
    letters = sorted((g, e) for g in range(n_generators) for e in (-1, 1))
    # letter i and letter i ^ 1 are mutually inverse: (g, -1) < (g, 1)
    # stack entries: (letter indices, word, longest Lyndon prefix length)
    stack = [((i,), (letters[i],), 1) for i in reversed(range(len(letters)))]
    while stack:
        idx, word, p = stack.pop()
        n = len(idx)
        yield word, n % p == 0 and idx[0] != idx[-1] ^ 1
        if n == max_len:
            continue
        ref = idx[n - p]
        for j in reversed(range(ref, len(letters))):
            if j != idx[-1] ^ 1:
                stack.append((idx + (j,), word + (letters[j],),
                              p if j == ref else n + 1))


@functools.cache
def _alphabet(n_generators: int) -> dict:
    """Letter -> (generator, exponent) for the first ``n_generators``
    lowercase letters and their uppercase inverses."""
    table = {}
    for i in range(min(n_generators, 26)):
        low = chr(ord("a") + i)
        table[low] = (i, 1)
        table[low.upper()] = (i, -1)
    return table


def parse_letters(text: str, n_generators: int, names=None,
                  line=None, col_offset=0) -> GroupWord:
    """Parse a letter string like ``abAB`` into a word.

    When ``names`` is given they name the generators; otherwise the
    first ``n_generators`` letters of the alphabet are used.
    """
    if names is None:
        try:
            return tuple(map(_alphabet(n_generators).__getitem__, text))
        except KeyError:  # the loop below names the offending letter
            names = [chr(ord("a") + i) for i in range(n_generators)]
    index = {nm: i for i, nm in enumerate(names)}
    letters: list[Letter] = []
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low not in index:
            raise InputError(
                f"unknown generator letter {ch!r}", line=line,
                column=col_offset + pos + 1)
        letters.append((index[low], 1 if ch.islower() else -1))
    return tuple(letters)


def format_letters(word: GroupWord, names=None) -> str:
    if names is None:
        hi = max((g for g, _ in word), default=-1)
        names = [chr(ord("a") + i) for i in range(hi + 1)]
    out = []
    for g, e in word:
        nm = names[g]
        out.append(nm if e == 1 else nm.upper())
    return "".join(out)
