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


def necklace_walk(values, max_len: int, mul):
    """Depth-first walk over the freely reduced prenecklaces of length
    1..max_len: the Fredricksen-Kessler-Maiorana recursion with the
    inverse of the previous letter skipped.

    Letters are indices: letter i is ``sorted((g, e))[i]`` over the
    generators g and the exponents e = -1, 1, so index order is word
    order and letter i ^ 1 is the inverse of letter i.  ``values[i]``
    is the value of letter i, one per letter, and ``mul(x, y)`` the
    product of two values; each word carries the product of its
    letters' values, taken left to right, down the walk.

    Yields ``(indices, product)`` for the words that are their own
    ``canonical_conjugacy_form`` (the length is a multiple of the longest
    Lyndon prefix, and the last letter does not cancel the first), so
    each free conjugacy class of cyclically reduced length <= max_len
    comes exactly once, in pre-order.
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


# (generator, exponent) -> its letter, for the generators a-z
_LETTER_TEXT = {letter: ch for ch, letter in _alphabet(26).items()}


def format_letters(word: GroupWord, names=None) -> str:
    if names is None:
        return "".join(map(_LETTER_TEXT.__getitem__, word))
    out = []
    for g, e in word:
        nm = names[g]
        out.append(nm if e == 1 else nm.upper())
    return "".join(out)
