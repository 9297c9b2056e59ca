"""Words over a symmetrized alphabet X^± = {x_1^±, ..., x_m^±}.

Letters are nonzero signed integers: ``+i`` stands for the generator x_i and
``-i`` for its inverse, so negation is a constant-time formal inverse.  The
module provides exact reduction, enumeration, counting and uniform sampling
of reduced and cyclically reduced words.

Counting is exact: the number of reduced words of length L is
2m(2m-1)^(L-1), while cyclically reduced words are counted per length by a
dynamic program keyed on (first letter, current last letter).  The same
tables drive exactly-uniform sampling and unranking, so huge universes can
be addressed by integer index without being enumerated.

Text form: generators spell as ``a``..``z`` and inverses as ``A``..``Z``,
e.g. ``aBa`` is x1 x2^-1 x1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DomainError, FeasibilityError, MalformedWordError
from .seeds import as_rng

ENUMERATION_LIMIT = 10_000_000


def _check_letters(letters: tuple[int, ...]) -> None:
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise MalformedWordError(f"invalid letter {x!r}: letters are nonzero signed ints")


@dataclass(frozen=True, slots=True)
class Word:
    """An immutable word; not necessarily reduced."""

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _check_letters(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __repr__(self) -> str:
        return f"Word({self.text()})" if self.letters else "Word()"

    def is_reduced(self) -> bool:
        ls = self.letters
        return all(ls[i] != -ls[i + 1] for i in range(len(ls) - 1))

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        if not ls:
            return True
        return self.is_reduced() and ls[0] != -ls[-1]

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def rotate(self, k: int) -> "Word":
        ls = self.letters
        if not ls:
            return self
        k %= len(ls)
        return Word(ls[k:] + ls[:k])

    def text(self) -> str:
        return word_to_text(self)


EMPTY_WORD = Word(())


@dataclass(frozen=True, slots=True)
class Alphabet:
    """The symmetrized generating set; m >= 2 generators."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"need at least 2 generators, got m={self.m}")

    def letters(self) -> tuple[int, ...]:
        m = self.m
        return tuple(range(-m, 0)) + tuple(range(1, m + 1))

    def validate(self, w: Word | Iterable[int]) -> None:
        validate_word(w, self.m)


def validate_word(w: Word | Iterable[int], m: int) -> None:
    letters = w.letters if isinstance(w, Word) else tuple(w)
    _check_letters(letters)
    for x in letters:
        if abs(x) > m:
            raise MalformedWordError(f"letter {x} out of range for m={m}")


def as_word(w: Word | Iterable[int]) -> Word:
    return w if isinstance(w, Word) else Word(tuple(w))


def free_reduce(w: Word | Iterable[int], m: int | None = None) -> Word:
    """Cancel all adjacent inverse pairs; the result is reduced."""
    letters = w.letters if isinstance(w, Word) else tuple(w)
    _check_letters(letters)
    if m is not None:
        validate_word(letters, m)
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return Word(tuple(out))


def cyclic_reduce_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic reduction kernel on trusted letters, without validation:
    freely reduce, then strip mutually inverse first/last letters."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i += 1
        j -= 1
    return tuple(out[i:j])


def cyclic_reduce(w: Word | Iterable[int], m: int | None = None) -> Word:
    """Freely reduce, then strip mutually inverse first/last letters."""
    letters = w.letters if isinstance(w, Word) else tuple(w)
    _check_letters(letters)
    if m is not None:
        validate_word(letters, m)
    return Word(cyclic_reduce_letters(letters))


def count_reduced_exact(m: int, length: int) -> int:
    """Number of reduced words of length exactly ``length``: 2m(2m-1)^(L-1)."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    if length == 0:
        return 1
    return 2 * m * (2 * m - 1) ** (length - 1)


# ---------------------------------------------------------------------------
# Counting tables.  Letters are indexed 0..2m-1 in ascending signed order
# (-m..-1, 1..m); the inverse of index j is 2m-1-j.


def _index_letter(j: int, m: int) -> int:
    return j - m if j < m else j - m + 1


class _WordTables:
    """Exact count tables for cyclically reduced words of length <= maxlen."""

    def __init__(self, m: int, maxlen: int):
        if m < 2:
            raise DomainError(f"m must be >= 2, got {m}")
        if maxlen < 1:
            raise DomainError(f"maxlen must be >= 1, got {maxlen}")
        self.m = m
        self.maxlen = maxlen
        n = 2 * m
        inv = [n - 1 - j for j in range(n)]
        self.inv = inv

        # back[a][rem][c]: completions of a reduced word with first letter a
        # and current last letter c by rem more letters, final letter != inv(a).
        self.back: list[list[list[int]]] = []
        self.row_total: list[list[int]] = []
        for a in range(n):
            rows = [[1 if c != inv[a] else 0 for c in range(n)]]
            for _ in range(1, maxlen):
                prev = rows[-1]
                tot = sum(prev)
                rows.append([tot - prev[inv[c]] for c in range(n)])
            self.back.append(rows)
            self.row_total.append([sum(row) for row in rows])

        # Cyclically reduced count per exact length (empty word excluded).
        self.count_by_len = [0] * (maxlen + 1)
        for length in range(1, maxlen + 1):
            self.count_by_len[length] = sum(
                self.back[a][length - 1][a] for a in range(n)
            )
        self.cumulative = [0] * (maxlen + 1)
        for length in range(1, maxlen + 1):
            self.cumulative[length] = self.cumulative[length - 1] + self.count_by_len[length]
        self.total = self.cumulative[maxlen]

    def _first_letter(self, length: int, offset: int) -> tuple[int, int]:
        rem = length - 1
        for c in range(2 * self.m):
            w = self.back[c][rem][c]
            if offset < w:
                return c, offset
            offset -= w
        raise AssertionError("offset exceeded first-letter weights")

    def _next_letter(self, first: int, last: int, rem: int, offset: int) -> tuple[int, int]:
        banned = self.inv[last]
        row = self.back[first][rem]
        for c in range(2 * self.m):
            if c == banned:
                continue
            if offset < row[c]:
                return c, offset
            offset -= row[c]
        raise AssertionError("offset exceeded next-letter weights")

    def sample(self, rng) -> Word:
        """Draw a uniform element of B_maxlen."""
        target = rng.randrange(self.total)
        length = bisect.bisect_right(self.cumulative, target)
        first, _ = self._first_letter(length, rng.randrange(self.count_by_len[length]))
        out = [first]
        for pos in range(1, length):
            rem = length - pos - 1
            last = out[-1]
            total = self.row_total[first][rem] - self.back[first][rem][self.inv[last]]
            c, _ = self._next_letter(first, last, rem, rng.randrange(total))
            out.append(c)
        return Word(tuple(_index_letter(c, self.m) for c in out))

    def unrank(self, index: int) -> Word:
        """The index-th word in length-then-lex order, 0 <= index < total."""
        if not 0 <= index < self.total:
            raise DomainError(f"index {index} out of range [0, {self.total})")
        length = bisect.bisect_right(self.cumulative, index)
        offset = index - self.cumulative[length - 1]
        first, offset = self._first_letter(length, offset)
        out = [first]
        for pos in range(1, length):
            rem = length - pos - 1
            c, offset = self._next_letter(first, out[-1], rem, offset)
            out.append(c)
        return Word(tuple(_index_letter(c, self.m) for c in out))


@lru_cache(maxsize=64)
def word_tables(m: int, maxlen: int) -> _WordTables:
    return _WordTables(m, maxlen)


def count_cyclically_reduced_exact(m: int, length: int) -> int:
    if length == 0:
        return 1
    return word_tables(m, length).count_by_len[length]


def count_cyclically_reduced_upto(m: int, maxlen: int) -> int:
    """|B_maxlen|: cyclically reduced words of length 1..maxlen."""
    return word_tables(m, maxlen).total


def enumerate_cyclically_reduced(
    m: int, maxlen: int, *, limit: int = ENUMERATION_LIMIT
) -> Iterator[Word]:
    """Yield every element of B_maxlen once, in length-then-lex order."""
    if m < 2 or maxlen < 1:
        raise DomainError(f"need m >= 2 and maxlen >= 1, got m={m}, maxlen={maxlen}")
    if (2 * m - 1) ** maxlen > limit:
        raise FeasibilityError(
            f"enumeration of B_{maxlen} over {2*m} letters exceeds limit "
            f"({(2*m-1)**maxlen} > {limit})",
            estimate=(2 * m - 1) ** maxlen,
        )
    alphabet = sorted(range(-m, 0)) + list(range(1, m + 1))

    def rec(prefix: list[int], length: int):
        if len(prefix) == length:
            if prefix[0] != -prefix[-1]:
                yield Word(tuple(prefix))
            return
        for x in alphabet:
            if prefix and x == -prefix[-1]:
                continue
            prefix.append(x)
            yield from rec(prefix, length)
            prefix.pop()

    for length in range(1, maxlen + 1):
        for x in alphabet:
            yield from rec([x], length)


def sample_cyclically_reduced(m: int, maxlen: int, seed_or_rng) -> Word:
    """Exactly uniform draw from B_maxlen; deterministic given (m, maxlen, seed)."""
    return word_tables(m, maxlen).sample(as_rng(seed_or_rng))


def word_at_index(m: int, maxlen: int, index: int) -> Word:
    """Inverse of the length-then-lex enumeration order."""
    return word_tables(m, maxlen).unrank(index)


# ---------------------------------------------------------------------------
# Text format.


def letter_to_char(x: int) -> str:
    if x == 0 or abs(x) > 26:
        raise MalformedWordError(f"letter {x} not representable as a..z/A..Z")
    return chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1)


def char_to_letter(ch: str) -> int:
    if len(ch) == 1 and "a" <= ch <= "z":
        return ord(ch) - ord("a") + 1
    if len(ch) == 1 and "A" <= ch <= "Z":
        return -(ord(ch) - ord("A") + 1)
    raise MalformedWordError(f"invalid word character {ch!r}")


def word_to_text(w: Word | Iterable[int]) -> str:
    letters = w.letters if isinstance(w, Word) else tuple(w)
    if not letters:
        return "1"
    return "".join(letter_to_char(x) for x in letters)


def word_from_text(s: str, m: int | None = None) -> Word:
    s = s.strip()
    if s in ("", "1"):
        return EMPTY_WORD
    w = Word(tuple(char_to_letter(ch) for ch in s))
    if m is not None:
        validate_word(w, m)
    return w


def min_cyclic_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation (Booth's algorithm, linear time)."""
    n = len(letters)
    if n == 0:
        return letters
    s = letters + letters
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:k + n]


def canonical_cyclic(w: Word | Iterable[int]) -> Word:
    """Least representative over all rotations of w and of its inverse."""
    letters = w.letters if isinstance(w, Word) else tuple(w)
    inv = tuple(-x for x in reversed(letters))
    return Word(min(min_cyclic_rotation(letters), min_cyclic_rotation(inv)))
