"""Words over a symmetrized alphabet X^± = {x_1^±, ..., x_m^±}.

Letters are nonzero signed integers: ``+i`` stands for the generator x_i and
``-i`` for its inverse, so negation is a constant-time formal inverse.  The
module provides exact reduction, enumeration, counting and uniform sampling
of reduced and cyclically reduced words.

Counting is exact and in closed form: 2m(2m-1)^(L-1) reduced words and
(2m-1)^L + m + (m-1)(-1)^L cyclically reduced words of length L, and the
geometric sum of the latter for B_l, so a count builds no table.  Unranking
inverts the length-then-lex order with closed forms too: a letter's branch
holds the same number of words as every other branch at that step but one,
which holds one more or one fewer, so a letter is one divmod.  The tables
hold O(m^2 + maxlen) integers, none per word, so huge universes are
addressed by index without being enumerated.  A uniform sample is the word
of a uniform rank.  Words built by the samplers are valid by construction
and skip the letter check; ``Word`` and the text and file readers keep it.

``min_cyclic_rotation``, the canonical rotation used as a dictionary key
by the probes, compares only the rotations that start at the least
letter, as slices of the doubled word.

Text form: generators spell as ``a``..``z`` and inverses as ``A``..``Z``,
e.g. ``aBa`` is x1 x2^-1 x1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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

    def text(self) -> str:
        return word_to_text(self)


EMPTY_WORD = Word(())

_set_letters = Word.letters.__set__


def _trusted_word(letters: tuple[int, ...]) -> Word:
    """A Word over letters the caller built valid, made without checking
    them again: the samplers' path."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    return w


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
# Ranks of B_l.


class _WordTables:
    """Length-then-lex ranks of B_maxlen, all from closed forms.

    Let q = 2m-1 and a be the first letter, which starts C_L/2m of the C_L
    words of length L.  A reduced word of n letters from s ends in a letter
    t != s^±1 in (q^(n-1) - (-1)^(n-1))/2m ways, and in s in one more way
    than in s^-1.  So after a letter x with r letters still to follow, every
    next letter y != x^-1 has ``weights[r]`` = q^r - (q^r - (-1)^r)/2m
    completions that do not end in a^-1, except one: a has one more when r
    is odd, a^-1 one fewer when r is even.  ``after[x]`` lists the letters
    allowed after x in ascending order, and ``exception[a][r % 2][x]`` the
    position of that exception among them (2m if absent); both are indexed
    by signed letter, a negative one from the end."""

    def __init__(self, m: int, maxlen: int):
        self.m = m
        self.total = count_cyclically_reduced_upto(m, maxlen)
        self.cumulative = list(accumulate(
            (count_cyclically_reduced_exact(m, length) for length in range(1, maxlen + 1)),
            initial=0))
        n, q = 2 * m, 2 * m - 1
        self.weights = [q ** r - (q ** r - (-1) ** r) // n for r in range(maxlen)]
        self.letters = tuple(x for x in range(-m, m + 1) if x)
        self.after = [tuple(y for y in self.letters if y != -x)
                      for x in (0, *range(1, m + 1), *range(-m, 0))]
        self.exception = [None] * (n + 1)
        for a in self.letters:
            self.exception[a] = tuple([row.index(e) if e in row else n for row in self.after]
                                      for e in (-a, a))

    def unrank(self, index: int) -> Word:
        """The index-th word in length-then-lex order, 0 <= index < total."""
        if not 0 <= index < self.total:
            raise DomainError(f"index {index} out of range [0, {self.total})")
        cumulative = self.cumulative
        length = bisect_right(cumulative, index)
        start = cumulative[length - 1]
        i, offset = divmod(index - start, (cumulative[length] - start) // (2 * self.m))
        x = self.letters[i]
        out = [x]
        after, weights = self.after, self.weights
        even, odd = self.exception[x]
        for r in range(length - 2, -1, -1):
            w = weights[r]
            i, offset = divmod(offset, w)
            # Past the exception, at position odd[x] or even[x], every
            # letter starts one later (r odd) or one earlier (r even).
            if r & 1:
                p = odd[x]
                if i > p:
                    if offset:
                        offset -= 1
                    else:
                        i -= 1
                        offset = w if i == p else w - 1
            elif i >= even[x]:
                if offset == w - 1:
                    i += 1
                    offset = 0
                elif i > even[x]:
                    offset += 1
            x = after[x][i]
            out.append(x)
        return _trusted_word(tuple(out))


@lru_cache(maxsize=64)
def word_tables(m: int, maxlen: int) -> _WordTables:
    return _WordTables(m, maxlen)


def count_cyclically_reduced_exact(m: int, length: int) -> int:
    """(2m-1)^L + m + (m-1)(-1)^L for L >= 1: the trace of the L-th power of the
    letter-succession matrix, whose eigenvalues are 2m-1, 1 (m times), -1 (m-1)."""
    if m < 2 or length < 0:
        raise DomainError(f"need m >= 2 and length >= 0, got m={m}, length={length}")
    if length == 0:
        return 1
    return (2 * m - 1) ** length + m + (m - 1) * (-1) ** length


def count_cyclically_reduced_upto(m: int, maxlen: int) -> int:
    """|B_maxlen|: cyclically reduced words of length 1..maxlen. Summed over
    L, the closed form gives q(q^l - 1)/(q - 1) + m l - (m-1)(l mod 2) with
    q = 2m-1 and l = maxlen."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if maxlen < 1:
        raise DomainError(f"maxlen must be >= 1, got {maxlen}")
    q = 2 * m - 1
    return q * (q ** maxlen - 1) // (q - 1) + m * maxlen - (m - 1) * (maxlen % 2)


def reduced_words(m: int, length: int) -> Iterator[tuple[int, ...]]:
    """Yield the letters of every reduced word of exactly ``length`` letters
    over x_1..x_m, in ascending signed lex order.

    Depth first over an explicit stack of prefixes: a prefix's extensions
    are pushed in descending order, so they pop in ascending order. The
    stack never holds more than 2m prefixes per letter of ``length``, so
    the words stream without a list per level."""
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    descending = [x for x in range(m, -m - 1, -1) if x]
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == length:
            yield prefix
        else:
            back = -prefix[-1] if prefix else 0
            stack.extend(prefix + (x,) for x in descending if x != back)


def cyclically_reduced_words(m: int, length: int) -> Iterator[Word]:
    """The cyclically reduced words of exactly ``length`` letters in ascending
    signed lex order; the arguments are checked at the call, the words stream."""
    if m < 2 or length < 1:
        raise DomainError(f"need m >= 2 and length >= 1, got m={m}, length={length}")
    return (Word(w) for w in reduced_words(m, length) if w[0] != -w[-1])


def enumerate_cyclically_reduced(m: int, maxlen: int) -> Iterator[Word]:
    """Yield every element of B_maxlen once, in length-then-lex order."""
    if m < 2 or maxlen < 1:
        raise DomainError(f"need m >= 2 and maxlen >= 1, got m={m}, maxlen={maxlen}")
    if (2 * m - 1) ** maxlen > ENUMERATION_LIMIT:
        raise FeasibilityError(
            f"enumeration of B_{maxlen} over {2*m} letters exceeds limit "
            f"({(2*m-1)**maxlen} > {ENUMERATION_LIMIT})",
            estimate=(2 * m - 1) ** maxlen,
        )
    for length in range(1, maxlen + 1):
        yield from cyclically_reduced_words(m, length)


def sample_cyclically_reduced(m: int, maxlen: int, seed_or_rng) -> Word:
    """Exactly uniform draw from B_maxlen; deterministic given (m, maxlen, seed)."""
    tables = word_tables(m, maxlen)
    return tables.unrank(as_rng(seed_or_rng).randrange(tables.total))


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
    """Lexicographically least rotation.

    The least rotation starts at an occurrence of the least letter, so only
    those rotations are compared, as slices of the doubled word. That is
    O(n k) for k occurrences, quadratic on a power of one letter, but the
    scans and comparisons run in C and beat a linear-time Python loop
    (Booth's algorithm) on the short words sampled here."""
    n = len(letters)
    if n < 2:
        return letters
    least = min(letters)
    doubled = letters + letters
    start = letters.index(least)
    best = doubled[start:start + n]
    for _ in range(letters.count(least) - 1):
        start = letters.index(least, start + 1)
        rotation = doubled[start:start + n]
        if rotation < best:
            best = rotation
    return best


def canonical_cyclic(w: Word | Iterable[int]) -> Word:
    """Least representative over all rotations of w and of its inverse."""
    letters = w.letters if isinstance(w, Word) else tuple(w)
    inv = tuple(-x for x in reversed(letters))
    return Word(min(min_cyclic_rotation(letters), min_cyclic_rotation(inv)))
