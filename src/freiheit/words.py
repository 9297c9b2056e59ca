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
which holds one more or one fewer.  The same holds for blocks of letters,
the exceptions being the blocks that end in that letter, so a step reads a
block of T letters with one divmod corrected by at most one, and the last
block with one bisect.  T is the longest block whose count tables fit
``_BLOCK_TABLE_LIMIT`` entries (5 at m = 2, 3 at m = 3, 1 from m = 5 on,
where they hold O(m^2) integers); the tables depend on m only and none is
per word, so huge universes are addressed by index without being
enumerated.  A uniform sample is the word of a uniform rank.  Words built
by the samplers are valid by construction and skip the letter check;
``Word`` and the text and file readers keep it.

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


# Unranking steps by the longest blocks whose count tables, (2m)^2 (2m-1)^t
# entries for blocks of t letters, fit this bound; by one letter if none do.
_BLOCK_TABLE_LIMIT = 5_000


@lru_cache(maxsize=64)
def _block_tables(m: int):
    """The tables a block step reads, which depend on m only.

    T is the largest t >= 1 with (2m)^2 (2m-1)^t <= ``_BLOCK_TABLE_LIMIT``.
    For t <= T, ``blocks[t][x]`` lists in ascending order the reduced blocks
    of t letters allowed after the letter x.  For the first letter a,
    ``by_first[a][t]`` holds three lists indexed by x: the number of the
    first k of those blocks that end in a^-1, the same for a, and p_j - j
    for the positions p_j of the blocks that end in a^-1.  Lists are
    indexed by signed letter, a negative one from the end, and equal
    tuples are stored once, which keeps T = 1 at O(m^2) entries."""
    n, q = 2 * m, 2 * m - 1
    size = 1
    while n * n * q ** (size + 1) <= _BLOCK_TABLE_LIMIT:
        size += 1
    letters = tuple(x for x in range(-m, m + 1) if x)
    single = {y: (y,) for y in letters}
    blocks = [None, [None] * (n + 1)]
    for x in letters:
        blocks[1][x] = tuple(single[y] for y in letters if y != -x)
    for t in range(2, size + 1):
        blocks.append([None] * (n + 1))
        for x in letters:
            blocks[t][x] = tuple(c + single[y] for c in blocks[t - 1][x]
                                 for y in letters if y != -c[-1])
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    counts, skips = {}, {}  # by (t, last letter), lists indexed by x
    for t in range(1, size + 1):
        for e in letters:
            counts[t, e], skips[t, e] = [None] * (n + 1), [None] * (n + 1)
            for x in letters:
                ends = [c[-1] == e for c in blocks[t][x]]
                prefix = tuple(accumulate(ends, initial=0))
                skip = tuple(p - j for j, p in enumerate(k for k, f in enumerate(ends) if f))
                counts[t, e][x] = interned.setdefault(prefix, prefix)
                skips[t, e][x] = interned.setdefault(skip, skip)
    by_first = [None] * (n + 1)
    for a in letters:
        by_first[a] = [None] + [(counts[t, -a], counts[t, a], skips[t, -a])
                                for t in range(1, size + 1)]
    return size, blocks, by_first


class _WordTables:
    """Length-then-lex ranks of B_maxlen, all from closed forms.

    Let q = 2m-1 and a be the first letter, which starts C_L/2m of the C_L
    words of length L.  A reduced word of n letters from s ends in a letter
    t != s^±1 in (q^(n-1) - (-1)^(n-1))/2m ways, and in s in one more way
    than in s^-1.  So a block of letters, with r letters still to follow
    it, has ``weights[r]`` = q^r - (q^r - (-1)^r)/2m completions that do
    not end in a^-1, one more if it ends in a and r is odd, one fewer if it
    ends in a^-1 and r is even.  Block k after the letter x thus starts
    k weights[r] ± E(k) completions in, E(k) counting the earlier blocks
    that end in that exception letter; E(k) <= q^(t-1) < weights[r] for a
    block of t <= r letters, so offset // weights[r] is off by at most one.
    A step reads a block of T letters (``_block_tables``), the first maybe
    a shorter one, so that T letters follow every block but the last; the
    last block is the offset-th allowed one that does not end in a^-1.
    ``plans[L]`` lists the (weights[r], t, r % 2) steps of length L and the
    last block's length."""

    def __init__(self, m: int, maxlen: int):
        self.m = m
        self.total = count_cyclically_reduced_upto(m, maxlen)
        self.cumulative = list(accumulate(
            (count_cyclically_reduced_exact(m, length) for length in range(1, maxlen + 1)),
            initial=0))
        n, q = 2 * m, 2 * m - 1
        weights = [q ** r - (q ** r - (-1) ** r) // n for r in range(maxlen)]
        size, self.blocks, self.by_first = _block_tables(m)
        self.letters = tuple(x for x in range(-m, m + 1) if x)
        self.plans = [None]
        for length in range(1, maxlen + 1):
            steps, r = [], length - 1
            while r > size:
                t = r % size or size
                r -= t
                steps.append((weights[r], t, r & 1))
            self.plans.append((tuple(steps), r))

    def unrank(self, index: int) -> Word:
        """The index-th word in length-then-lex order, 0 <= index < total."""
        if not 0 <= index < self.total:
            raise DomainError(f"index {index} out of range [0, {self.total})")
        cumulative = self.cumulative
        length = bisect_right(cumulative, index)
        start = cumulative[length - 1]
        i, offset = divmod(index - start, (cumulative[length] - start) // (2 * self.m))
        x = a = self.letters[i]
        out = [a]
        steps, last = self.plans[length]
        blocks, tables = self.blocks, self.by_first[a]
        for w, t, odd in steps:
            k, offset = divmod(offset, w)
            counts = tables[t][odd][x]
            # Past k blocks the completions ran E(k) more (r odd) or fewer
            # (r even) than k w, so k may be one too high or too low.
            if odd:
                if counts[k] > offset:
                    k -= 1
                    offset += w - counts[k]
                else:
                    offset -= counts[k]
            else:
                v = offset + counts[k + 1]
                if v >= w:
                    k += 1
                    offset = v - w
                else:
                    offset += counts[k]
            block = blocks[t][x][k]
            out += block
            x = block[-1]
        if last:
            out += blocks[last][x][offset + bisect_right(tables[last][2][x], offset)]
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
    signed lex order; the arguments are checked at the call, the words stream,
    built without checking the letters again."""
    if m < 2 or length < 1:
        raise DomainError(f"need m >= 2 and length >= 1, got m={m}, length={length}")
    return (_trusted_word(w) for w in reduced_words(m, length) if w[0] != -w[-1])


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
