"""Random subsets at density d and random relator sets.

Two permutation-invariant models over a finite universe E:

* Bernoulli: every element included independently with probability
  p = |E|^(d-1), defined for 0 < d <= 1.
* UniformCount: a uniformly chosen subset of exactly floor(|E|^d) elements,
  defined for d in [0, 1].

Both are sampled by index, so the universe is never enumerated. A Bernoulli
subset is drawn per length layer of B_maxlen (a flat universe is one layer).
Layers of mean size |layer| min(p, 1 - p) below 10 take their members from
geometric waiting times (Devroye, Non-Uniform Random Variate Generation,
X.4), which reach them sorted and distinct. Every other layer draws only its
size k, by BTRS (Hormann, J. Statist. Comput. Simul. 46, 1993), and one draw
then seeds a member stream: the caller's generator is not read again. A read
that first reaches a sized layer draws its members from that stream, in
layer order: waiting times at rate k/|layer|, then uniform removals or
insertions to size k. Given its size a Bernoulli layer is a uniform subset
of that size, and a fix-up that treats all indices alike keeps it so. The
set thus depends only on the generator, its size costs nothing, and a probe
pays for the layers it reads. Past 2^53 float gaps lose unit resolution, so
there a layer's members are drawn uniformly for its size (by Floyd's
algorithm past sys.maxsize).

The float operations that decide a draw, and so must round alike wherever a
seed is to give the same set (the integers, and random()'s doubles, are
exact):

* ``inclusion_probability``: p = exp((d - 1) log |E|);
* the split of the layers: |layer| min(p, 1 - p) < BTRS_MIN_MEAN picks
  waiting times or a sized layer, and ``_binomial`` draws n - Binomial(n,
  1 - p) for p > 1/2;
* the waiting-time gap in ``_waiting_times``: int(log(1 - U) / log1p(-p)) + 1
  for U = random(), with log1p(-1) taken as -inf, so every gap is 1 at p = 1;
* the rate k / (hi - lo) at which ``_sized_layer`` runs those waiting times;
* BTRS in ``_binomial``: its setup (spq, b, a, c, vr, alpha, the mode and the
  Stirling tails), the candidate floor((2a/us + b) u + c), the squeeze us >=
  0.07 and v <= vr, and the acceptance test log(v alpha / (a/us^2 + b)) <=
  head + (n + 1) log1p((k - mode)/(n - k + 1)) + (k + 1/2) log(r (n - k + 1)/(k
  + 1)) - tails;
* the count model's floor(|E|^d) where d's denominator is too large for an
  exact root: floor(exp(d log |E|));
* outside this module, the fast path's ``experiments._class_success_probability``,
  1 - exp(-exp(log C + log(-log1p(-p)))), compared with random(), and
  ``expected_relator_count`` against the materialization budget, which picks
  the fast path or a sampled set.

A sampled relator set unranks its words lazily: the first access to a
relator unranks every relator before it, in order, and the words are kept.
The probes read the relators shortest first and stop once they have their
witnesses, so a trial draws and unranks only the prefix its probes read;
the triviality probe reads the relators of length maxlen by the cyclic keys
of their indices (``RelatorSet.longest``) and unranks only those whose key
can have a partner.

floor(|E|^d) is exact: where d = p/q in lowest terms has a denominator small
enough for |E|^d to be an integer, it is the integer q-th root of |E|^p;
elsewhere |E|^d is irrational and its float estimate is floored.

The density of a subset A of E is log_|E|(|A|), with -inf for the empty set.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, takewhile
from typing import Callable, Iterable, Literal, get_args

from .errors import DomainError, FeasibilityError
from .seeds import as_rng, rng_for
from .words import (Word, _WordTables, count_cyclically_reduced_upto, cyclic_key, key_tables,
                    word_tables)

ModelKind = Literal["bernoulli", "count"]
MODEL_KINDS: tuple[ModelKind, ...] = get_args(ModelKind)

MATERIALIZE_LIMIT = 200_000


@dataclass(frozen=True)
class DensityModel:
    """A named random-subset model at density d with its master seed."""

    kind: ModelKind
    d: float
    seed: int = 0

    def __post_init__(self):
        problems = model_problems(self.kind, [self.d])
        if problems:
            raise DomainError("; ".join(problems))


def model_problems(kind, densities: Sequence) -> list[str]:
    """Every reason why ``kind`` at each of ``densities`` is not a density
    model: the kind must be one of MODEL_KINDS and each density a number in
    [0, 1], nonzero for the Bernoulli model."""
    problems = ([] if kind in MODEL_KINDS else
                [f"model kind must be one of {MODEL_KINDS}, got {kind!r}"])
    for d in densities:
        if (not isinstance(d, (int, float)) or isinstance(d, bool)
                or not 0.0 <= d <= 1.0):
            problems.append(f"density must be a number in [0, 1], got {d!r}")
        elif kind == "bernoulli" and d == 0:
            problems.append("the Bernoulli model requires d > 0")
    return problems


@dataclass(frozen=True)
class RelatorSet:
    """A set of nonempty cyclically reduced words of length <= maxlen, held
    in strictly increasing length-then-lex order (so without duplicates).

    The probes rely on that order: a relator's shorter partners precede it.
    ``relators`` is a tuple, or for a sampled set a sequence that unranks
    its words on first access and compares and hashes equal to their tuple.
    """

    m: int
    maxlen: int
    relators: Sequence[Word]
    provenance: DensityModel | None = field(default=None, compare=False)

    def __post_init__(self):
        prev = None
        for w in self.relators:
            if not w.letters:
                raise DomainError("relators must be nonempty")
            if len(w) > self.maxlen:
                raise DomainError(f"relator of length {len(w)} exceeds maxlen {self.maxlen}")
            if not w.is_cyclically_reduced():
                raise DomainError(f"relator {w.text()} is not cyclically reduced")
            if max(abs(x) for x in w.letters) > self.m:
                raise DomainError(f"relator {w.text()} uses letters beyond m={self.m}")
            if prev is not None and (len(prev), prev.letters) >= (len(w), w.letters):
                raise DomainError(f"relator {w.text()} does not follow {prev.text()} in "
                                  "strictly increasing length-then-lex order")
            prev = w

    @classmethod
    def _trusted(cls, m: int, maxlen: int, relators: Sequence[Word],
                 provenance: DensityModel | None) -> "RelatorSet":
        """A RelatorSet over words the caller built valid, distinct and in
        order, made without __post_init__'s checks: the sampler's path."""
        self = object.__new__(cls)
        vars(self).update(m=m, maxlen=maxlen, relators=relators, provenance=provenance)
        return self

    def __len__(self) -> int:
        return len(self.relators)

    def __iter__(self):
        return iter(self.relators)

    def shorter(self) -> Iterator[Word]:
        """The relators shorter than maxlen, in order. A sampled set reads
        each one's index before its word, so it unranks none of length
        maxlen."""
        if isinstance(self.relators, _SampledWords):
            return self.relators.shorter()
        maxlen = self.maxlen
        return takewhile(lambda w: len(w) < maxlen, self.relators)

    def longest(self) -> tuple[Iterator[int], Callable[[int], Word]]:
        """The relators of length maxlen, in order: their cyclic keys
        (``words.cyclic_key``), computed as they are read, and a function
        from j to the j-th of them. A sampled set computes the key of a word
        it has not unranked from the word's index, and unranks only the
        words asked for."""
        if isinstance(self.relators, _SampledWords):
            return self.relators.longest()
        rels = self.relators
        top = rels[bisect_left(rels, self.maxlen, key=len):]
        weights = key_tables(self.m).weights
        return (cyclic_key(w.letters, weights) for w in top), top.__getitem__


class _SampledWords(Sequence):
    """The words at the sorted indices of a sampled subset of B_maxlen,
    given as its size and an iterator over the indices of each length
    layer, in order; layers are drawn and words unranked on first access.

    Reading the word at position i draws every layer up to the one that
    holds it and unranks every word before it that is not yet unranked, in
    order, and keeps them all; so does iteration, one word at a time.
    Equality and hash are those of the tuple of the words, which reading
    them all builds."""

    __slots__ = ("_size", "_layers", "_indices", "_tables", "_words")

    def __init__(self, size: int, layers: Iterator[list[int]], tables: _WordTables):
        self._size = size
        self._layers = layers
        self._indices: list[int] = []
        self._tables = tables
        self._words: list[Word] = []

    def __len__(self) -> int:
        return self._size

    def _draw(self, count: int) -> list[int]:
        """The indices, with at least the first ``count`` drawn."""
        indices = self._indices
        while len(indices) < count:
            indices += next(self._layers)
        return indices

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(self._size)[i])
        n = self._size
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("relator index out of range")
        words = self._words
        if i >= len(words):
            words.extend(map(self._tables.unrank, self._draw(i + 1)[len(words):i + 1]))
        return words[i]

    def __iter__(self):
        return self._words_below(self._tables.total)

    def shorter(self) -> Iterator[Word]:
        """The words shorter than maxlen, as iteration reads them."""
        return self._words_below(self._tables.cumulative[-2])

    def _words_below(self, bound: int) -> Iterator[Word]:
        """The words whose index is below ``bound``, in order, each unranked
        and kept when first reached; the index is read before the word."""
        words, indices, unrank = self._words, self._indices, self._tables.unrank
        for k in range(self._size):
            if k == len(indices):
                self._draw(k + 1)
            if indices[k] >= bound:
                return
            if k == len(words):
                words.append(unrank(indices[k]))
            yield words[k]

    def longest(self) -> tuple[Iterator[int], Callable[[int], Word]]:
        """As ``RelatorSet.longest``: every layer is drawn now. A word that
        iteration has kept is keyed from its letters and read from the kept
        words; any other is keyed from its index as it is read, and unranked
        alone, and not kept, when asked for."""
        tables, words = self._tables, self._words
        indices = self._draw(self._size)
        start = bisect_left(indices, tables.cumulative[-2])
        kept = words[start:]
        weights = key_tables(tables.m).weights

        def word(j: int) -> Word:
            return kept[j] if j < len(kept) else tables.unrank(indices[start + j])

        return chain((cyclic_key(w.letters, weights) for w in kept),
                     tables.keys(islice(indices, start + len(kept), None))), word

    def __eq__(self, other):
        if isinstance(other, (tuple, _SampledWords)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def make_relator_set(m: int, maxlen: int, words: Iterable[Word | tuple[int, ...]],
                     provenance: DensityModel | None = None) -> RelatorSet:
    """Deduplicate and sort words into a RelatorSet."""
    uniq = {(len(w), tuple(w)) for w in words if len(tuple(w)) > 0}
    rels = tuple(Word(t) for _, t in sorted(uniq))
    return RelatorSet(m, maxlen, rels, provenance)


def inclusion_probability(universe_size: int, d: float) -> float:
    """p = |E|^(d-1), computed in the log domain."""
    if universe_size < 2:
        raise DomainError("universe must have at least 2 elements")
    if not 0.0 < d <= 1.0:
        raise DomainError(f"Bernoulli density must satisfy 0 < d <= 1, got {d}")
    return math.exp((d - 1.0) * math.log(universe_size))


def _integer_root(x: int, q: int) -> int:
    """floor(x^(1/q)) for integers x >= 0 and q >= 1, by Newton's method on
    integers from an upper bound, where the iteration decreases to it."""
    if q == 1 or x < 2:
        return x
    if q == 2:
        return math.isqrt(x)
    root = 1 << -(-x.bit_length() // q)  # 2^ceil(bits / q) > x^(1/q)
    while True:
        step = ((q - 1) * root + x // root ** (q - 1)) // q
        if step >= root:
            return root
        root = step


def floor_power(n: int, d: float) -> int:
    """floor(n^d) for a possibly huge integer n >= 1 and d in [0, 1].

    For d = p/q in lowest terms, n^d is an integer only if n is a perfect
    q-th power, which needs q < log2(n); there floor(n^d) is the exact
    integer q-th root of n^p. Elsewhere n^d is irrational and the float
    estimate is floored."""
    exact = Fraction(d)
    if exact.denominator < max(2, n.bit_length()):
        return _integer_root(n ** exact.numerator, exact.denominator)
    return min(n, math.floor(math.exp(d * math.log(n))))


# BTRS holds for a binomial of mean n min(p, 1 - p) >= 10.
BTRS_MIN_MEAN = 10


def _stirling_tail(k: int) -> float:
    """log(k!) - (k + 1/2) log(k + 1) + k + 1 - log(2 pi)/2, by its series past 9."""
    if k < 10:
        return (math.log(math.factorial(k)) - (k + 0.5) * math.log(k + 1) + k + 1
                - 0.5 * math.log(2 * math.pi))
    inv = 1.0 / (k + 1)
    return (1.0 / 12 - (1.0 / 360 - inv * inv / 1260) * inv * inv) * inv


def _binomial(n: int, p: float, rng) -> int:
    """Binomial(n, p) for n min(p, 1 - p) >= BTRS_MIN_MEAN, by BTRS. Its exact
    test takes the large factorials' ratio as (n + 1) log1p((k - mode)/(n - k
    + 1)): near n = 1e14 lgamma(n + 1) has an ulp of 0.5, too coarse to subtract."""
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, rng)
    log, random = math.log, rng.random
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    r = p / (1.0 - p)
    mode = math.floor((n + 1) * p)
    head = ((mode + 0.5) * log((mode + 1) / (r * (n - mode + 1)))
            + _stirling_tail(mode) + _stirling_tail(n - mode))
    while True:
        u = random() - 0.5
        v = random()
        us = 0.5 - abs(u)
        k = math.floor((2 * a / us + b) * u + c)
        if us >= 0.07 and v <= vr:
            return k
        if 0 <= k <= n and log(v * alpha / (a / (us * us) + b)) <= (
                head + (n + 1) * math.log1p((k - mode) / (n - k + 1))
                + (k + 0.5) * log(r * (n - k + 1) / (k + 1))
                - _stirling_tail(k) - _stirling_tail(n - k)):
            return k


def _bernoulli_layers(bounds: Sequence[int], d: float, rng) -> tuple[int, Iterator[list[int]]]:
    """A Bernoulli subset of range(bounds[-1]) at density d, drawn as the module
    docstring says: its size, and its sorted members per layer range(bounds[i
    - 1], bounds[i]), in order. Layer sizes never decrease, so the layers below
    BTRS_MIN_MEAN are a prefix, drawn by one run of waiting times."""
    n = bounds[-1]
    p = inclusion_probability(n, d)
    if p >= 1.0:
        return n, iter([list(range(n))])
    j = 1
    while j < len(bounds) and (bounds[j] - bounds[j - 1]) * min(p, 1.0 - p) < BTRS_MIN_MEAN:
        j += 1
    prefix = _waiting_times(0, bounds[j - 1], p, rng)
    sized = [(lo, hi, _binomial(hi - lo, p, rng)) for lo, hi in zip(bounds[j - 1:], bounds[j:])]
    seed = rng.getrandbits(64) if sized else None
    return len(prefix) + sum(k for _, _, k in sized), _layer_members(prefix, sized, seed)


def _layer_members(prefix: list[int], sized: list[tuple[int, int, int]],
                   seed: int | None) -> Iterator[list[int]]:
    """The sorted members of each layer in turn: the prefix, then each (lo, hi,
    k) layer of ``sized`` from the member stream, seeded on its first read."""
    yield prefix
    if sized:
        stream = random.Random(seed)
        for lo, hi, k in sized:
            yield _sized_layer(lo, hi, k, stream)


def _read_all(layers: Iterator[list[int]]) -> list[int]:
    """The members of every layer, joined in order."""
    members = next(layers)
    for layer in layers:
        members += layer
    return members


def _waiting_times(lo: int, hi: int, p: float, rng) -> list[int]:
    """A Bernoulli(p) subset of range(lo, hi), sorted, for 0 < p <= 1."""
    # math.log1p raises at -1; its limit -inf makes every gap 1.
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    random, log = rng.random, math.log
    members: list[int] = []
    i = lo - 1
    while True:
        # Geometric(p) gap on {1, 2, ...}; 1 - random() lies in (0, 1].
        i += int(log(1.0 - random()) / log_q) + 1
        if i >= hi:
            break
        members.append(i)
    if hi - lo <= 2 ** 53:
        return members
    return _uniform_subset(lo, hi, len(members), rng)


def _sized_layer(lo: int, hi: int, k: int, rng) -> list[int]:
    """A uniform k-subset of range(lo, hi), sorted: a Bernoulli layer given its
    size k, by waiting times and a fix-up that treat all indices alike."""
    if not k or hi - lo > 2 ** 53:
        return _uniform_subset(lo, hi, k, rng)
    members = _waiting_times(lo, hi, k / (hi - lo), rng)
    # rng.randrange's draws, inlined: a uniform j < n is the first of
    # getrandbits(n.bit_length()) that falls below n.
    getrandbits, n = rng.getrandbits, len(members)
    while n > k:
        j = getrandbits(n.bit_length())
        if j < n:
            del members[j]
            n -= 1
    span, bits = hi - lo, (hi - lo).bit_length()
    while n < k:
        x = getrandbits(bits)
        if x < span:
            j = bisect_left(members, x + lo)
            if j == n or members[j] != x + lo:
                members.insert(j, x + lo)
                n += 1
    return members


def bernoulli_index_subset(universe_size: int, d: float, seed_or_rng) -> list[int]:
    """Bernoulli subset of range(universe_size), returned as a sorted index
    list: the layered draw of a universe of one layer, read in full."""
    return _read_all(_bernoulli_layers((0, universe_size), d, as_rng(seed_or_rng))[1])


def _uniform_subset(lo: int, hi: int, k: int, rng) -> list[int]:
    """A uniform k-subset of range(lo, hi), sorted: by rng.sample, or past
    sys.maxsize, where range() has no length, by Floyd's algorithm."""
    if hi - lo <= sys.maxsize:
        return sorted(rng.sample(range(lo, hi), k))
    return [lo + i for i in _floyd_subset(hi - lo, k, rng)]


def _floyd_subset(universe_size: int, k: int, rng) -> list[int]:
    """A uniform k-subset of range(universe_size), sorted, for universes past
    sys.maxsize, where range() has no length: Floyd's algorithm (Bentley and
    Floyd, CACM 30(9), 1987) makes k calls of rng.randrange, which takes any
    integer."""
    chosen: set[int] = set()
    for j in range(universe_size - k, universe_size):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def uniform_count_index_subset(universe_size: int, d: float, seed_or_rng) -> list[int]:
    """A uniformly random subset of exactly floor(|E|^d) indices, sorted."""
    return _uniform_subset(0, universe_size, floor_power(universe_size, d),
                           as_rng(seed_or_rng))


def density_estimate(subset_size: int, universe_size: int) -> float:
    """log_|E|(|A|); -inf for the empty subset."""
    if universe_size < 2:
        raise DomainError("universe must have at least 2 elements")
    if subset_size < 0:
        raise DomainError("subset size cannot be negative")
    if subset_size == 0:
        return float("-inf")
    return math.log(subset_size) / math.log(universe_size)


def _relator_layers(m: int, maxlen: int, model: DensityModel,
                    seed_or_rng) -> tuple[int, Iterator[list[int]]]:
    """The size of a sampled subset of B_maxlen and its indices by layer; a
    count-model subset is drawn whole, as one layer."""
    rng = as_rng(seed_or_rng)
    if model.kind == "bernoulli":
        return _bernoulli_layers(word_tables(m, maxlen).cumulative, model.d, rng)
    indices = uniform_count_index_subset(count_cyclically_reduced_upto(m, maxlen), model.d, rng)
    return len(indices), iter([indices])


def sample_relator_indices(m: int, maxlen: int, model: DensityModel, seed_or_rng) -> list[int]:
    """Indices into the length-then-lex order of B_maxlen: those of
    sample_relator_set for the same generator."""
    return _read_all(_relator_layers(m, maxlen, model, seed_or_rng)[1])


def expected_relator_count(m: int, maxlen: int, d: float) -> float:
    """|B_maxlen|^d, the concentration point of |R|; math.inf past the
    float range."""
    try:
        return math.exp(d * math.log(count_cyclically_reduced_upto(m, maxlen)))
    except OverflowError:
        return math.inf


def sample_relator_set(m: int, maxlen: int, model: DensityModel, seed_or_rng,
                       *, materialize_limit: int = MATERIALIZE_LIMIT) -> RelatorSet:
    """A sampled relator set, guarded against huge expected sizes; its size
    is drawn now, its members and words on first access."""
    expected = expected_relator_count(m, maxlen, model.d)
    if expected > materialize_limit:
        raise FeasibilityError(
            f"expected relator count {expected:.3g} exceeds materialization "
            f"limit {materialize_limit}; use the statistical trial path",
            estimate=expected,
        )
    size, layers = _relator_layers(m, maxlen, model, seed_or_rng)
    # Sorted distinct indices unrank to cyclically reduced words of B_maxlen
    # in strictly increasing length-then-lex order.
    return RelatorSet._trusted(
        m, maxlen, _SampledWords(size, layers, word_tables(m, maxlen)), model)


@dataclass(frozen=True)
class IntersectionRow:
    maxlen: int
    d_a: float
    d_b: float
    trial: int
    size_a: int
    size_b: int
    size_intersection: int
    density_est: float


def intersection_experiment(d_a: float, d_b: float, m: int, lengths: Iterable[int],
                            trials: int, seed: int,
                            kind: ModelKind = "bernoulli") -> list[IntersectionRow]:
    """Sample independent subsets A, B of B_l and report |A ∩ B| per trial.

    When d_a + d_b > 1 the intersection densities trend to d_a + d_b - 1;
    when d_a + d_b < 1 the intersection is almost always empty.
    """
    if trials < 0:
        raise DomainError(f"need trials >= 0, got trials={trials}")
    model_a, model_b = DensityModel(kind, d_a, seed), DensityModel(kind, d_b, seed)
    rows = []
    for li, maxlen in enumerate(lengths):
        n = count_cyclically_reduced_upto(m, maxlen)
        for t in range(trials):
            a = sample_relator_indices(m, maxlen, model_a,
                                       rng_for(seed, "intersection", li, t, "A"))
            b = sample_relator_indices(m, maxlen, model_b,
                                       rng_for(seed, "intersection", li, t, "B"))
            inter = set(a) & set(b)
            rows.append(IntersectionRow(
                maxlen, d_a, d_b, t, len(a), len(b), len(inter),
                density_estimate(len(inter), n)))
    return rows


__all__ = [
    "DensityModel", "RelatorSet", "IntersectionRow", "ModelKind", "MODEL_KINDS",
    "make_relator_set", "inclusion_probability", "floor_power",
    "bernoulli_index_subset", "uniform_count_index_subset", "density_estimate",
    "sample_relator_indices", "sample_relator_set", "expected_relator_count",
    "intersection_experiment",
]
