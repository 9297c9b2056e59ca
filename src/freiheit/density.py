"""Random subsets at density d and random relator sets.

Two permutation-invariant models over a finite universe E:

* Bernoulli: every element included independently with probability
  p = |E|^(d-1), defined for 0 < d <= 1.
* UniformCount: a uniformly chosen subset of exactly floor(|E|^d) elements,
  defined for d in [0, 1].

Both are sampled by index, so the universe is never enumerated. A Bernoulli
subset is drawn by geometric waiting times between successive members
(Devroye, Non-Uniform Random Variate Generation, X.4): the positions they
reach are the members, already sorted and distinct. Once |E| > 2^53 float
gaps lose unit resolution, so there the waiting times give only the size
and that many distinct indices are drawn uniformly: conditioned on its
size, a Bernoulli subset is a uniform subset of that size. The cost is
O(|A|), whatever |E|.

A sampled relator set holds the sorted index list and unranks its words
lazily: the first access to a relator unranks every relator before it, in
order, and the words are kept. The probes read the relators shortest first
and stop once they have their witnesses, so a trial unranks only the prefix
its probes read.

floor(|E|^d) is exact: where d = p/q in lowest terms has a denominator small
enough for |E|^d to be an integer, it is the integer q-th root of |E|^p;
elsewhere |E|^d is irrational and its float estimate is floored.

The density of a subset A of E is log_|E|(|A|), with -inf for the empty set.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Literal, get_args

from .errors import DomainError, FeasibilityError
from .seeds import as_rng, rng_for
from .words import Word, count_cyclically_reduced_upto, word_tables

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


class _SampledWords(Sequence):
    """The words at sorted indices of B_maxlen, unranked on first access.

    Reading the word at position i unranks every word before it that is
    not yet unranked, in order, and keeps them all; so does iteration, one
    word at a time. Equality and hash are those of the tuple of the words,
    which reading them all builds."""

    __slots__ = ("_indices", "_unrank", "_words")

    def __init__(self, indices: list[int], unrank: Callable[[int], Word]):
        self._indices = indices
        self._unrank = unrank
        self._words: list[Word] = []

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(len(self._indices))[i])
        n = len(self._indices)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("relator index out of range")
        words = self._words
        if i >= len(words):
            words.extend(map(self._unrank, self._indices[len(words):i + 1]))
        return words[i]

    def __iter__(self):
        words, indices, unrank = self._words, self._indices, self._unrank
        for k in range(len(indices)):
            if k == len(words):
                words.append(unrank(indices[k]))
            yield words[k]

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


def bernoulli_subset(elements: Sequence, d: float, seed_or_rng) -> list:
    """A Bernoulli subset of an explicit universe, in the universe's order."""
    return [elements[i] for i in bernoulli_index_subset(len(elements), d, seed_or_rng)]


def bernoulli_index_subset(universe_size: int, d: float, seed_or_rng) -> list[int]:
    """Bernoulli subset of range(universe_size), returned as a sorted index list.

    The positions the waiting times reach are the members, in increasing
    order. Float gaps lose unit resolution once universe_size > 2^53, so
    there the waiting times give only the size and rng.sample draws that
    many big-int indices exactly.
    """
    rng = as_rng(seed_or_rng)
    p = inclusion_probability(universe_size, d)
    if p >= 1.0:
        return list(range(universe_size))
    log_q = math.log1p(-p)
    random, log = rng.random, math.log
    members: list[int] = []
    i = -1
    while True:
        # Geometric(p) gap on {1, 2, ...}; 1 - random() lies in (0, 1].
        i += int(log(1.0 - random()) / log_q) + 1
        if i >= universe_size:
            break
        members.append(i)
    if universe_size <= 2 ** 53:
        return members
    return sorted(rng.sample(range(universe_size), len(members)))


def uniform_count_subset(elements: Sequence, d: float, seed_or_rng) -> list:
    """A uniformly random subset of exactly floor(|E|^d) elements."""
    rng = as_rng(seed_or_rng)
    k = floor_power(len(elements), d)
    return rng.sample(list(elements), k)


def uniform_count_index_subset(universe_size: int, d: float, seed_or_rng) -> list[int]:
    rng = as_rng(seed_or_rng)
    k = floor_power(universe_size, d)
    return sorted(rng.sample(range(universe_size), k))


def density_estimate(subset_size: int, universe_size: int) -> float:
    """log_|E|(|A|); -inf for the empty subset."""
    if universe_size < 2:
        raise DomainError("universe must have at least 2 elements")
    if subset_size < 0:
        raise DomainError("subset size cannot be negative")
    if subset_size == 0:
        return float("-inf")
    return math.log(subset_size) / math.log(universe_size)


def densable_window_flag(subset_size: int, universe_size: int, d: float, eps: float) -> bool:
    """Whether |E|^(d-eps) <= |A| <= |E|^(d+eps): the conditioning event of
    density estimation, exposed per trial."""
    ln = math.log(universe_size)
    lo = math.exp((d - eps) * ln)
    hi = math.exp((d + eps) * ln)
    return lo <= subset_size <= hi


def sample_relator_indices(m: int, maxlen: int, model: DensityModel, seed_or_rng) -> list[int]:
    """Indices into the length-then-lex order of B_maxlen."""
    n = count_cyclically_reduced_upto(m, maxlen)
    if model.kind == "bernoulli":
        return bernoulli_index_subset(n, model.d, seed_or_rng)
    return uniform_count_index_subset(n, model.d, seed_or_rng)


def expected_relator_count(m: int, maxlen: int, d: float) -> float:
    """|B_maxlen|^d, the concentration point of |R|."""
    n = count_cyclically_reduced_upto(m, maxlen)
    return math.exp(d * math.log(n))


def sample_relator_set(m: int, maxlen: int, model: DensityModel, seed_or_rng,
                       *, materialize_limit: int = MATERIALIZE_LIMIT) -> RelatorSet:
    """A sampled relator set, guarded against huge expected sizes; its
    words are unranked from the sorted indices on first access."""
    expected = expected_relator_count(m, maxlen, model.d)
    if expected > materialize_limit:
        raise FeasibilityError(
            f"expected relator count {expected:.3g} exceeds materialization "
            f"limit {materialize_limit}; use the statistical trial path",
            estimate=expected,
        )
    indices = sample_relator_indices(m, maxlen, model, seed_or_rng)
    # Sorted distinct indices unrank to cyclically reduced words of B_maxlen
    # in strictly increasing length-then-lex order.
    return RelatorSet._trusted(
        m, maxlen, _SampledWords(indices, word_tables(m, maxlen).unrank), model)


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
    "bernoulli_subset", "bernoulli_index_subset",
    "uniform_count_subset", "uniform_count_index_subset",
    "density_estimate", "densable_window_flag",
    "sample_relator_indices", "sample_relator_set", "expected_relator_count",
    "intersection_experiment",
]
