"""Random subsets at density d and random relator sets.

Two permutation-invariant models over a finite universe E:

* Bernoulli: every element included independently with probability
  p = |E|^(d-1), defined for 0 < d <= 1.
* UniformCount: a uniformly chosen subset of exactly floor(|E|^d) elements,
  defined for d in [0, 1].

Both are sampled by index, so the universe is never enumerated. A Bernoulli
subset's size is drawn exactly, by counting geometric waiting times between
successive members (Devroye, Non-Uniform Random Variate Generation, X.4),
and that many distinct indices are then drawn uniformly: conditioned on its
size, a Bernoulli subset is a uniform subset of that size. The cost is
O(|A|), whatever |E|.

The density of a subset A of E is log_|E|(|A|), with -inf for the empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence, get_args

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
    """A deduplicated set of nonempty cyclically reduced words of length <= maxlen."""

    m: int
    maxlen: int
    relators: tuple[Word, ...]
    provenance: DensityModel | None = field(default=None, compare=False)

    def __post_init__(self):
        seen = set()
        for w in self.relators:
            if not w.letters:
                raise DomainError("relators must be nonempty")
            if len(w) > self.maxlen:
                raise DomainError(f"relator of length {len(w)} exceeds maxlen {self.maxlen}")
            if not w.is_cyclically_reduced():
                raise DomainError(f"relator {w.text()} is not cyclically reduced")
            if max(abs(x) for x in w.letters) > self.m:
                raise DomainError(f"relator {w.text()} uses letters beyond m={self.m}")
            if w.letters in seen:
                raise DomainError(f"duplicate relator {w.text()}")
            seen.add(w.letters)

    @classmethod
    def _trusted(cls, m: int, maxlen: int, relators: tuple[Word, ...],
                 provenance: DensityModel | None) -> "RelatorSet":
        """A RelatorSet over words the caller built valid and distinct, made
        without __post_init__'s checks: the sampler's path."""
        self = object.__new__(cls)
        vars(self).update(m=m, maxlen=maxlen, relators=relators, provenance=provenance)
        return self

    def __len__(self) -> int:
        return len(self.relators)

    def __iter__(self):
        return iter(self.relators)


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


def floor_power(n: int, d: float) -> int:
    """floor(n^d) for a possibly huge integer n; exact at d in {0, 1}."""
    if d == 0.0:
        return 1
    if d == 1.0:
        return n
    return min(n, math.floor(math.exp(d * math.log(n))))


def bernoulli_subset(elements: Sequence, d: float, seed_or_rng) -> list:
    """A Bernoulli subset of an explicit universe, in the universe's order."""
    return [elements[i] for i in bernoulli_index_subset(len(elements), d, seed_or_rng)]


def bernoulli_index_subset(universe_size: int, d: float, seed_or_rng) -> list[int]:
    """Bernoulli subset of range(universe_size), returned as a sorted index list.

    The waiting times give only the size: float skips lose unit resolution
    once universe_size > 2^53, while rng.sample draws big-int indices exactly.
    """
    rng = as_rng(seed_or_rng)
    p = inclusion_probability(universe_size, d)
    if p >= 1.0:
        return list(range(universe_size))
    log_q = math.log1p(-p)
    random, log = rng.random, math.log
    k, i = 0, -1
    while True:
        # Geometric(p) gap on {1, 2, ...}; 1 - random() lies in (0, 1].
        i += int(log(1.0 - random()) / log_q) + 1
        if i >= universe_size:
            break
        k += 1
    return sorted(rng.sample(range(universe_size), k))


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
    """Materialize a sampled relator set; guarded against huge expected sizes."""
    expected = expected_relator_count(m, maxlen, model.d)
    if expected > materialize_limit:
        raise FeasibilityError(
            f"expected relator count {expected:.3g} exceeds materialization "
            f"limit {materialize_limit}; use the statistical trial path",
            estimate=expected,
        )
    unrank = word_tables(m, maxlen).unrank
    indices = sample_relator_indices(m, maxlen, model, seed_or_rng)
    # Distinct indices unrank to distinct cyclically reduced words of B_maxlen.
    return RelatorSet._trusted(m, maxlen, tuple(map(unrank, indices)), model)


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
