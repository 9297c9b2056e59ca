import math
import random
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from freiheit.density import (DensityModel, RelatorSet, bernoulli_index_subset,
                              bernoulli_subset, densable_window_flag,
                              density_estimate, expected_relator_count, floor_power,
                              inclusion_probability, intersection_experiment,
                              make_relator_set, sample_relator_indices,
                              sample_relator_set, uniform_count_index_subset,
                              uniform_count_subset)
from freiheit.errors import DomainError, FeasibilityError
from freiheit.words import Word, _WordTables, count_cyclically_reduced_upto, word_at_index

from oracles import chi2_critical


def test_model_validation():
    DensityModel("bernoulli", 0.3)
    DensityModel("count", 0.0)
    with pytest.raises(DomainError):
        DensityModel("bernoulli", 0.0)
    with pytest.raises(DomainError):
        DensityModel("count", 1.5)
    with pytest.raises(DomainError):
        DensityModel("other", 0.3)


def test_relator_set_invariants():
    make_relator_set(2, 3, [Word((1, 2)), Word((1, 2))])  # dedup ok
    with pytest.raises(DomainError):
        RelatorSet(2, 3, (Word((1, -1, 2)),))  # not cyclically reduced
    with pytest.raises(DomainError):
        RelatorSet(2, 3, (Word((1, 2, 1, 2)),))  # too long
    with pytest.raises(DomainError):
        RelatorSet(2, 3, (Word((3,)),))  # letter out of range


def test_relator_set_requires_strict_length_then_lex_order():
    RelatorSet(2, 3, (Word((-2,)), Word((1,)), Word((-1, -1)), Word((1, 2)),
                      Word((-2, -2, 1))))
    for words in [((1, 2), (1,)),              # longer before shorter
                  ((2,), (1,)),                # same length, lex order reversed
                  ((1, 2), (-1, -2)),          # -1 < 1: signed letters compare as ints
                  ((1, 2), (1, 2)),            # a duplicate is not strictly increasing
                  ((1,), (2, 1, 2), (1, 1))]:
        with pytest.raises(DomainError, match="length-then-lex order"):
            RelatorSet(2, 3, tuple(Word(w) for w in words))
    # make_relator_set sorts and deduplicates whatever order it is given.
    rel = make_relator_set(2, 3, [Word(w) for w in ((2, 1, 2), (1,), (1, 1), (1,))])
    assert [w.letters for w in rel.relators] == [(1,), (1, 1), (2, 1, 2)]


def test_bernoulli_full_at_density_one():
    universe = list(range(10))
    assert bernoulli_subset(universe, 1.0, 1) == universe
    assert bernoulli_index_subset(797_184, 1.0, 3) == list(range(797_184))


def _binomial_chi2(sizes, n, p, bins=20):
    """Chi-squared statistic of observed sizes against Binomial(n, p), over
    bins of about equal exact probability; the tails join the end bins."""
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    uppers, probs, mass = [], [], 0.0
    for k in range(max(0, int(mean - 9 * sd)), int(mean + 9 * sd) + 1):
        mass += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                         + k * math.log(p) + (n - k) * math.log1p(-p))
        if mass >= 1.0 / bins:
            uppers.append(k)
            probs.append(mass)
            mass = 0.0
    uppers[-1] = n
    probs[-1] = 1.0 - sum(probs[:-1])
    observed = [0] * len(probs)
    for size in sizes:
        observed[bisect_left(uppers, size)] += 1
    t = len(sizes)
    stat = sum((o - t * q) ** 2 / (t * q) for o, q in zip(observed, probs))
    return stat, len(probs) - 1


@pytest.mark.parametrize("m, maxlen, d", [(2, 10, 0.7), (2, 12, 0.6)])
def test_bernoulli_size_law_is_exact_binomial(m, maxlen, d):
    # |B_10| = 88,592 and |B_12| = 797,184 at m = 2, with inclusion
    # probabilities of about 3.3% and 0.44%.
    n = count_cyclically_reduced_upto(m, maxlen)
    p = inclusion_probability(n, d)
    rng = random.Random(2024)
    sizes = []
    for _ in range(600):
        sub = bernoulli_index_subset(n, d, rng)
        sizes.append(len(sub))
        assert all(a < b for a, b in zip(sub, sub[1:]))
        assert 0 <= sub[0] and sub[-1] < n
    stat, df = _binomial_chi2(sizes, n, p)
    assert stat < chi2_critical(df, 0.001)


def test_bernoulli_subset_maps_the_index_sampler():
    elements = [f"e{i}" for i in range(5000)]
    indices = bernoulli_index_subset(len(elements), 0.6, random.Random(8))
    assert indices
    assert bernoulli_subset(elements, 0.6, random.Random(8)) == [elements[i] for i in indices]


def test_bernoulli_mean_size():
    # |E| = 3^12, d = 0.5: mean size |E|^0.5 = 729 within 5% over 1000 trials.
    n = 3 ** 12
    rng = random.Random(23)
    sizes = [len(bernoulli_index_subset(n, 0.5, rng)) for _ in range(1000)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 729.0) / 729.0 < 0.05


def test_bernoulli_density_estimate_converges():
    n = 3 ** 14
    rng = random.Random(9)
    estimates = [density_estimate(len(bernoulli_index_subset(n, 0.4, rng)), n)
                 for _ in range(50)]
    mean = sum(estimates) / len(estimates)
    assert abs(mean - 0.4) < 0.05


def test_bernoulli_pairwise_independence():
    # On a 64-element universe the sampler's inclusions are independent
    # coins of probability p = 1/8: each index is included with frequency p
    # and the empirical pairwise correlation stays small.
    n, d = 64, 0.5
    trials = 40_000
    rng = random.Random(3)
    p = inclusion_probability(n, d)
    singles = [0] * n
    pair_hits = {}
    for _ in range(trials):
        included = bernoulli_index_subset(n, d, rng)
        for i in included:
            singles[i] += 1
        for a, b in combinations(included, 2):
            pair_hits[(a, b)] = pair_hits.get((a, b), 0) + 1
    sd = math.sqrt(p * (1 - p) / trials)
    assert all(abs(hits / trials - p) < 5 * sd for hits in singles)
    worst = 0.0
    for (a, b), hits in pair_hits.items():
        pa, pb, pab = singles[a] / trials, singles[b] / trials, hits / trials
        denom = math.sqrt(pa * (1 - pa) * pb * (1 - pb))
        worst = max(worst, abs(pab - pa * pb) / denom)
    assert worst < 0.02


class _NoSampleRandom(random.Random):
    def sample(self, population, k, **kwargs):
        raise AssertionError("drew the members with rng.sample")


def test_bernoulli_members_above_float_resolution():
    # Above 2^53 float gaps lose unit resolution, so the members come from
    # rng.sample: |E| = 2^60 at d = 0.05 gives 2^3 = 8 members on average.
    n = 2 ** 60
    rng = random.Random(12)
    sizes = []
    for _ in range(300):
        sub = bernoulli_index_subset(n, 0.05, rng)
        sizes.append(len(sub))
        assert all(a < b for a, b in zip(sub, sub[1:]))
        assert all(0 <= i < n for i in sub)
    assert abs(sum(sizes) / len(sizes) - 8.0) < 1.0
    with pytest.raises(AssertionError, match="rng.sample"):
        bernoulli_index_subset(2 ** 53 + 1, 0.05, _NoSampleRandom(1))
    # Up to 2^53 inclusive the gap positions are the members.
    for seed in range(20):
        sub = bernoulli_index_subset(2 ** 53, 0.05, _NoSampleRandom(seed))
        assert all(a < b for a, b in zip(sub, sub[1:]))
        assert all(0 <= i < 2 ** 53 for i in sub)


def test_floor_power():
    assert floor_power(100, 0.5) == 10
    assert floor_power(10 ** 6, 0.0) == 1
    big = 5 ** 40
    assert floor_power(big, 1.0) == big
    # Integer values of n^d that the float estimate exp(d log n) floors one
    # too low: |B_2| = 16 at m = 2 gives 8 relators at d = 0.75, not 7.
    assert floor_power(count_cyclically_reduced_upto(2, 2), 0.75) == 8
    assert len(uniform_count_subset(range(25), 0.5, 1)) == 5
    assert len(uniform_count_index_subset(64, 0.5, 1)) == 8
    assert floor_power(big, 0.5) == 5 ** 20
    assert floor_power(big, 0.75) == 5 ** 30
    n = count_cyclically_reduced_upto(4, 24)
    assert floor_power(n, 0.75) == math.isqrt(math.isqrt(n ** 3))
    for root in (2, 3, 10, 99, 10 ** 20 + 1):
        for q, d in ((4, 0.25), (8, 0.125), (8, 0.375)):
            p = round(d * q)
            assert floor_power(root ** q, d) == root ** p
            assert floor_power(root ** q - 1, d) == root ** p - 1
    # Against integer square roots: floor(n^(1/4)) = isqrt(isqrt(n)).
    for n in list(range(1, 30_000)) + [k * k + e for k in range(200, 400) for e in (-1, 0, 1)]:
        assert floor_power(n, 0.5) == math.isqrt(n)
        assert floor_power(n, 0.25) == math.isqrt(math.isqrt(n))
        assert floor_power(n, 0.75) == math.isqrt(math.isqrt(n ** 3))


def test_uniform_count_exact_sizes():
    universe = list(range(100))
    assert len(uniform_count_subset(universe, 0.5, 4)) == 10
    assert len(uniform_count_subset(universe, 0.0, 4)) == 1
    sub = uniform_count_index_subset(3 ** 10, 0.5, 7)
    assert len(sub) == floor_power(3 ** 10, 0.5)
    assert len(set(sub)) == len(sub)


def test_uniform_count_subsets_equally_likely():
    # |E| = 6, k = 2: all 15 pairs equally likely (chi-squared, alpha 0.001).
    trials = 30_000
    rng = random.Random(31)
    counts = {}
    for _ in range(trials):
        pair = tuple(sorted(uniform_count_subset(range(6), 0.4, rng)))
        assert len(pair) == 2  # floor(6^0.4) = 2
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 15
    expect = trials / 15
    stat = sum((c - expect) ** 2 / expect for c in counts.values())
    assert stat < chi2_critical(14, 0.001)


def test_uniform_count_inclusion_symmetry():
    trials = 20_000
    rng = random.Random(13)
    counts = [0] * 6
    for _ in range(trials):
        for i in uniform_count_subset(range(6), 0.4, rng):
            counts[i] += 1
    p = 2 / 6
    sigma = math.sqrt(trials * p * (1 - p))
    for c in counts:
        assert abs(c - trials * p) <= 3 * sigma


def test_density_estimate_examples():
    assert density_estimate(1000, 1000) == 1.0
    assert density_estimate(1, 10 ** 6) == 0.0
    assert density_estimate(0, 5 ** 20) == float("-inf")
    with pytest.raises(DomainError):
        density_estimate(-1, 100)


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 9),
       st.integers(min_value=2, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_density_estimate_monotone(a, b, n):
    lo, hi = sorted((min(a, n), min(b, n)))
    assert density_estimate(lo, n) <= density_estimate(hi, n)


def test_densable_window_flag():
    assert densable_window_flag(729, 3 ** 12, 0.5, 0.05)
    assert not densable_window_flag(2, 3 ** 12, 0.5, 0.05)


def test_intersection_with_universe_is_identity():
    # d_A = 1 makes A the universe; the intersection density equals d_B's
    # estimate exactly, per trial.
    rows = intersection_experiment(1.0, 0.5, 2, [8], trials=5, seed=1)
    n = count_cyclically_reduced_upto(2, 8)
    for row in rows:
        assert row.size_a == n
        assert row.size_intersection == row.size_b


def test_intersection_trends_small():
    rows = intersection_experiment(0.7, 0.7, 2, [12], trials=20, seed=2)
    ests = [r.density_est for r in rows]
    mean = sum(ests) / len(ests)
    assert abs(mean - 0.4) < 0.1
    rows_low = intersection_experiment(0.2, 0.2, 2, [12], trials=50, seed=3)
    empty = sum(r.size_intersection == 0 for r in rows_low)
    assert empty >= 45


def test_sample_relator_set():
    model = DensityModel("bernoulli", 0.4, 0)
    rel = sample_relator_set(2, 8, model, 5)
    assert len({w.letters for w in rel.relators}) == len(rel.relators)
    assert all(w.is_cyclically_reduced() and 1 <= len(w) <= 8 for w in rel.relators)
    again = sample_relator_set(2, 8, model, 5)
    assert rel.relators == again.relators
    with pytest.raises(FeasibilityError):
        sample_relator_set(3, 40, DensityModel("bernoulli", 0.9, 0), 1)


@pytest.mark.parametrize("m, maxlen, kind, d, seed", [
    (2, 12, "bernoulli", 0.75, 3),
    (2, 8, "bernoulli", 1.0, 0),
    (3, 8, "bernoulli", 0.2, 7),
    (3, 12, "count", 0.45, 11),
    (4, 6, "count", 0.6, 2),
])
def test_sampled_relator_set_passes_the_validating_constructor(m, maxlen, kind, d, seed):
    # The sampler builds its words and its set without checks; the public
    # constructors, which check everything, must accept the same output.
    model = DensityModel(kind, d, seed)
    rel = sample_relator_set(m, maxlen, model, seed)
    checked = RelatorSet(m, maxlen, tuple(Word(w.letters) for w in rel.relators), model)
    assert checked == rel and len(rel) > 0
    assert all(type(x) is int for w in rel.relators for x in w.letters)
    assert [w.letters for w in rel.relators] == \
        sorted((w.letters for w in rel.relators), key=lambda t: (len(t), t))


def _counted_unrank(monkeypatch) -> list[int]:
    """Count the calls of the word tables' unrank from now on."""
    calls = []
    unrank = _WordTables.unrank

    def counted(self, index):
        calls.append(index)
        return unrank(self, index)

    monkeypatch.setattr(_WordTables, "unrank", counted)
    return calls


def test_sampled_words_behave_as_their_tuple(monkeypatch):
    model = DensityModel("bernoulli", 0.6, 0)
    indices = sample_relator_indices(2, 8, model, 5)
    eager = tuple(word_at_index(2, 8, i) for i in indices)
    n = len(eager)
    assert n > 40
    calls = _counted_unrank(monkeypatch)

    def fresh():
        return sample_relator_set(2, 8, model, 5).relators

    lazy = fresh()
    assert len(lazy) == n and calls == []
    assert lazy[4] == eager[4] and calls == indices[:5]  # the prefix, in order
    assert lazy[2] == eager[2] and len(calls) == 5       # memoized
    assert lazy[-1] == eager[-1] and lazy[-n] == eager[0] and calls == indices
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            lazy[bad]
    lazy = fresh()
    assert lazy[3:9] == eager[3:9] and lazy[::-7] == eager[::-7]
    assert lazy[9:3] == () and lazy[-4:] == eager[-4:]
    # Interleaved iterators share the words unranked so far.
    lazy = fresh()
    calls.clear()
    a, b = iter(lazy), iter(lazy)
    firsts = [next(a) for _ in range(10)]
    assert firsts == list(eager[:10]) and len(calls) == 10
    merged = [(next(b), y) for y in a]
    assert merged == list(zip(eager, eager[10:])) and len(calls) == n
    # Equality and hash are those of the tuple of the words.
    lazy = fresh()
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert lazy == fresh() and lazy != eager[:-1] and lazy != list(eager)
    assert sample_relator_set(2, 8, model, 5) == RelatorSet(2, 8, eager)
    assert hash(sample_relator_set(2, 8, model, 5)) == hash(RelatorSet(2, 8, eager))


def test_expected_relator_count():
    n = count_cyclically_reduced_upto(2, 8)
    assert abs(expected_relator_count(2, 8, 0.5) - n ** 0.5) < 1e-6
