import math
import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from freiheit.errors import DomainError, FeasibilityError, MalformedWordError
from freiheit.words import (Word, _WordTables, canonical_cyclic,
                            count_cyclically_reduced_exact,
                            count_cyclically_reduced_upto, count_reduced_exact,
                            cyclic_key, cyclic_reduce, cyclically_reduced_words,
                            enumerate_cyclically_reduced, free_reduce, key_tables,
                            min_cyclic_rotation, reduced_words, sample_cyclically_reduced,
                            word_at_index, word_from_text, word_tables, word_to_text)

from oracles import (brute_cyclically_reduced, brute_reduced_words, chi2_critical,
                     cyclically_reduced_count_dp, end_state_counts, length_lex_rank,
                     stack_reduce, triple_concat_cyclic_reduce)

letters_strategy = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
word_strategy = st.lists(letters_strategy, max_size=24).map(tuple)


def test_free_reduce_examples():
    assert free_reduce([1, -1]).letters == ()
    assert free_reduce([1, 2, -2, 1]).letters == (1, 1)
    assert free_reduce([]).letters == ()


def test_free_reduce_rejects_malformed():
    with pytest.raises(MalformedWordError):
        free_reduce([1, 0, 2])
    with pytest.raises(MalformedWordError):
        free_reduce([1, 3], m=2)


def test_cyclic_reduce_examples():
    assert cyclic_reduce([-1, 2, 1]).letters == (2,)
    already = Word((1, 2, 1))
    assert cyclic_reduce(already) == already


@given(word_strategy)
@settings(max_examples=300, deadline=None)
def test_free_reduce_matches_stack_oracle(letters):
    assert free_reduce(letters).letters == stack_reduce(letters)


@given(word_strategy)
@settings(max_examples=300, deadline=None)
def test_free_reduce_idempotent_and_shrinking(letters):
    once = free_reduce(letters)
    assert free_reduce(once) == once
    assert once.is_reduced()
    assert len(once) <= len(letters)
    assert (len(letters) - len(once)) % 2 == 0


@given(word_strategy)
@settings(max_examples=300, deadline=None)
def test_cyclic_reduce_matches_triple_concatenation_oracle(letters):
    got = cyclic_reduce(letters)
    assert got.letters == triple_concat_cyclic_reduce(letters)
    assert got.is_cyclically_reduced()
    assert cyclic_reduce(got) == got


def test_reduced_count_formula():
    assert count_reduced_exact(2, 2) == 12
    assert count_reduced_exact(2, 1) == 4
    assert count_reduced_exact(2, 0) == 1
    for m in (2, 3):
        for L in range(1, 5):
            assert count_reduced_exact(m, L) == len(brute_reduced_words(m, L))


def test_cyclically_reduced_counts_match_brute_force():
    for m in (2, 3):
        brute = brute_cyclically_reduced(m, 4)
        by_len = {}
        for w in brute:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        for L in range(1, 5):
            assert count_cyclically_reduced_exact(m, L) == by_len[L]
        assert count_cyclically_reduced_upto(m, 4) == len(brute)


def test_cyclically_reduced_closed_form_matches_tables():
    # The end-state dynamic program counts without the closed form, so it
    # checks it independently.
    for m in range(2, 7):
        counts = end_state_counts(m, 20)
        for L in range(1, 21):
            assert count_cyclically_reduced_exact(m, L) == \
                cyclically_reduced_count_dp(counts, L), (m, L)
    assert count_cyclically_reduced_exact(2, 0) == 1
    for m, L in ((1, 3), (0, 3), (2, -1)):
        with pytest.raises(DomainError):
            count_cyclically_reduced_exact(m, L)


def test_count_upto_is_the_closed_form_sum_and_builds_no_table():
    def table_calls():
        info = word_tables.cache_info()
        return info.hits + info.misses

    calls = table_calls()
    for m in (2, 3):
        for maxlen in range(1, 7):
            assert count_cyclically_reduced_upto(m, maxlen) == \
                len(brute_cyclically_reduced(m, maxlen)), (m, maxlen)
    assert count_cyclically_reduced_upto(26, 3000) > 51 ** 3000
    assert table_calls() == calls
    for m in range(2, 7):
        counts = end_state_counts(m, 20)
        for maxlen in range(1, 21):
            assert count_cyclically_reduced_upto(m, maxlen) == \
                sum(cyclically_reduced_count_dp(counts, L) for L in range(1, maxlen + 1)), \
                (m, maxlen)
    for m, maxlen in ((1, 3), (0, 3), (2, 0)):
        with pytest.raises(DomainError):
            count_cyclically_reduced_upto(m, maxlen)


@pytest.mark.parametrize("m, maxlen", [(2, 40), (3, 20), (5, 30), (26, 40)])
def test_rank_inverts_unrank(m, maxlen):
    # The rank oracle reads the end-state dynamic program, not the closed
    # forms that unrank divides by.
    counts = end_state_counts(m, maxlen)
    tables = word_tables(m, maxlen)
    rng = random.Random(m * maxlen)
    indices = [rng.randrange(tables.total) for _ in range(300)] + _block_ends(tables)
    for i in indices:
        word = word_at_index(m, maxlen, i)
        assert word.is_cyclically_reduced() and length_lex_rank(counts, word) == i, i


def _block_ends(tables) -> list[int]:
    """Both ends of every (length, first letter) block: every block step of
    the first word takes its least branch, every step of the last its
    greatest."""
    ends, letters = [], 2 * tables.m
    for start, end in zip(tables.cumulative, tables.cumulative[1:]):
        per_letter = (end - start) // letters
        for j in range(letters):
            ends += [start + j * per_letter, start + (j + 1) * per_letter - 1]
    return ends


@pytest.mark.parametrize("m, maxlen", [(2, 6), (3, 5), (2, 12), (3, 12), (3, 20), (26, 40)])
def test_index_keys_are_the_letter_keys(m, maxlen):
    # Every index of the small universes; elsewhere random indices and the
    # ends of every block. At m = 26 every step reads one letter. The
    # reference sums each cyclic bigram's weight, read off the word.
    tables = word_tables(m, maxlen)
    if tables.total < 10_000:
        indices = list(range(tables.total))
    else:
        rng = random.Random(m * maxlen)
        indices = [rng.randrange(tables.total) for _ in range(300)] + _block_ends(tables)
    weights = key_tables(m).weights
    words = [tables.unrank(i).letters for i in indices]
    expected = [sum(weights[w[k - 1]][x] for k, x in enumerate(w)) for w in words]
    assert list(tables.keys(indices)) == expected
    assert [cyclic_key(w, weights) for w in words] == expected


def test_unrank_tables_stay_small():
    # At m = 26 blocks are one letter long, and the count tables, stored
    # once per distinct tuple, hold O(m^2 + maxlen) small integers: no table
    # per length and letter pair.
    tracemalloc.start()
    try:
        word = _WordTables(26, 12).unrank(10 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == 12 and peak < 2 ** 20, peak


def test_cyclically_reduced_words_one_length():
    for m in (2, 3):
        for L in range(1, 5):
            got = [w.letters for w in cyclically_reduced_words(m, L)]
            assert got == [w for w in brute_reduced_words(m, L) if w[0] != -w[-1]]
            assert len(got) == count_cyclically_reduced_exact(m, L)
    # The guard acts at the call, before the first word is asked for.
    for m, L in ((1, 3), (0, 3), (2, 0)):
        with pytest.raises(DomainError):
            cyclically_reduced_words(m, L)


def test_exact_counts_dominate_cyclic_counts():
    for m in (2, 3):
        for L in range(1, 7):
            assert count_cyclically_reduced_exact(m, L) <= count_reduced_exact(m, L)


def test_enumeration_small_cases():
    assert len(list(enumerate_cyclically_reduced(2, 1))) == 4
    words = list(enumerate_cyclically_reduced(2, 2))
    assert len(words) == 16
    assert len({w.letters for w in words}) == 16
    assert all(w.is_cyclically_reduced() for w in words)
    assert {w.letters for w in words} == set(brute_cyclically_reduced(2, 2))


def test_enumeration_is_length_then_lex():
    words = [w.letters for w in enumerate_cyclically_reduced(2, 3)]
    assert words == sorted(words, key=lambda t: (len(t), t))


def test_reduced_words_match_brute_force_in_order():
    for m in (2, 3, 4):
        for L in range(1, 7):
            assert list(reduced_words(m, L)) == brute_reduced_words(m, L), (m, L)
    assert list(reduced_words(2, 0)) == [()]
    with pytest.raises(DomainError):
        next(reduced_words(2, -1))


def test_enumerators_stream():
    # There are 6,377,292 reduced words of length 14 at m = 2; the first few
    # must come back without a list of any level being built.
    tracemalloc.start()
    try:
        first = list(islice(reduced_words(2, 14), 5))
        assert first[0] == (-2,) * 14 and first[4] == (-2,) * 12 + (-1, -1)
        assert len(list(islice(enumerate_cyclically_reduced(2, 14), 5))) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_enumeration_guard():
    with pytest.raises(FeasibilityError):
        list(enumerate_cyclically_reduced(4, 30))


def test_unrank_matches_enumeration():
    # At (2, 9) and (3, 7) words run past T + 1 letters, so a middle step, a
    # short head block or a full one, runs before the last block.
    for m, maxlen in [(2, 4), (2, 8), (3, 5), (2, 9), (3, 7)]:
        count = 0
        for i, w in enumerate(enumerate_cyclically_reduced(m, maxlen)):
            assert word_at_index(m, maxlen, i) == w
            count += 1
        assert count == count_cyclically_reduced_upto(m, maxlen)
        with pytest.raises(DomainError):
            word_at_index(m, maxlen, count)
        with pytest.raises(DomainError):
            word_at_index(m, maxlen, -1)


def test_unrank_length_blocks_start_and_end_at_constant_words():
    # In length-then-lex order each length block of B_20 (m = 3) runs from
    # x3^-L to x3^L.
    tables = word_tables(3, 20)
    for length in range(1, 21):
        lo, hi = tables.cumulative[length - 1], tables.cumulative[length] - 1
        assert word_at_index(3, 20, lo).letters == (-3,) * length
        assert word_at_index(3, 20, hi).letters == (3,) * length


def test_asymptotic_count_exponent():
    # |B_l| = (2m-1)^(l + o(l)): the exponent ratio is near 1 at l = 14.
    m = 2
    n = count_cyclically_reduced_upto(m, 14)
    ratio = math.log(n) / (14 * math.log(2 * m - 1))
    assert abs(ratio - 1.0) < 0.1


def test_sampling_deterministic():
    assert sample_cyclically_reduced(2, 5, 42) == sample_cyclically_reduced(2, 5, 42)
    r1, r2 = random.Random(7), random.Random(7)
    seq1 = [sample_cyclically_reduced(2, 5, r1) for _ in range(50)]
    seq2 = [sample_cyclically_reduced(2, 5, r2) for _ in range(50)]
    assert seq1 == seq2


def test_single_letter_uniformity_three_sigma():
    trials = 40_000
    rng = random.Random(11)
    counts = {}
    for _ in range(trials):
        w = sample_cyclically_reduced(2, 1, rng)
        counts[w.letters[0]] = counts.get(w.letters[0], 0) + 1
    expect = trials / 4
    sigma = math.sqrt(trials * 0.25 * 0.75)
    for letter in (-2, -1, 1, 2):
        assert abs(counts.get(letter, 0) - expect) <= 3 * sigma


def test_length_two_mass_three_sigma():
    # 12 of the 16 words in B_2 have length 2.
    trials = 30_000
    rng = random.Random(5)
    hits = sum(len(sample_cyclically_reduced(2, 2, rng)) == 2 for _ in range(trials))
    p = 12 / 16
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_chi_squared_uniform_over_support():
    # Exhaustive support of B_4 for m = 2; chi-squared at alpha = 0.001.
    m, maxlen = 2, 4
    support = [w.letters for w in enumerate_cyclically_reduced(m, maxlen)]
    n_cells = len(support)
    trials = 60 * n_cells
    rng = random.Random(17)
    counts = {w: 0 for w in support}
    for _ in range(trials):
        counts[sample_cyclically_reduced(m, maxlen, rng).letters] += 1
    expect = trials / n_cells
    stat = sum((c - expect) ** 2 / expect for c in counts.values())
    assert stat < chi2_critical(n_cells - 1, 0.001)


@given(word_strategy.filter(lambda t: all(abs(x) <= 3 for x in t)))
@settings(max_examples=200, deadline=None)
def test_text_roundtrip(letters):
    w = Word(letters)
    assert word_from_text(word_to_text(w)) == w


def test_text_examples():
    assert word_from_text("aBa").letters == (1, -2, 1)
    assert word_to_text(Word((1, -2, 1))) == "aBa"
    assert word_from_text("1").letters == ()
    with pytest.raises(MalformedWordError):
        word_from_text("a!b")


def test_canonical_cyclic():
    w = Word((1, 2, -1))
    variants = [Word(v[k:] + v[:k]) for v in (w, w.inverse()) for k in range(3)]
    canons = {canonical_cyclic(v).letters for v in variants}
    assert len(canons) == 1
    assert min_cyclic_rotation((2, 1, 2, 1)) == (1, 2, 1, 2)


def _naive_min_rotation(letters):
    n = len(letters)
    doubled = letters + letters
    return min((doubled[i:i + n] for i in range(n)), default=())


@given(st.lists(letters_strategy, max_size=150).map(tuple))
@settings(max_examples=300, deadline=None)
def test_min_cyclic_rotation_matches_naive(letters):
    assert min_cyclic_rotation(letters) == _naive_min_rotation(letters)


# Powers of short words: every occurrence of the least letter starts a
# candidate rotation, and many candidates tie.
periodic_strategy = st.tuples(st.lists(letters_strategy, min_size=1, max_size=6),
                              st.integers(min_value=1, max_value=40),
                              st.integers(min_value=0, max_value=239))


@given(periodic_strategy)
@settings(max_examples=300, deadline=None)
def test_min_cyclic_rotation_of_periodic_words(case):
    period, power, shift = case
    word = tuple(period) * power
    shift %= len(word)
    word = word[shift:] + word[:shift]
    assert min_cyclic_rotation(word) == _naive_min_rotation(word)


def test_min_cyclic_rotation_of_near_periodic_words():
    # Many occurrences of the least letter: the rotations they start tie, or
    # the least of them does not start at the first occurrence.
    assert min_cyclic_rotation((1, 2, 1, 1)) == (1, 1, 1, 2)
    for n in range(40):
        for letters in [(1,) * n, (-2, 1) * n, (1, 2) * n + (1, 1),
                        (1,) * n + (2,) + (1,) * (n + 1), (2, -1, -1) * n + (2, -1)]:
            assert min_cyclic_rotation(letters) == _naive_min_rotation(letters)


def test_tables_total_matches_stream():
    tables = word_tables(3, 3)
    assert tables.total == len(list(enumerate_cyclically_reduced(3, 3)))
