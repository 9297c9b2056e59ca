import functools
import math
import random
import sys
from itertools import chain, product

import pytest

from freiheit import density, experiments, words
from freiheit.density import (DensityModel, RelatorSet, make_relator_set, sample_relator_indices,
                              sample_relator_set)
from freiheit.errors import DomainError, FeasibilityError
from freiheit.experiments import (CollapseResult, SweepBudgets, TransitionConfig,
                                  collapse_probe, collapse_success_probability,
                                  count_collapse_class,
                                  critical_density, epsilon_d, fillability_bound,
                                  fillability_crossover, freeness_probe,
                                  rewrite_presentation, run_trial,
                                  transition_sweep, triviality_probe)
from freiheit.seeds import rng_for
from freiheit.stallings import LabeledGraph, wedge_of_words
from freiheit.words import (Word, _WordTables, count_cyclically_reduced_upto,
                            enumerate_cyclically_reduced, word_tables)

from oracles import canonical_triviality_probe, chi2_critical


def test_critical_density_r1_is_half():
    for m in range(2, 13):
        assert critical_density(m, 1).d_r == 0.5
        assert critical_density(m, 1).c_r == 0.0


def test_critical_density_value():
    cd = critical_density(3, 2)
    assert abs(cd.d_r - (1 - math.log(3) / math.log(5))) < 1e-12
    assert abs(cd.d_r - 0.31739) < 1e-4


def test_critical_density_monotone_and_half_characterization():
    for m in range(2, 13):
        values = [critical_density(m, r).d_r for r in range(1, m)]
        below = [v for v in values if v < 0.5]
        assert below == sorted(below, reverse=True)
        for r in range(1, m):
            at_half = critical_density(m, r).d_r == 0.5
            assert at_half == ((2 * r - 1) ** 2 <= 2 * m - 1)


def test_critical_density_domain():
    with pytest.raises(DomainError):
        critical_density(3, 3)
    with pytest.raises(DomainError):
        critical_density(1, 1)


def test_epsilon_d():
    d_r = critical_density(3, 2).d_r
    assert abs(epsilon_d(3, 2, d_r - 0.25) - 0.05) < 1e-12
    assert abs(epsilon_d(3, 2, 0.1) - (d_r - 0.1) / 5) < 1e-12
    assert abs(epsilon_d(3, 2, 0.1) * 5 + 0.1 - d_r) < 1e-12
    for d in (0.4, -0.1, math.nan):
        with pytest.raises(DomainError):
            epsilon_d(3, 2, d)


def test_collapse_probe_examples():
    res = collapse_probe(make_relator_set(3, 3, [Word((3, 1, 2))]), 2)
    assert res.success and res.substitutions[3].letters == (-2, -1)
    res2 = collapse_probe(make_relator_set(2, 3, [Word((2, 1, 1))]), 1)
    assert res2.success and res2.substitutions[2].letters == (-1, -1)
    # inverted occurrence: a relator containing x3^{-1}
    res3 = collapse_probe(make_relator_set(3, 3, [Word((1, -3, 2))]), 2)
    assert res3.success and res3.substitutions[3].letters == (2, 1)
    none = collapse_probe(make_relator_set(3, 3, [Word((3, 3, 1))]), 2)
    assert not none.success and none.witnesses[3] is None


def test_collapse_witness_replays():
    rng = random.Random(8)
    for _ in range(40):
        rel = sample_relator_set(3, 8, DensityModel("bernoulli", 0.35, 0), rng)
        res = collapse_probe(rel, 2)
        for gen, wit in res.witnesses.items():
            if wit is None:
                continue
            rotated = wit.relator.letters[wit.rotation:] + wit.relator.letters[:wit.rotation]
            assert abs(rotated[0]) == gen
            assert all(abs(x) <= 2 for x in rotated[1:])
            assert len(wit.substitution) <= rel.maxlen - 1


def test_collapse_class_count_brute():
    def brute(m, r, gen, maxlen):
        letters = [x for x in range(-m, m + 1) if x != 0]
        count = 0
        for L in range(1, maxlen + 1):
            for tup in product(letters, repeat=L):
                w = Word(tup)
                if not w.is_cyclically_reduced():
                    continue
                bigs = [x for x in tup if abs(x) > r]
                if len(bigs) == 1 and abs(bigs[0]) == gen:
                    count += 1
        return count

    for m, r, gen, L in [(3, 2, 3, 4), (2, 1, 2, 5), (3, 1, 2, 3), (2, 1, 2, 8),
                         (4, 2, 3, 5), (4, 3, 4, 4)]:
        assert count_collapse_class(m, r, gen, L) == brute(m, r, gen, L)


def test_triviality_probe_planted_pair():
    w = Word((2, 1, 2))
    rel = make_relator_set(2, 4, [w, Word((1,) + w.letters)])
    ev = triviality_probe(rel)
    assert ev.witnesses[1] is not None and ev.witnesses[2] is None
    assert not ev.all_trivial and ev.any_evidence
    wit = ev.witnesses[1]
    rotated = wit.relator.letters[wit.rotation:] + wit.relator.letters[:wit.rotation]
    assert rotated[0] == 1
    partner_rot = wit.partner.letters[wit.partner_rotation:] + \
        wit.partner.letters[:wit.partner_rotation]
    assert rotated[1:] == partner_rot


def test_triviality_probe_rotation_matching():
    # The pair appears only after rotating both relators.
    rel = make_relator_set(2, 4, [Word((1, 2, 2)), Word((2, 1, 1, 2))])
    # rotations: (1,1,2,2)? relator (2,1,1,2) rotated to start at +1 gives
    # (1,1,2,2)... wait: rotations of (2,1,1,2): (1,1,2,2),(1,2,2,1),(2,2,1,1).
    # (1,1,2,2) = x1 . (1,2,2) and (1,2,2) is a rotation of (2,1,2)? no: of (1,2,2) itself.
    ev = triviality_probe(rel)
    assert ev.witnesses[1] is not None


def test_triviality_probe_empty():
    assert not triviality_probe(make_relator_set(2, 4, [])).any_evidence


def test_triviality_probe_bare_generator():
    ev = triviality_probe(make_relator_set(2, 3, [Word((1,))]))
    assert ev.witnesses[1] is not None and ev.witnesses[1].partner is None


def _rotation(w: Word, k: int) -> Word:
    return Word(w[k:] + w[:k])


def _planted_relator_sets(seed: int, count: int):
    """Random sorted relator sets at small m and l: a Bernoulli choice from
    B_l, plus rotations of chosen members (several relators of one rotation
    class) and rotations of x_i w for chosen members w (pairs)."""
    rng = random.Random(seed)
    universes = {(m, l): list(enumerate_cyclically_reduced(m, l))
                 for m, l in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]}
    for _ in range(count):
        (m, maxlen), universe = rng.choice(sorted(universes.items()))
        p = rng.choice([0.01, 0.03, 0.1, 0.3])
        words = [w for w in universe if rng.random() < p]
        for w in rng.sample(words, min(4, len(words))):
            words.append(_rotation(w, rng.randrange(len(w))))
            if len(w) < maxlen:
                gen = rng.randrange(1, m + 1)
                pair = Word((gen,) + _rotation(w, rng.randrange(len(w))).letters)
                if pair.is_cyclically_reduced():
                    words.append(_rotation(pair, rng.randrange(len(pair))))
        yield make_relator_set(m, maxlen, words)


def _coverage(rel, ev) -> set[str]:
    """The cases of the probe that a relator set and its evidence exercise."""
    seen = set()
    classes = {}
    for w in rel.relators:
        classes.setdefault(min(w[s:] + w[:s] for s in range(len(w))), []).append(w)
        if len(w) <= 2:
            seen.add(f"length-{len(w)} relator")
        k = len(w)
        if any(x > 0 and k > 2 and w[i - 1] == -w[(i + 1) % k] for i, x in enumerate(w)):
            seen.add("remainder not cyclically reduced")
    for wit in ev.witnesses.values():
        if wit is None:
            continue
        if wit.partner is None:
            seen.add("bare generator")
            continue
        seen.add("pair")
        cls = min(wit.partner[s:] + wit.partner[:s] for s in range(len(wit.partner)))
        if len(classes[cls]) > 1:
            seen.add("partner among rotations of one another")
        if wit.partner_rotation:
            seen.add("rotated partner")
    return seen


def _random_cyclically_reduced(rng, m: int, length: int) -> Word:
    while True:
        w = Word(tuple(rng.choice([1, -1]) * rng.randrange(1, m + 1) for _ in range(length)))
        if w.is_cyclically_reduced():
            return w


def _planted_pair(rng, m: int, length: int) -> tuple[int, Word, Word]:
    """A generator x_i and rotations of a word w of length - 1 and of x_i w."""
    while True:
        w = _random_cyclically_reduced(rng, m, length - 1)
        gen = rng.randrange(1, m + 1)
        pair = Word((gen,) + w.letters)
        if pair.is_cyclically_reduced():
            return (gen, _rotation(w, rng.randrange(len(w))),
                    _rotation(pair, rng.randrange(len(pair))))


def _boundary_relator_sets(seed: int, count: int):
    """Sets whose one witnessed pair is a relator of length maxlen and its
    partner of length maxlen - 1, among random words of every length up to
    maxlen that witness nothing else."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        m, maxlen = rng.choice([2, 3]), rng.randrange(3, 8)
        gen, w, pair = _planted_pair(rng, m, maxlen)
        words = {w, pair} | {_random_cyclically_reduced(rng, m, rng.randrange(1, maxlen + 1))
                             for _ in range(rng.randrange(12))}
        rel = make_relator_set(m, maxlen, words)
        found = {g: wit for g, wit in canonical_triviality_probe(rel).witnesses.items() if wit}
        if list(found) == [gen] and found[gen].relator == pair and found[gen].partner == w:
            made += 1
            yield rel


def _successive_relator_sets(seed: int, count: int):
    """Sets in which one generator's pair precedes another's, and a later
    pair for the first generator follows: the first pair must stay its
    witness, and the second generator must still be searched for."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        m, maxlen = rng.choice([2, 3]), rng.randrange(5, 9)
        short, longer = sorted(rng.sample(range(2, maxlen + 1), 2))
        first, w1, pair1 = _planted_pair(rng, m, short)
        second, w2, pair2 = _planted_pair(rng, m, longer)
        again, w3, pair3 = _planted_pair(rng, m, rng.randrange(longer, maxlen + 1))
        if second == first or again != first:
            continue
        words = {w1, pair1, w2, pair2, w3, pair3}
        rel = make_relator_set(m, maxlen, words)
        found = canonical_triviality_probe(rel).witnesses
        if (found[first] and found[first].relator == pair1
                and found[second] and found[second].relator == pair2):
            made += 1
            yield rel


def _constant_bigram_weights(monkeypatch) -> None:
    """Every bigram weight 1, so a key is a word's length. The probe's keys
    and its deletion and insertion keys all come from the weights through a
    cache per m, so every module that reads the cache gets a fresh one that
    reads the patched weights."""
    monkeypatch.setattr(words, "_bigram_weights",
                        lambda m: [[1] * (2 * m + 1)] * (2 * m + 1))
    fresh = functools.lru_cache(words.key_tables.__wrapped__)
    for module in (words, density, experiments):
        monkeypatch.setattr(module, "key_tables", fresh)


@pytest.mark.parametrize("weights", ["pseudo-random", "constant"])
def test_triviality_probe_matches_the_canonical_lookup(weights, monkeypatch):
    # Every witness, partners and shifts included, equals the one found by
    # canonicalizing the whole set first. With constant bigram weights every
    # relator of the candidate's length is a key hit, so only the
    # confirmation by canonical rotation tells them apart. The boundary sets
    # pin that a relator of length maxlen, which the probe does not store,
    # still finds its partner; the successive ones, that a found generator
    # is no longer looked up and the others still are.
    if weights == "constant":
        _constant_bigram_weights(monkeypatch)
    seen = set()
    for rel in chain(_planted_relator_sets(2024, 600), _boundary_relator_sets(30, 150),
                     _successive_relator_sets(31, 150)):
        ev = triviality_probe(rel)
        assert ev == canonical_triviality_probe(rel), rel.relators
        seen |= _coverage(rel, ev)
    assert seen == {"length-1 relator", "length-2 relator", "remainder not cyclically reduced",
                    "bare generator", "pair", "partner among rotations of one another",
                    "rotated partner"}


def test_triviality_probe_matches_the_canonical_lookup_on_sampled_sets():
    # The last three shapes are the sweep's hot cells; at (3, 12, 0.45) most
    # witnesses are relators of length maxlen.
    shapes = ([(2, 8, 0.6), (2, 10, 0.5), (3, 6, 0.6), (3, 8, 0.45)] * 5
              + [(3, 12, 0.45), (2, 12, 0.6), (2, 12, 0.75)] * 2)
    for t, (m, maxlen, d) in enumerate(shapes):
        rel = sample_relator_set(m, maxlen, DensityModel("bernoulli", d, 0),
                                 rng_for(17, "probe", t))
        assert triviality_probe(rel) == canonical_triviality_probe(rel)


def _small_relator_sets(seed: int, count: int):
    """Random sets at maxlen 1 to 4 built from words: a Bernoulli choice from
    B_maxlen, from its words of length maxlen alone, or from the shorter
    ones alone."""
    rng = random.Random(seed)
    universes = {(m, l): list(enumerate_cyclically_reduced(m, l))
                 for m in (2, 3) for l in (1, 2, 3, 4)}
    for _ in range(count):
        (m, maxlen), universe = rng.choice(sorted(universes.items()))
        p = rng.choice([0.05, 0.15, 0.4])
        keep = rng.choice([None, True, False])  # None keeps every length
        yield make_relator_set(m, maxlen, [
            w for w in universe
            if (keep is None or (len(w) == maxlen) == keep) and rng.random() < p])


def _top_layer_cases(rel, ev) -> set[str]:
    """The edges of the keyed top layer (the relators of length maxlen) that
    a set and its evidence exercise."""
    maxlen = rel.maxlen
    lengths = {len(w) for w in rel.relators}
    found = [wit for wit in ev.witnesses.values() if wit]
    top = any(len(wit.relator) == maxlen for wit in found)
    seen = set()
    if lengths and maxlen not in lengths:
        seen.add("no relator of length maxlen")
    if lengths == {maxlen}:
        seen.add("only relators of length maxlen")
    if top and any(len(wit.relator) < maxlen for wit in found):
        seen.add("a generator witnessed before the top layer, another in it")
    if top and maxlen == 1:
        seen.add("bare generator in the top layer")
    if top and maxlen == 2:
        seen.add("partner of length 1")
    return seen


def test_triviality_probe_keys_the_top_layer_exactly():
    # The relators of length maxlen are searched only when their key is an
    # insertion key, so the edges of that layer are checked against the
    # canonical lookup: a sampled set (of either model, the count model's
    # indices being one layer) before anything has read it, the same set
    # with its first two thirds read and kept, whose kept words are keyed
    # from their letters, and the set of its words; and small sets built
    # from words. A generator with a witness before the top layer gets no
    # insertion keys.
    shapes = [(2, 1, 0.6), (3, 1, 0.5), (2, 2, 0.3), (2, 2, 0.6), (3, 2, 0.5),
              (2, 3, 0.2), (2, 3, 0.5), (3, 3, 0.55), (3, 4, 0.5), (2, 6, 0.55)]
    seen = {"sampled": set(), "words": set()}
    for t, (m, maxlen, d) in enumerate(shapes * 20):
        model = DensityModel("count" if t % 3 == 2 else "bernoulli", d, 0)
        rel = sample_relator_set(m, maxlen, model, rng_for(23, "top layer", t))
        ev = triviality_probe(rel)
        assert ev == canonical_triviality_probe(rel), rel.relators
        read = sample_relator_set(m, maxlen, model, rng_for(23, "top layer", t))
        if len(read):
            read.relators[len(read) * 2 // 3]
        assert triviality_probe(read) == ev
        assert triviality_probe(make_relator_set(m, maxlen, rel.relators)) == ev
        seen["sampled"] |= _top_layer_cases(rel, ev)
    for rel in _small_relator_sets(29, 400):
        ev = triviality_probe(rel)
        assert ev == canonical_triviality_probe(rel), rel.relators
        seen["words"] |= _top_layer_cases(rel, ev)
    cases = {"no relator of length maxlen", "only relators of length maxlen",
             "a generator witnessed before the top layer, another in it",
             "bare generator in the top layer", "partner of length 1"}
    assert seen == {"sampled": cases, "words": cases}


def test_trial_unranks_only_the_relators_its_probes_read(monkeypatch):
    unranked = []
    unrank = _WordTables.unrank

    def counted(self, index):
        unranked.append(index)
        return unrank(self, index)

    inserted = set()
    insertion_keys = experiments._insertion_keys

    def recorded(*args):
        keys = insertion_keys(*args)
        inserted.update(keys)
        return keys

    monkeypatch.setattr(_WordTables, "unrank", counted)
    monkeypatch.setattr(experiments, "_insertion_keys", recorded)
    lazy = run_trial(2, 1, 12, 0.75, "bernoulli", rng_for(5, "early stop"))
    assert lazy.collapse and lazy.trivial and not lazy.fast_path
    assert lazy.relator_count > 20_000 and len(unranked) < lazy.relator_count / 20

    # At (3, 2, 12, 0.45) the triviality probe reads most of the set, four
    # fifths of it of length 12. It unranks the shorter relators it reads,
    # in order, and of those of length 12 only the ones whose key, computed
    # from the index, is an insertion key.
    unranked.clear()
    hot = run_trial(3, 2, 12, 0.45, "bernoulli", rng_for(5, "hot cell"))
    indices = sample_relator_indices(3, 12, DensityModel("bernoulli", 0.45, 0),
                                     rng_for(5, "hot cell"))
    tables = word_tables(3, 12)
    bound = tables.cumulative[11]
    shorter = [i for i in indices if i < bound]
    longest = [i for i in indices if i >= bound]
    hits = sum(key in inserted for key in tables.keys(longest))
    read = [i for i in unranked if i < bound]
    assert read == shorter[:len(read)] and len(longest) > 3 * len(shorter)
    assert all(key in inserted for key in tables.keys(i for i in unranked if i >= bound))
    assert 0 < hits < len(longest) / 20 and len(unranked) <= len(shorter) + hits

    def eager_sample(*args, **kwargs):
        rel = sample_relator_set(*args, **kwargs)
        return RelatorSet(rel.m, rel.maxlen, tuple(rel.relators), rel.provenance)

    monkeypatch.setattr(experiments, "sample_relator_set", eager_sample)
    unranked.clear()
    eager = run_trial(2, 1, 12, 0.75, "bernoulli", rng_for(5, "early stop"))
    assert len(unranked) == eager.relator_count
    assert eager == lazy
    assert run_trial(3, 2, 12, 0.45, "bernoulli", rng_for(5, "hot cell")) == hot


def test_rewrite_presentation_examples():
    rel = make_relator_set(3, 3, [Word((3, 1, 2))])
    out = rewrite_presentation(rel, {3: Word((-2, -1))})
    assert out.dropped_trivial == 1 and len(out.relators) == 0 and out.r == 2
    # identity substitution over X_r leaves relators unchanged
    rel2 = make_relator_set(3, 3, [Word((1, 2)), Word((2, 2, 1))])
    out2 = rewrite_presentation(rel2, {3: Word((1,))})
    assert {w.letters for w in out2.relators} == {(1, 2), (2, 2, 1)}


def test_rewrite_presentation_down_to_one_generator():
    # m = 2 eliminates down to r = 1, the only rank of the sweep's m = 2
    # cells: a one-generator presentation is a valid result.
    out = rewrite_presentation(make_relator_set(2, 3, [Word((2, 1))]), {2: Word((1,))})
    assert out.r == 1 and out.relators.m == 1
    assert [w.letters for w in out.relators] == [(1, 1)]


def test_rewrite_presentation_bookkeeping():
    rng = random.Random(6)
    for _ in range(20):
        rel = sample_relator_set(3, 8, DensityModel("bernoulli", 0.3, 0), rng)
        subs = {3: Word(tuple(rng.choice([-2, -1, 1, 2])
                              for _ in range(rng.randrange(0, 8))))}
        subs[3] = Word(tuple(x for x in subs[3].letters))  # may be unreduced; fine
        out = rewrite_presentation(rel, {3: subs[3]})
        for w in out.relators:
            assert all(abs(x) <= 2 for x in w.letters)
            assert len(w) <= rel.maxlen * (rel.maxlen - 1)


def test_rewrite_presentation_errors():
    rel = make_relator_set(4, 3, [Word((1, 2))])
    with pytest.raises(DomainError):
        rewrite_presentation(rel, {3: Word((1,))})  # generator 4 uncovered
    with pytest.raises(DomainError):
        rewrite_presentation(rel, {3: Word((3,)), 4: Word((1,))})


def test_freeness_probe_planted_torsion():
    rel = make_relator_set(2, 4, [Word((1, 1, 1, 1))])
    loop = LabeledGraph(1, [(0, 0, 1)])
    report = freeness_probe(rel, loop, {"word_length": 4, "max_steps": 60})
    assert report.collapse_found
    assert report.verdict is not None and report.verdict.status == "trivial"
    from freiheit.diagrams import replay_witness
    from freiheit.words import cyclic_reduce
    assert replay_witness(rel, cyclic_reduce(report.collapse_word),
                          report.verdict.witness)


def test_freeness_probe_free_group():
    rel = make_relator_set(2, 4, [])
    loop = LabeledGraph(1, [(0, 0, 1)])
    report = freeness_probe(rel, loop, {"word_length": 5})
    # x1^k and x1^-k for k = 1..5 are distinct cyclic words
    assert not report.collapse_found and report.words_checked == 10


def test_freeness_probe_lists_loop_classes_once_per_graph_and_length(monkeypatch):
    listings = []
    real_listing = experiments.iter_reduced_loops

    def counted_listing(graph, max_length):
        listings.append(max_length)
        return real_listing(graph, max_length)

    monkeypatch.setattr(experiments, "iter_reduced_loops", counted_listing)
    relators = sample_relator_set(3, 8, DensityModel("bernoulli", 0.2, 0), random.Random(12))
    budget = {"word_length": 4, "max_steps": 30, "max_states": 400}
    graph = wedge_of_words([Word((1,)), Word((2,))])
    report = freeness_probe(relators, graph, budget)
    assert report.words_checked == 50
    assert freeness_probe(relators, graph, budget) == report
    assert listings == [4]
    # Each length is listed once on a graph, and reads as on a fresh graph.
    for length in (3, 5, 3):
        other = dict(budget, word_length=length)
        assert freeness_probe(relators, graph, other) == \
            freeness_probe(relators, wedge_of_words([Word((1,)), Word((2,))]), other)
    assert listings == [4, 3, 3, 5, 5, 3]


def test_fillability_bound_vacuous_then_crossover():
    assert fillability_bound(2, 10, 3, 2, 0.1) > 0  # vacuous regime, reported
    cx = fillability_crossover(2, 3, 2, 0.1)
    assert cx is not None
    assert fillability_bound(2, cx, 3, 2, 0.1) < 0
    assert fillability_bound(2, cx - 1, 3, 2, 0.1) >= 0
    with pytest.raises(DomainError):
        fillability_bound(2, 10, 3, 2, 0.4)
    for K in (0, -2):
        with pytest.raises(DomainError, match="K >= 1"):
            fillability_bound(K, 10, 3, 2, 0.1)
        with pytest.raises(DomainError, match="K >= 1"):
            fillability_crossover(K, 3, 2, 0.1)


def test_collapse_probability_oracle_matches_monte_carlo():
    # Moderate scale where materialized trials are cheap.
    m, r, maxlen, d = 3, 2, 10, 0.3
    probs = collapse_success_probability(m, r, maxlen, d)
    trials = 300
    hits = 0
    for t in range(trials):
        res = run_trial(m, r, maxlen, d, "bernoulli", random.Random(t))
        assert not res.fast_path
        hits += res.collapse
    p = probs[3]
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 4 * sigma + 0.02


DIFFERENTIAL_TRIALS = 150


@functools.lru_cache(maxsize=None)
def _path_trials(d: float, budgets: SweepBudgets) -> tuple:
    """The trials of run_trial at m=2, r=1, l=10 on one path."""
    trials = tuple(run_trial(2, 1, 10, d, "bernoulli", random.Random(t), budgets)
                   for t in range(DIFFERENTIAL_TRIALS))
    assert all(res.fast_path == (budgets.materialize_limit == 1) for res in trials)
    return trials


def _collapse_frequency(d: float, budgets: SweepBudgets) -> float:
    return sum(res.collapse for res in _path_trials(d, budgets)) / DIFFERENTIAL_TRIALS


MATERIALIZED, FAST = SweepBudgets(), SweepBudgets(materialize_limit=1)


@pytest.mark.parametrize("d", [0.45, 0.6])
def test_collapse_agrees_across_paths_and_with_oracle(d):
    p = collapse_success_probability(2, 1, 10, d)[2]
    sigma = math.sqrt(p * (1 - p) / DIFFERENTIAL_TRIALS)
    materialized = _collapse_frequency(d, MATERIALIZED)
    fast = _collapse_frequency(d, FAST)
    assert abs(materialized - p) <= 3 * sigma
    assert abs(fast - p) <= 3 * sigma
    assert abs(materialized - fast) <= 3 * math.sqrt(2) * sigma


@pytest.mark.parametrize("d", [0.45, 0.6])
def test_only_materialized_trials_report_triviality(d):
    # The fast path has no relator set for the triviality probe to read, so
    # it reports no triviality outcome rather than one of another event.
    assert all(res.trivial is None for res in _path_trials(d, FAST))
    assert all(isinstance(res.trivial, bool) for res in _path_trials(d, MATERIALIZED))


def test_sweep_reports_nan_triviality_on_fast_path_cells():
    cfg = TransitionConfig(2, 1, (8,), (0.3, 0.6), 6, seed=5,
                           budgets=SweepBudgets(materialize_limit=100))
    materialized, fast = transition_sweep(cfg)
    assert 0.0 <= materialized["trivial_freq"] <= 1.0
    assert math.isnan(fast["trivial_freq"])


def _class_probability_in_floats(class_size, universe_size, d):
    # The form the log-domain probability replaced. It converts the class
    # size to a float, so it overflows once that passes the float range, and
    # it loses its precision once p is subnormal.
    log_p = (d - 1.0) * math.log(universe_size)
    if log_p >= 0:
        return 1.0
    p = math.exp(log_p)
    if p < sys.float_info.min:
        raise OverflowError("p is subnormal")
    return -math.expm1(class_size * math.log1p(-p))


def test_class_probability_in_logs_matches_the_float_form():
    # Equal to 1e-12 relative wherever the float form is exact enough to
    # compare with, and a probability everywhere.
    compared = overflowed = 0
    for m, r in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 4)]:
        for maxlen in (1, 2, 5, 10, 20, 40, 100, 300, 640, 700):
            n = count_cyclically_reduced_upto(m, maxlen)
            size = count_collapse_class(m, r, m, maxlen)
            for d in (0.01, 0.05, 0.2, 0.3174, 0.45, 0.6, 0.9, 0.99, 1.0):
                logs = experiments._class_success_probability(size, n, d)
                assert 0.0 <= logs <= 1.0
                try:
                    floats = _class_probability_in_floats(size, n, d)
                except OverflowError:
                    overflowed += 1
                    continue
                compared += 1
                assert logs == pytest.approx(floats, rel=1e-12, abs=0.0)
    assert compared > 400 and overflowed > 0


def test_config_validation():
    with pytest.raises(DomainError):
        TransitionConfig(2, 2, (8,), (0.3,), 5)
    with pytest.raises(DomainError):
        TransitionConfig(2, 1, (8,), (1.3,), 5)
    with pytest.raises(DomainError):
        TransitionConfig(2, 1, (0,), (0.3,), 5)
    cfg = TransitionConfig(2, 1, (8,), (), 5)
    assert transition_sweep(cfg) == []


def test_sweep_deterministic_and_parallel_equal():
    cfg = TransitionConfig(2, 1, (6,), (0.25, 0.55), 8, seed=21)
    rows1 = transition_sweep(cfg)
    rows2 = transition_sweep(cfg)
    assert repr(rows1) == repr(rows2)
    rows_par = transition_sweep(cfg, jobs=2)
    assert repr(rows_par) == repr(rows1)
    assert [r["d"] for r in rows1] == [0.25, 0.55]


def test_fast_path_trial_shape():
    res = run_trial(3, 2, 20, 0.45, "bernoulli", random.Random(0))
    assert res.fast_path
    assert isinstance(res.collapse_result, CollapseResult)
    if res.collapse_result.substitutions:
        for gen, w in res.collapse_result.substitutions.items():
            assert all(abs(x) <= 2 for x in w.letters)
            assert res.collapse_result.sampled_witnesses


def test_count_model_trial_past_the_budget_is_refused():
    # |B_40|^0.5 ~ 4.3e9 relators at m = 2: past the budget, where only a
    # Bernoulli trial has a fast path.
    with pytest.raises(FeasibilityError, match="count-model trial"):
        run_trial(2, 1, 40, 0.5, "count", random.Random(1))
    assert run_trial(2, 1, 40, 0.5, "bernoulli", random.Random(1)).fast_path


@pytest.mark.parametrize("m, r, maxlen", [(2, 1, 4), (3, 2, 3)])
def test_fast_path_witness_is_uniform_over_its_class(m, r, maxlen):
    # Every member of x_m's collapse class (38 and 90 of them), drawn 60
    # times each on average; chi-squared at alpha = 0.001. Each witness is
    # what collapse_probe reports on the set of its one relator.
    members = [w.letters for w in enumerate_cyclically_reduced(m, maxlen)
               if [x for x in w if abs(x) > r] in ([m], [-m])]
    assert len(members) == count_collapse_class(m, r, m, maxlen)
    counts = dict.fromkeys(members, 0)
    rng = random.Random(3)
    trials = 60 * len(members)
    for _ in range(trials):
        wit = experiments._sample_collapse_witness(m, r, m, maxlen, rng)
        counts[wit.relator.letters] += 1
        probed = collapse_probe(make_relator_set(m, maxlen, [wit.relator]), r)
        assert probed.witnesses[m] == wit
    assert len(counts) == len(members)
    expect = trials / len(members)
    stat = sum((c - expect) ** 2 / expect for c in counts.values())
    assert stat < chi2_critical(len(members) - 1)


@pytest.mark.parametrize("maxlen, d", [(20, 0.9), (6, 0.3)], ids=["fast-path", "materialized"])
def test_run_trial_refuses_r_equal_to_m_before_any_draw(maxlen, d):
    # With r = m no generator is left to collapse. Both paths refuse before
    # they draw, and so does the exact probability the fast path reads.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DomainError):
        run_trial(2, 2, maxlen, d, "bernoulli", rng)
    assert rng.getstate() == state
    with pytest.raises(DomainError):
        collapse_success_probability(2, 2, maxlen, d)


def test_freeness_probe_sampled_low_density(sampled_freeness_probes):
    # Far below the critical density, bounded search finds no collapse.
    reports, _ = sampled_freeness_probes
    assert len(reports) == 40
    no_collapse = sum(not report.collapse_found for report in reports)
    assert no_collapse >= 0.95 * len(reports)


def test_fillability_bound_monte_carlo_past_crossover():
    # A one-face diagram of boundary length l with p the full boundary and
    # the loop graph: a presentation fills it iff it contains x1^l or
    # x1^-l.  Past the crossover the inclusion probability is so small the
    # empirical frequency sits at 0, below the (tiny) bound.
    m, r, d, K = 2, 1, 0.05, 1
    crossover = fillability_crossover(K, m, r, d)
    assert crossover is not None
    from freiheit.density import inclusion_probability
    from freiheit.words import count_cyclically_reduced_upto
    n = count_cyclically_reduced_upto(m, crossover)
    p = inclusion_probability(n, d)
    rng = random.Random(55)
    trials = 2000
    fillable = sum((rng.random() < p) or (rng.random() < p) for _ in range(trials))
    log_bound = fillability_bound(K, crossover, m, r, d)
    assert fillable / trials <= math.exp(log_bound)
