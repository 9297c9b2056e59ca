import random
import tracemalloc
from collections import Counter

import pytest

from freiheit import diagrams
from freiheit.complexes import check_complex
from freiheit.density import DensityModel, RelatorSet, make_relator_set, sample_relator_set
from freiheit.diagrams import (TrivialityVerdict, VanKampenDiagram, bounded_triviality,
                               boundary_word, certify_bilipschitz, diagram_canonical_key,
                               diagram_from_json, diagram_to_json,
                               enumerate_reduced_disk_diagrams, is_reduced,
                               isoperimetric_ratio, one_face_diagram,
                               replay_witness, validate)
from freiheit.errors import DomainError, FeasibilityError
from freiheit.experiments import freeness_probe
from freiheit.stallings import LabeledGraph, fold, wedge_of_words
from freiheit.words import (Word, canonical_cyclic, cyclic_reduce_letters,
                            min_cyclic_rotation, sample_cyclically_reduced,
                            word_from_text)

from oracles import (brute_readable_subpaths, disk_glue_candidates, reducible_pair_oracle,
                     reference_disk_enumeration, scan_bounded_triviality, scan_matches)

COMMUTATOR = make_relator_set(2, 4, [Word((1, 2, -1, -2))])
SMALL = make_relator_set(2, 4, [Word((1, 2)), Word((1, 1, 2)), Word((2, 2, -1))])


def test_one_face_diagram_validates():
    d = one_face_diagram(COMMUTATOR, 1, 1)
    assert validate(d, COMMUTATOR).ok
    assert check_complex(d.complex).ok
    assert d.boundary_length() == 4
    assert isoperimetric_ratio(d, 4) == 1.0


def test_validate_flags_label_flip():
    d = one_face_diagram(COMMUTATOR, 1, 1)
    labels = list(d.dart_labels)
    labels[0], labels[1] = -labels[0], -labels[1]
    bad = VanKampenDiagram(d.complex, tuple(labels), d.face_labels)
    report = validate(bad, COMMUTATOR)
    assert not report.ok and report.violation == "face-label"


def test_validate_flags_broken_involution():
    d = one_face_diagram(COMMUTATOR, 1, 1)
    labels = list(d.dart_labels)
    labels[0] = -labels[0]
    bad = VanKampenDiagram(d.complex, tuple(labels), d.face_labels)
    assert validate(bad, COMMUTATOR).violation == "involution"


def test_boundary_word_canonical():
    d = one_face_diagram(COMMUTATOR, 1, 1)
    assert boundary_word(d) == canonical_cyclic(Word((1, 2, -1, -2)))
    # Canonicalization is invariant under re-rooting the outer walk.
    c = d.complex
    rotated = type(c)(c.faces, c.outer[2:] + c.outer[:2])
    d2 = VanKampenDiagram(rotated, d.dart_labels, d.face_labels)
    assert boundary_word(d2) == boundary_word(d)


def test_enumerate_one_face_commutator_single_class():
    assert len(list(enumerate_reduced_disk_diagrams(COMMUTATOR, 1))) == 1


def test_enumerate_zero_faces_empty():
    assert list(enumerate_reduced_disk_diagrams(COMMUTATOR, 0)) == []


def test_enumerate_guard():
    with pytest.raises(FeasibilityError):
        list(enumerate_reduced_disk_diagrams(COMMUTATOR, 4))


def test_enumerated_diagrams_validate_and_are_reduced():
    count = 0
    for d in enumerate_reduced_disk_diagrams(SMALL, 3):
        assert validate(d, SMALL).ok
        assert is_reduced(d, SMALL)
        count += 1
    assert count > 10


def test_is_reduced_matches_pair_oracle():
    for d in enumerate_reduced_disk_diagrams(SMALL, 3):
        assert not reducible_pair_oracle(d, SMALL)
    # Forced failure: glue a relator onto itself mirror-wise.
    square = make_relator_set(2, 4, [Word((1, 2, 1, 2))])
    base = one_face_diagram(square, 1, 1)
    reducible = [cand for cand in disk_glue_candidates(base, square)
                 if not is_reduced(cand, square)]
    assert reducible
    for cand in reducible[:5]:
        assert reducible_pair_oracle(cand, square)
    irreducible = [cand for cand in disk_glue_candidates(base, square)
                   if is_reduced(cand, square)]
    for cand in irreducible[:5]:
        assert not reducible_pair_oracle(cand, square)


@pytest.mark.parametrize("words", [("aab", "bba", "abAB", "aaBB"), ("abAB",),
                                   ("aab", "abb", "aaab"), ("abab", "aa", "bbb"),
                                   ("aaa", "bbb", "abab", "aBaB"), ("abaBa", "ab")])
def test_screened_enumeration_matches_building_every_gluing(words):
    # The enumeration builds only the children its mirror screen passes; the
    # reference builds every gluing and tests the whole child. Periodic
    # relators (abab, aa, aBaB) compare positions modulo a period shorter
    # than the relator. In abaBa the letters b and B sit where two faces of
    # one sign meet at clashing positions, which is no mirror pair, since
    # their positive boundaries hold opposite darts. Representatives are
    # the first of their class, so the order must agree too.
    relators = make_relator_set(2, 5, [word_from_text(w) for w in words])
    for max_faces in (1, 2, 3):
        assert list(enumerate_reduced_disk_diagrams(relators, max_faces)) == \
            reference_disk_enumeration(relators, max_faces)


def test_candidate_limit_counts_every_arc_match(monkeypatch):
    # The limit counts the arc matches, screened or not, so it trips where
    # it tripped when every match was built: after the same diagrams, with
    # the same message. 2,478 matches reach the 983 diagrams at K = 3.
    relators = make_relator_set(2, 4, [word_from_text(w)
                                       for w in ("aab", "bba", "abAB", "aaBB")])
    for limit, reached in ((100, 54), (1000, 552), (2477, 983)):
        monkeypatch.setattr(diagrams, "DEFAULT_CANDIDATE_LIMIT", limit)
        yielded = []
        with pytest.raises(FeasibilityError) as refusal:
            yielded.extend(enumerate_reduced_disk_diagrams(relators, 3))
        assert len(yielded) == reached
        assert str(refusal.value) == (f"disk diagram enumeration exceeded {limit} "
                                      "candidates (upfront estimate 4.55e+08)")
        assert refusal.value.estimate == 455196672
    monkeypatch.setattr(diagrams, "DEFAULT_CANDIDATE_LIMIT", 2478)
    assert sum(1 for _ in enumerate_reduced_disk_diagrams(relators, 3)) == 983


def test_two_face_boundary_lengths():
    pair = make_relator_set(2, 4, [Word((1, 2, 1, 2)), Word((1, 2, 1, -2))])
    seen_shared = set()
    for d in enumerate_reduced_disk_diagrams(pair, 2):
        if d.num_faces != 2:
            continue
        shared = (8 - d.boundary_length()) // 2
        assert d.boundary_length() == 8 - 2 * shared
        assert isoperimetric_ratio(d, 4) == d.boundary_length() / 8
        seen_shared.add(shared)
    assert 1 in seen_shared


def test_bounded_triviality_relator_itself():
    verdict = bounded_triviality(COMMUTATOR, Word((1, 2, -1, -2)))
    assert verdict.status == "trivial"
    assert replay_witness(COMMUTATOR, Word((1, 2, -1, -2)), verdict.witness)


def test_bounded_triviality_shared_suffix_cancellation():
    rel = make_relator_set(2, 4, [Word((1, 2, 1, 2)), Word((2, 1, 2))])
    verdict = bounded_triviality(rel, Word((1,)), {"max_length": 12, "max_steps": 4000})
    assert verdict.status == "trivial"
    assert replay_witness(rel, Word((1,)), verdict.witness)


def test_bounded_triviality_free_group_unknown():
    rel = make_relator_set(2, 4, [])
    verdict = bounded_triviality(rel, Word((1, 2)))
    assert verdict.status == "unknown" and not verdict.budget_exhausted


def test_bounded_triviality_budget_exhaustion_flagged():
    rel = make_relator_set(2, 4, [Word((1, 2, 1, 2)), Word((2, 1, 2))])
    verdict = bounded_triviality(rel, Word((1, 2)), {"max_length": 6, "max_steps": 3})
    assert verdict == TrivialityVerdict("unknown", None, 3, True)


def test_bounded_triviality_cut_search_is_exhausted():
    # The whole search expands four states. A cap of 4 or 5 successors stops
    # it in its third state, before the fourth is built, so the queue runs
    # out: that search was cut, not completed.
    rel = make_relator_set(2, 2, [word_from_text("BB"), word_from_text("BA")])
    a = word_from_text("A")
    budget = {"max_steps": 50, "max_length": 6}
    assert bounded_triviality(rel, a, dict(budget, max_states=5000)) == \
        TrivialityVerdict("unknown", None, 4, False)
    for cap in (4, 5):
        assert bounded_triviality(rel, a, dict(budget, max_states=cap)) == \
            TrivialityVerdict("unknown", None, 3, True)


def test_bounded_triviality_builds_only_dequeued_successors(monkeypatch):
    # The matches in aabab count more than five successors, so a cap of 5
    # cuts the search while it expands its start state. Those matches were
    # counted but never dequeued, so none was enumerated, and none was
    # reduced or canonicalized: the one canonical rotation computed is the
    # start's.
    w = word_from_text("aabab")
    budget = {"max_steps": 50, "max_states": 5, "max_length": 12}
    expected = scan_bounded_triviality(SMALL, w, budget)
    assert expected == TrivialityVerdict("unknown", None, 1, True)
    # Building the rules canonicalizes each oriented relator; build them
    # first, so that only the search's own rotations are counted.
    diagrams._rewrite_rules(SMALL)
    rotations = []
    enumerated = []
    real_rotation = diagrams.min_cyclic_rotation
    real_matches = diagrams._matches

    def counted_rotation(letters):
        rotations.append(letters)
        return real_rotation(letters)

    def counted_matches(rules, state):
        for match in real_matches(rules, state):
            enumerated.append(match)
            yield match

    monkeypatch.setattr(diagrams, "min_cyclic_rotation", counted_rotation)
    monkeypatch.setattr(diagrams, "_matches", counted_matches)
    assert bounded_triviality(SMALL, w, budget) == expected
    assert rotations == [w.letters]
    assert enumerated == []
    # With room for the start's matches, the search enumerates them as it
    # dequeues them.
    roomy = dict(budget, max_states=50)
    assert bounded_triviality(SMALL, w, roomy) == scan_bounded_triviality(SMALL, w, roomy)
    assert enumerated


def test_bounded_triviality_empty_successor_of_an_inverted_relator():
    # aBAb is a nonzero rotation of baBA, the inverse of the commutator abAB,
    # and of no rotation of abAB itself. The rules of aab come first and
    # queue their successors; the whole state then matches the inverted
    # commutator, whose successor is the empty word, found without being
    # built.
    rel = make_relator_set(2, 4, [word_from_text("aab"), word_from_text("abAB")])
    w = word_from_text("aBAb")
    verdict = bounded_triviality(rel, w, {"max_steps": 10})
    assert verdict.status == "trivial" and verdict.steps_used == 1
    (step,) = verdict.witness
    assert (step.relator_index, step.inverted, step.after) == (2, True, ())
    # Every one-step witness is at rotation 0: that rotation of each
    # oriented relator is tried first, and it matches wherever another does.
    # The nonzero rotation of the word shows in the position.
    assert step.rotation == 0 and step.position == 2
    assert replay_witness(rel, w, verdict.witness)
    assert verdict == scan_bounded_triviality(rel, w, {"max_steps": 10})
    # Only a negative length bound clips the empty word.
    clip = {"max_steps": 10, "max_length": -1}
    assert bounded_triviality(rel, w, clip) == scan_bounded_triviality(rel, w, clip) == \
        TrivialityVerdict("unknown", None, 1, True)


def test_bounded_triviality_default_budget_is_bounded():
    # With no budget the search stops at its default caps (10,000 states
    # expanded, 100,000 successors built) and says so.
    rng = random.Random(0)
    relators = sample_relator_set(3, 8, DensityModel("bernoulli", 0.2, 0), rng)
    w = sample_cyclically_reduced(3, 6, rng)
    verdict = bounded_triviality(relators, w)
    assert verdict.status == "unknown" and verdict.budget_exhausted
    assert verdict.steps_used <= 10_000


def _differential_budget(rng: random.Random) -> tuple[str, dict]:
    """A budget and its family. Under ``caps`` no state is long enough to be
    clipped, so an exhausted budget means a cap was hit; under ``clip`` the
    caps cannot bind (at most a few dozen cyclic words are that short), so
    it means a successor was clipped; ``mixed`` combines tiny caps with a
    small length bound."""
    tiny = (0, 1, 2, 3, 5, 8)
    family = rng.choice(("caps", "clip", "mixed"))
    if family == "caps":
        return family, {"max_steps": rng.choice(tiny + (rng.randint(0, 20),)),
                        "max_states": rng.choice(tiny + (rng.randint(0, 300),)),
                        "max_length": 10 ** 6}
    if family == "clip":
        return family, {"max_steps": 10 ** 4, "max_states": 10 ** 8,
                        "max_length": rng.randint(1, 3)}
    return family, {"max_steps": rng.choice(tiny + (rng.randint(0, 20),)),
                    "max_states": rng.choice(tiny + (rng.randint(0, 300),)),
                    "max_length": rng.randint(1, 6)}


def test_bounded_triviality_matches_the_full_scan():
    # Every (m, maxlen, d) cell of the grid, one sampled set each, five
    # random words each: the letter-indexed search must return the verdict
    # of the full scan, field for field.
    rng = random.Random(9090)
    outcomes = Counter()
    for m in (2, 3):
        for maxlen in range(4, 9):
            for d in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45):
                relators = sample_relator_set(m, maxlen, DensityModel("bernoulli", d, 0), rng)
                for _ in range(5):
                    w = sample_cyclically_reduced(m, rng.randint(1, 8), rng)
                    family, budget = _differential_budget(rng)
                    if len(relators) > 100:
                        # Keeps the full scan affordable on the largest sets;
                        # a step cap this low may bind, so no family holds.
                        family = "mixed"
                        budget["max_steps"] = min(budget["max_steps"], 3)
                    verdict = bounded_triviality(relators, w, budget)
                    assert verdict == scan_bounded_triviality(relators, w, budget), \
                        (relators.relators, w, budget)
                    if verdict.status == "trivial":
                        assert replay_witness(relators, w, verdict.witness)
                        outcomes["trivial"] += 1
                        # Around the cap: every successor built counts once.
                        for cap in range(40):
                            capped = dict(budget, max_states=cap)
                            assert bounded_triviality(relators, w, capped) == \
                                scan_bounded_triviality(relators, w, capped), \
                                (relators.relators, w, capped)
                    elif not verdict.budget_exhausted:
                        outcomes["complete"] += 1
                    elif family != "mixed":
                        outcomes["exhausted" if family == "caps" else "clipped"] += 1
    assert set(outcomes) == {"trivial", "complete", "exhausted", "clipped"}, outcomes


def test_rewrite_rules_are_built_once_per_relator_set(monkeypatch):
    # Building the rules inverts each relator once, and nothing else on the
    # freeness probe's path inverts a word: inversions count the builds.
    inversions = Counter()
    real_inverse = Word.inverse

    def counted_inverse(self):
        inversions[self] += 1
        return real_inverse(self)

    monkeypatch.setattr(Word, "inverse", counted_inverse)
    graph = fold(wedge_of_words([Word((1,)), Word((2,))]))
    budget = {"word_length": 4, "max_steps": 30, "max_states": 400}
    sampled = sample_relator_set(3, 8, DensityModel("bernoulli", 0.2, 0), random.Random(12))
    before = (hash(sampled), repr(sampled))
    report = freeness_probe(sampled, graph, budget)
    assert report.words_checked == 50 and len(sampled) == 17
    assert inversions == Counter(sampled.relators)
    assert freeness_probe(sampled, graph, budget) == report
    assert inversions == Counter(sampled.relators)
    # The rules sit outside the fields: equality, hash and repr ignore them,
    # and an equal set built by hand builds its own and agrees.
    assert (hash(sampled), repr(sampled)) == before
    by_hand = make_relator_set(3, 8, [w.letters for w in sampled.relators],
                               sampled.provenance)
    assert by_hand == sampled and hash(by_hand) == hash(sampled)
    assert repr(by_hand) == repr(sampled)
    assert freeness_probe(by_hand, graph, budget) == report
    assert inversions == Counter({w: 2 for w in sampled.relators})


def test_rewrite_rules_share_the_doubled_words_of_each_relator():
    # A rule holds its oriented relator and that relator's inverse, each
    # written twice; every rule of one relator holds the same two objects,
    # in swapped roles for the two orientations.
    relators = sample_relator_set(3, 8, DensityModel("bernoulli", 0.2, 0), random.Random(12))
    rules = diagrams._rewrite_rules(relators)[0]
    assert len(rules) == 2 * sum(len(rel) for rel in relators.relators)
    for ridx, rel in enumerate(relators.relators, start=1):
        own = [rule for rule in rules if rule[0] == ridx]
        word, inverse = own[0][4], own[0][5]
        assert (word, inverse) == (rel.letters * 2, rel.inverse().letters * 2)
        assert [rule[1:4] for rule in own] == \
            [(inverted, rot, (inverse if inverted else word)[rot])
             for inverted in (False, True) for rot in range(len(rel))]
        for rule in own:
            assert rule[4] is (inverse if rule[1] else word)
            assert rule[5] is (word if rule[1] else inverse)


def test_rewrite_rules_take_space_linear_in_the_letters():
    # Fifty relators of up to 40 letters. Shared doubled words keep the
    # rules near 160 bytes per relator letter; a tuple per rotated word
    # costs over 900.
    rng = random.Random(3)
    relators = make_relator_set(2, 40, [sample_cyclically_reduced(2, 40, rng)
                                        for _ in range(50)])
    letters = sum(len(rel) for rel in relators.relators)
    tracemalloc.start()
    try:
        diagrams._rewrite_rules(relators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * letters, (peak, letters)


def test_bounded_triviality_counts_each_match_once():
    # Expanding the start counts one successor per match, so a cap equal to
    # the start's matches lets the search go on to a second state, and one
    # less cuts it in the start.
    w = word_from_text("aabab")
    matches = len(scan_matches(SMALL, min_cyclic_rotation(w.letters)))
    budget = {"max_steps": 50, "max_length": 12}
    cut = dict(budget, max_states=matches - 1)
    assert bounded_triviality(SMALL, w, cut) == scan_bounded_triviality(SMALL, w, cut) == \
        TrivialityVerdict("unknown", None, 1, True)
    room = dict(budget, max_states=matches)
    verdict = bounded_triviality(SMALL, w, room)
    assert verdict == scan_bounded_triviality(SMALL, w, room)
    assert verdict.steps_used > 1


def _states_around(relators: RelatorSet, rng: random.Random) -> list[tuple[int, ...]]:
    """Cyclically reduced states that share long stretches with the rotated
    relators: some rotated words, shorter and longer pieces of them, and
    random words."""
    rules = diagrams._rewrite_rules(relators)[0]
    states = []
    for _, _, rot, _, word, _ in rng.sample(rules, min(len(rules), 15)):
        rotated = word[rot:rot + len(word) // 2]
        tail = sample_cyclically_reduced(relators.m, 4, rng).letters
        states += [rotated, rotated[:rng.randint(1, len(rotated))],
                   rotated + tail, rotated + rotated[:rng.randint(1, len(rotated))]]
    states += [sample_cyclically_reduced(relators.m, 12, rng).letters for _ in range(20)]
    return [cyclic_reduce_letters(s) for s in states if cyclic_reduce_letters(s)]


def test_match_count_is_the_sum_over_the_enumerated_matches():
    # Expanding a state counts its matches from the number of rules per
    # first letter, without enumerating them. That count, and the matches
    # enumerated at dequeue time, must be the full scan's. The hand-built
    # sets repeat rotated words: abab is periodic, and ABA is a rotation of
    # BAA, the inverse of aab, so every rotated word of those two occurs
    # twice. States run shorter and longer than the relators.
    hand = [make_relator_set(2, 6, [word_from_text(w) for w in words])
            for words in (("abab",), ("aab", "ABA"),
                          ("ab", "aab", "ABA", "abab", "aabAbb"))]
    rng = random.Random(1313)
    sampled = [sample_relator_set(m, maxlen, DensityModel("bernoulli", d, 0), rng)
               for m, maxlen, d in ((2, 6, 0.35), (3, 8, 0.2), (2, 10, 0.25),
                                    (3, 12, 0.1), (3, 20, 0.1))]
    shapes = Counter()
    for relators in hand + sampled:
        rules, firsts, whole_relators = diagrams._rewrite_rules(relators)
        for state in _states_around(relators, rng):
            matches = scan_matches(relators, state)
            enumerated = [(*rule[:3], pos)
                          for _, rule, pos in diagrams._matches(rules, state)]
            assert enumerated == [match[:4] for match in matches], state
            assert sum(firsts.get(x, 0) for x in state) == len(matches), \
                (relators.relators, state)
            # A canonical state is in the set exactly when it matches a
            # whole relator of its own length.
            canonical = min_cyclic_rotation(state)
            whole = any(q == len(canonical) == len(relators.relators[ridx - 1])
                        for ridx, _, _, _, q in scan_matches(relators, canonical))
            assert (canonical in whole_relators) == whole, (relators.relators, state)
            for rel in relators.relators:
                shapes[(len(state) > len(rel)) - (len(state) < len(rel))] += 1
    assert set(shapes) == {-1, 0, 1}, shapes


def test_bounded_triviality_counts_in_order_at_a_rotated_relator():
    # The state is a rotation of aabAbb, the last relator in rule order, so
    # the empty word is among its successors. Whether the search reaches
    # that match before the cap depends on the matches that come before it,
    # which the search then counts one by one: it finds the empty word
    # exactly when the cap leaves room for every earlier match.
    rel = make_relator_set(2, 6, [word_from_text(w) for w in ("ab", "aab", "bba", "aabAbb")])
    w = word_from_text("bAbbaa")
    state = min_cyclic_rotation(w.letters)
    matches = scan_matches(rel, state)
    room = next(i for i, match in enumerate(matches)
                if match[0] == 4 and match[4] == len(state))
    assert room == 24
    statuses = []
    for cap in range(room + 10):
        budget = {"max_steps": 20, "max_states": cap}
        verdict = bounded_triviality(rel, w, budget)
        assert verdict == scan_bounded_triviality(rel, w, budget), cap
        statuses.append(verdict.status)
    assert statuses == ["unknown"] * room + ["trivial"] * 10


@pytest.mark.parametrize("budget", [{"max_step": 30}, {"word_length": 4},
                                    {"max_steps": 30, 7: 1}])
def test_bounded_triviality_refuses_unknown_budget_keys(budget):
    with pytest.raises(DomainError, match="unknown budget keys"):
        bounded_triviality(COMMUTATOR, Word((1, 2, -1, -2)), budget)


def test_freeness_probe_refuses_unknown_budget_keys():
    graph = wedge_of_words([Word((1,)), Word((2,))])
    with pytest.raises(DomainError, match="max_state"):
        freeness_probe(COMMUTATOR, graph, {"word_length": 4, "max_state": 400})
    # Checked at entry: a graph with no loop words runs no search.
    with pytest.raises(DomainError, match="max_step"):
        freeness_probe(COMMUTATOR, LabeledGraph(1, []), {"max_step": 30})


def test_bounded_triviality_requires_cyclically_reduced():
    with pytest.raises(DomainError):
        bounded_triviality(COMMUTATOR, Word((1, 2, -1)))


def test_certify_empty_presentation_vacuous():
    rel = make_relator_set(2, 4, [])
    loop = LabeledGraph(1, [(0, 0, 1)])
    report = certify_bilipschitz(rel, loop, 2, 3.0)
    assert report.holds and report.diagrams_checked == 0


def test_certify_refuses_a_face_bound_below_one():
    # The bound K = 0 checked no diagram and reported that the bound holds.
    loop = LabeledGraph(1, [(0, 0, 1)])
    for max_faces in (0, -1):
        with pytest.raises(DomainError, match="need K >= 1"):
            certify_bilipschitz(COMMUTATOR, loop, max_faces, 3.0)


def test_certify_torsion_fails_every_lambda():
    rel = make_relator_set(2, 4, [Word((1, 1, 1, 1))])
    loop = LabeledGraph(1, [(0, 0, 1)])
    for lam in (1.0, 10.0, 1000.0):
        report = certify_bilipschitz(rel, loop, 1, lam)
        assert not report.holds and report.max_ratio == 1.0


def test_certify_sampled_reports_ratio():
    from freiheit.density import DensityModel, sample_relator_set
    rel = sample_relator_set(3, 8, DensityModel("bernoulli", 0.2, 0), 7)
    graph = fold(wedge_of_words([Word((1,)), Word((2,))]))
    report = certify_bilipschitz(rel, graph, 2, 5.0)
    assert 0.0 <= report.max_ratio <= 1.0
    assert report.diagrams_checked >= len(rel.relators)


def _certifier_graphs():
    """Graphs with several vertices, whose reads depend on the start vertex."""
    rng = random.Random(3)
    wedges = [fold(wedge_of_words([[rng.choice([-2, -1, 1, 2])
                                    for _ in range(rng.randrange(2, 6))]
                                   for _ in range(rng.randrange(2, 4))]))
              for _ in range(12)]
    theta = LabeledGraph(2, [(0, 1, 1), (0, 1, 2), (1, 0, 1)])
    cycle = LabeledGraph(5, [(i, (i + 1) % 5, x) for i, x in enumerate((1, 2, -1, 2, 2))])
    return [theta, cycle] + [g for g in wedges if g.num_vertices > 1]


@pytest.mark.parametrize("rel", [COMMUTATOR, SMALL], ids=["commutator", "small"])
def test_certifier_matches_brute_force_on_graphs_with_several_vertices(rel):
    diags = list(enumerate_reduced_disk_diagrams(rel, 3))
    graphs = _certifier_graphs()
    assert len(graphs) >= 8
    for graph in graphs:
        worst = 0.0
        for d in diags:
            longest = brute_readable_subpaths(d, graph)
            assert diagrams.longest_readable_subpaths(d, graph) == longest
            worst = max(worst, max(longest) / d.boundary_length())
        for lam in (1.0, 3.0):
            report = certify_bilipschitz(rel, graph, 3, lam)
            assert report.diagrams_checked == len(diags)
            assert report.max_ratio == worst
            assert report.holds == (worst <= lam / (1.0 + lam))
            assert report.worst.p_length / report.worst.base.boundary_length() == worst


def test_certify_refuses_a_graph_that_is_not_label_deterministic():
    # Two darts labeled a leave vertex 0.
    graph = LabeledGraph(2, [(0, 1, 1), (0, 0, 1)])
    with pytest.raises(DomainError):
        certify_bilipschitz(COMMUTATOR, graph, 1, 3.0)


def test_certify_refuses_a_graph_that_is_not_label_deterministic_with_no_diagrams():
    # No relators, so no diagram is read: the graph is refused at entry.
    graph = LabeledGraph(2, [(0, 1, 1), (0, 0, 1)])
    with pytest.raises(DomainError,
                       match="reading words requires a label-deterministic graph"):
        certify_bilipschitz(make_relator_set(2, 4, []), graph, 2, 3.0)


def test_json_roundtrip():
    for d in enumerate_reduced_disk_diagrams(SMALL, 2):
        d2 = diagram_from_json(diagram_to_json(d))
        assert validate(d2, SMALL).ok
        assert diagram_canonical_key(d2, SMALL) == diagram_canonical_key(d, SMALL)


def test_json_decoder_rejects_malformed_maps():
    import json

    data = json.loads(diagram_to_json(one_face_diagram(COMMUTATOR, 1, 1)))
    edits = [lambda d: d["darts"][0].pop("label"),            # missing key
             lambda d: d["darts"][0].update(vertex="0"),       # wrong type
             lambda d: d["faces"][0].update(darts=[2, 4, 6]),  # not a complex
             lambda d: d["faces"][0].update(sign=0),           # bad face label
             lambda d: d["darts"][0].update(next_at_vertex=0)]  # wrong rotation
    for edit in edits:
        broken = json.loads(json.dumps(data))
        edit(broken)
        with pytest.raises(DomainError):
            diagram_from_json(json.dumps(broken))
    with pytest.raises(DomainError):
        diagram_from_json("{")


def test_enumeration_deterministic():
    keys1 = [diagram_canonical_key(d, SMALL)
             for d in enumerate_reduced_disk_diagrams(SMALL, 2)]
    keys2 = [diagram_canonical_key(d, SMALL)
             for d in enumerate_reduced_disk_diagrams(SMALL, 2)]
    assert keys1 == keys2


def test_two_face_inverse_pair_boundary_collapses():
    # A face reading r glued to a face reading r^-1 along all but one edge:
    # the raw boundary has length 2 and freely reduces to the empty word.
    from freiheit.diagrams import _glue_word

    base = one_face_diagram(COMMUTATOR, 1, 1)
    rel = COMMUTATOR.relators[0]
    inverse_word = rel.inverse().letters
    outer = base.complex.outer
    collapsing = []
    for a in range(4):
        arc = tuple(outer[(a + i) % 4] for i in range(3))
        arc_word = tuple(base.dart_labels[x] for x in arc)
        doubled = inverse_word + inverse_word
        for omega in range(4):
            if doubled[omega:omega + 3] == arc_word:
                collapsing.append(_glue_word(base, 1, -1, inverse_word,
                                             a, 3, omega))
    assert collapsing
    for d in collapsing:
        assert validate(d, COMMUTATOR).ok
        assert d.boundary_length() == 2
        raw = d.dart_word(d.complex.outer)
        from freiheit.words import free_reduce
        assert free_reduce(raw).letters == ()


def _permute_darts(d, edge_perm, flips):
    # Renumber undirected edges by edge_perm and flip orientation pairs where
    # flips[e] is set; the result stores the same diagram differently.
    c = d.complex
    n_edges = c.num_edges
    mapping = {}
    for e in range(n_edges):
        ne = edge_perm[e]
        a, b = 2 * e, 2 * e + 1
        if flips[e]:
            mapping[a], mapping[b] = 2 * ne + 1, 2 * ne
        else:
            mapping[a], mapping[b] = 2 * ne, 2 * ne + 1
    labels = [0] * (2 * n_edges)
    for old, new in mapping.items():
        labels[new] = d.dart_labels[old]
    faces = tuple(tuple(mapping[x] for x in cycle) for cycle in c.faces)
    outer = tuple(mapping[x] for x in c.outer)
    c2 = type(c)(faces, outer)
    return VanKampenDiagram(c2, tuple(labels), d.face_labels)


def test_canonical_key_invariant_under_storage_changes():
    import random as _random
    from freiheit.complexes import mirror_complex, mirror_cycle

    rng = _random.Random(314)
    # The periodic set's boundary readings tie several roots: aaa's three
    # over the map and its mirror, abab's two.
    periodic = make_relator_set(2, 4, [word_from_text(w) for w in ("abab", "aaa")])
    for relators in (SMALL, periodic):
        diagrams = list(enumerate_reduced_disk_diagrams(relators, 2))
        for d in diagrams[:12]:
            key = diagram_canonical_key(d, relators)
            c = d.complex
            # outer re-rooting
            k = rng.randrange(len(c.outer))
            rerooted = VanKampenDiagram(
                type(c)(c.faces, c.outer[k:] + c.outer[:k]), d.dart_labels, d.face_labels)
            assert diagram_canonical_key(rerooted, relators) == key
            # dart renumbering
            perm = list(range(c.num_edges))
            rng.shuffle(perm)
            flips = [rng.random() < 0.5 for _ in range(c.num_edges)]
            permuted = _permute_darts(d, perm, flips)
            assert validate(permuted, relators).ok
            assert diagram_canonical_key(permuted, relators) == key
            # reflection with flipped face signs
            mirrored = VanKampenDiagram(
                mirror_complex(c), d.dart_labels,
                tuple((idx, -sign) for idx, sign in d.face_labels))
            assert validate(mirrored, relators).ok
            assert diagram_canonical_key(mirrored, relators) == key
