import random
from collections import Counter

import pytest

from freiheit.complexes import check_complex
from freiheit.density import DensityModel, make_relator_set, sample_relator_set
from freiheit.diagrams import (TrivialityVerdict, VanKampenDiagram, bounded_triviality,
                               boundary_word, certify_bilipschitz, diagram_canonical_key,
                               diagram_from_json, diagram_to_json,
                               enumerate_reduced_disk_diagrams, is_reduced,
                               isoperimetric_ratio, one_face_diagram,
                               replay_witness, validate)
from freiheit.errors import DomainError, FeasibilityError
from freiheit.experiments import freeness_probe
from freiheit.stallings import LabeledGraph, fold, wedge_of_words
from freiheit.words import Word, canonical_cyclic, sample_cyclically_reduced, word_from_text

from oracles import reducible_pair_oracle, scan_bounded_triviality

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
    rotated = type(c)(c.num_vertices, c.dart_vertex, c.faces,
                      c.outer[2:] + c.outer[:2])
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
    from freiheit.diagrams import _glue_candidates
    base = one_face_diagram(square, 1, 1)
    reducible = [cand for cand in _glue_candidates(base, square)
                 if not is_reduced(cand, square)]
    assert reducible
    for cand in reducible[:5]:
        assert reducible_pair_oracle(cand, square)
    irreducible = [cand for cand in _glue_candidates(base, square)
                   if is_reduced(cand, square)]
    for cand in irreducible[:5]:
        assert not reducible_pair_oracle(cand, square)


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


def test_bounded_triviality_requires_cyclically_reduced():
    with pytest.raises(DomainError):
        bounded_triviality(COMMUTATOR, Word((1, 2, -1)))


def test_certify_empty_presentation_vacuous():
    rel = make_relator_set(2, 4, [])
    loop = LabeledGraph(1, [(0, 0, 1)])
    report = certify_bilipschitz(rel, loop, 2, 3.0)
    assert report.holds and report.diagrams_checked == 0


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
    dart_vertex = [0] * (2 * n_edges)
    labels = [0] * (2 * n_edges)
    for old, new in mapping.items():
        dart_vertex[new] = c.dart_vertex[old]
        labels[new] = d.dart_labels[old]
    faces = tuple(tuple(mapping[x] for x in cycle) for cycle in c.faces)
    outer = tuple(mapping[x] for x in c.outer)
    c2 = type(c)(c.num_vertices, tuple(dart_vertex), faces, outer)
    return VanKampenDiagram(c2, tuple(labels), d.face_labels)


def test_canonical_key_invariant_under_storage_changes():
    import random as _random
    from freiheit.complexes import mirror_complex, mirror_cycle

    rng = _random.Random(314)
    diagrams = list(enumerate_reduced_disk_diagrams(SMALL, 2))
    for d in diagrams[:12]:
        key = diagram_canonical_key(d, SMALL)
        c = d.complex
        # outer re-rooting
        k = rng.randrange(len(c.outer))
        rerooted = VanKampenDiagram(
            type(c)(c.num_vertices, c.dart_vertex, c.faces,
                    c.outer[k:] + c.outer[:k]), d.dart_labels, d.face_labels)
        assert diagram_canonical_key(rerooted, SMALL) == key
        # dart renumbering
        perm = list(range(c.num_edges))
        rng.shuffle(perm)
        flips = [rng.random() < 0.5 for _ in range(c.num_edges)]
        permuted = _permute_darts(d, perm, flips)
        assert validate(permuted, SMALL).ok
        assert diagram_canonical_key(permuted, SMALL) == key
        # reflection with flipped face signs
        mirrored = VanKampenDiagram(
            mirror_complex(c), d.dart_labels,
            tuple((idx, -sign) for idx, sign in d.face_labels))
        assert validate(mirrored, SMALL).ok
        assert diagram_canonical_key(mirrored, SMALL) == key
