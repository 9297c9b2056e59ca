import pytest

from freiheit.complexes import check_complex
from freiheit.density import make_relator_set
from freiheit.diagrams import (VanKampenDiagram, bounded_triviality, boundary_word,
                               certify_bilipschitz, diagram_canonical_key,
                               diagram_from_json, diagram_to_json,
                               enumerate_reduced_disk_diagrams, is_reduced,
                               isoperimetric_ratio, one_face_diagram,
                               replay_witness, validate)
from freiheit.errors import DomainError, FeasibilityError
from freiheit.stallings import LabeledGraph, fold, wedge_of_words
from freiheit.words import Word, canonical_cyclic

from oracles import reducible_pair_oracle

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
    assert verdict.status == "unknown"
    assert verdict.budget_exhausted or verdict.steps_used <= 3


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
