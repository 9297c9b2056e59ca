from collections import Counter

import pytest

from freiheit import abstract_diagrams, complexes, diagrams
from freiheit.abstract_diagrams import enumerate_abstract_diagrams
from freiheit.complexes import PlanarComplex, canonical_map_code
from freiheit.density import make_relator_set
from freiheit.diagrams import enumerate_reduced_disk_diagrams
from freiheit.errors import DomainError
from freiheit.words import word_from_text

from oracles import full_canonical_map_code


@pytest.fixture
def checked_codes(monkeypatch):
    """Route both diagram layers' canonical codes through a check against
    the full minimum over every root; count the checked calls by kind."""
    real = complexes.canonical_map_code
    kinds = Counter()

    def checked(c, face_infos, dart_labels=None, relabel_first_use=False,
                use_mirror=True):
        args = (c, face_infos, dart_labels, relabel_first_use, use_mirror)
        code = real(*args)
        assert code == full_canonical_map_code(*args), args
        kinds["labels" if dart_labels is not None else
              "iso" if relabel_first_use else
              "mirror" if use_mirror else "no mirror"] += 1
        return code

    monkeypatch.setattr(diagrams, "canonical_map_code", checked)
    monkeypatch.setattr(abstract_diagrams, "canonical_map_code", checked)
    return kinds


def _disk_diagrams(words, max_faces):
    relators = make_relator_set(2, 4, [word_from_text(w) for w in words])
    return sum(1 for _ in enumerate_reduced_disk_diagrams(relators, max_faces))


def test_canonical_codes_match_the_full_minimum_on_abstract_diagrams(checked_codes):
    # The labelled key keeps the mirror out, the isomorphism key takes it in
    # and renames the indices.
    enumeration = enumerate_abstract_diagrams(2, 4)
    assert len(enumeration.representatives) > 0
    assert checked_codes["no mirror"] > 500 and checked_codes["iso"] > 500, checked_codes


def test_canonical_codes_match_the_full_minimum_on_disk_diagrams(checked_codes):
    # The benchmark's disk set, and a set whose relators are periodic, so
    # that faces may be re-rooted by a step shorter than their length and
    # more roots tie.
    assert _disk_diagrams(("aab", "bba", "abAB", "aaBB"), 3) > 0
    assert _disk_diagrams(("abab", "aaa"), 2) > 0
    assert checked_codes["labels"] > 1000, checked_codes


def test_canonical_code_rejects_a_map_it_cannot_encode():
    overlapping = PlanarComplex(1, (0, 0), ((0,),), (0,))
    with pytest.raises(DomainError, match="partitioned"):
        canonical_map_code(overlapping, [((1, 1), 1)])
    # Two one-edge loops with no dart in common: the outer walk sees one.
    disconnected = PlanarComplex(2, (0, 0, 1, 1), ((0,), (2,), (3,)), (1,))
    for mirror in (True, False):
        with pytest.raises(DomainError, match="disconnected"):
            canonical_map_code(disconnected, [((1, 1), 1)] * 3, use_mirror=mirror)
