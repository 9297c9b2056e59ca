import json
from collections import Counter

import pytest

from freiheit import abstract_diagrams, complexes, diagrams
from freiheit.abstract_diagrams import (AbstractDistortionDiagram, _one_face_abstract,
                                        abstract_from_json, abstract_to_json, classify,
                                        enumerate_abstract_diagrams)
from freiheit.complexes import PlanarComplex, canonical_map_code, check_complex
from freiheit.density import make_relator_set
from freiheit.diagrams import (diagram_from_json, diagram_to_json,
                               enumerate_reduced_disk_diagrams, one_face_diagram)
from freiheit.errors import DomainError
from freiheit.words import word_from_text

from oracles import abstract_iso_key, full_canonical_map_code


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


def _sigma_orbits(c):
    """The darts' partition into the orbits of sigma = phi o alpha, phi read
    off the stored cycles."""
    phi = {d: cycle[(i + 1) % len(cycle)]
           for cycle in c.all_cycles() for i, d in enumerate(cycle)}
    seen = set()
    orbits = set()
    for d in range(c.num_darts):
        orbit = set()
        while d not in seen:
            seen.add(d)
            orbit.add(d)
            d = phi[d ^ 1]
        if orbit:
            orbits.add(frozenset(orbit))
    return orbits


def test_vertices_are_the_orbits_of_phi_after_alpha():
    # A map stores no vertex: each one is a single orbit of sigma, and the
    # orbits are numbered in order of their least dart.
    relators = make_relator_set(2, 4, [word_from_text(w)
                                       for w in ("aab", "bba", "abAB", "aaBB")])
    maps = [d.complex for d in enumerate_reduced_disk_diagrams(relators, 3)]
    maps += [ad.complex for ad in enumerate_abstract_diagrams(2, 5).representatives]
    assert len(maps) == 983 + 733
    for c in maps:
        by_vertex = {}
        for d, v in enumerate(c.dart_vertex):
            by_vertex.setdefault(v, set()).add(d)
        assert _sigma_orbits(c) == {frozenset(darts) for darts in by_vertex.values()}
        assert list(by_vertex) == list(range(c.num_vertices))


def test_iso_keys_partition_the_labelled_diagrams_as_the_oracle_does(monkeypatch):
    # The oracle builds its own traversal codes and reads no boundary, so it
    # checks that equal keys mean isomorphic diagrams with code they share
    # nothing of.
    real = abstract_diagrams._iso_key
    labelled = []

    def recorded(ad):
        labelled.append(ad)
        return real(ad)

    monkeypatch.setattr(abstract_diagrams, "_iso_key", recorded)
    enumerate_abstract_diagrams(2, 4)
    assert len(labelled) == 786
    pairs = {(real(ad), abstract_iso_key(ad)) for ad in labelled}
    # One oracle class per key class and back: the two partitions agree.
    assert len({key for key, _ in pairs}) == len({iso for _, iso in pairs}) \
        == len(pairs) == 267


def test_canonical_code_reads_an_edge_with_the_outer_face_on_both_sides():
    # Two one-edge loops joined by a bridge: the outer walk crosses the
    # bridge both ways, so no inner face lies across it in the reading.
    dumbbell = PlanarComplex(((0,), (4,)), (1, 2, 5, 3))
    assert check_complex(dumbbell).ok
    for infos in ([((1, 1), 1), ((1, -1), 1)], [((1, 1), 1), ((2, 1), 1)]):
        assert canonical_map_code(dumbbell, infos)[1].count((0, 0)) == 2
        for relabel in (False, True):
            for mirror in (False, True):
                args = (dumbbell, infos, None, relabel, mirror)
                assert canonical_map_code(*args) == full_canonical_map_code(*args), args


def test_canonical_code_rejects_a_map_it_cannot_encode():
    overlapping = PlanarComplex(((0,),), (0,))
    with pytest.raises(DomainError, match="partitioned"):
        canonical_map_code(overlapping, [((1, 1), 1)])
    # Two one-edge loops with no dart in common: the outer walk sees one.
    disconnected = PlanarComplex(((0,), (2,), (3,)), (1,))
    for mirror in (True, False):
        with pytest.raises(DomainError, match="disconnected"):
            canonical_map_code(disconnected, [((1, 1), 1)] * 3, use_mirror=mirror)


@pytest.mark.parametrize("c, violation, detail", [
    (PlanarComplex(((0, 2),), (1,)), "involution", "odd number of darts"),
    (PlanarComplex(((0,), ()), (1,)), "involution", "empty face cycle"),
    (PlanarComplex(((0,),), (0,)), "involution", "partitioned"),
    (PlanarComplex(((0,), (2,), (3,)), (1,)), "connectivity", "disconnected"),
    # One vertex, three edges and two faces: a torus, V - E + F = 0.
    (PlanarComplex(((0, 2, 1, 3, 4),), (5,)), "euler", "= 0 != 2"),
], ids=["odd-darts", "empty-cycle", "overlapping-cycles", "disconnected", "genus-1"])
def test_check_complex_refusals(c, violation, detail):
    report = check_complex(c)
    assert not report.ok and report.violation == violation and detail in report.detail


# The two readers, each with a one-face file: the triangle (V = 3) as an
# abstract diagram, the commutator square (V = 4) as a concrete one.
READERS = {
    "abstract": (abstract_from_json, abstract_to_json,
                 AbstractDistortionDiagram(_one_face_abstract(3), 0, 0)),
    "diagram": (diagram_from_json, diagram_to_json,
                one_face_diagram(make_relator_set(2, 4, [word_from_text("abAB")]), 1)),
}


def _merge_last_two(data):
    for rec in data["darts"]:
        if rec["vertex"] == data["num_vertices"] - 1:
            rec["vertex"] -= 1


def _split_first(data, count=0):
    data["darts"][0]["vertex"] = data["num_vertices"]
    data["num_vertices"] += count


@pytest.mark.parametrize("edit", [
    _merge_last_two,
    _split_first,
    lambda data: _split_first(data, 1),
    # Every id 0..V-1 still in use, but dart 0 named as vertex 1's.
    lambda data: data["darts"][0].update(vertex=1),
    lambda data: data.update(num_vertices=data["num_vertices"] + 1),
    lambda data: data.update(num_vertices=data["num_vertices"] - 1),
], ids=["merged-ids", "split-ids", "split-ids-counted", "one-dart-moved",
        "one-vertex-too-many", "one-vertex-too-few"])
@pytest.mark.parametrize("reader", list(READERS))
def test_json_readers_refuse_vertex_ids_that_are_not_the_orbits(reader, edit):
    read, write, diagram = READERS[reader]
    data = json.loads(write(diagram))
    edit(data)
    with pytest.raises(DomainError, match="rotation orbits one-to-one"):
        read(json.dumps(data))


@pytest.mark.parametrize("reader", list(READERS))
def test_json_readers_take_any_one_to_one_vertex_ids(reader):
    # A file may number the orbits in any order; the map read keeps the
    # numbering by least dart, so it is written back as the original.
    read, write, diagram = READERS[reader]
    text = write(diagram)
    data = json.loads(text)
    v = data["num_vertices"]
    for rec in data["darts"]:
        rec["vertex"] = (rec["vertex"] + 1) % v
    renumbered = read(json.dumps(data))
    assert write(renumbered) == text
    if reader == "abstract":
        assert classify(renumbered) == classify(diagram)
