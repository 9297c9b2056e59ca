import json
from collections import Counter

import pytest

from freiheit import abstract_diagrams, complexes, diagrams
from freiheit.abstract_diagrams import (AbstractDistortionDiagram, _one_face_abstract,
                                        abstract_from_json, abstract_to_json, classify,
                                        enumerate_abstract_diagrams)
from freiheit.complexes import (PlanarComplex, canonical_map_code, check_complex,
                                face_permutation, glue_face, least_reading_codes,
                                mirror_complex, polygon)
from freiheit.density import make_relator_set
from freiheit.diagrams import (diagram_from_json, diagram_to_json,
                               enumerate_reduced_disk_diagrams, one_face_diagram)
from freiheit.errors import DomainError
from freiheit.words import word_from_text

from oracles import (abstract_fillable_shaped, abstract_glue_candidates, abstract_iso_key,
                     full_canonical_map_code)


def check_least_reading_codes(c, face_infos, codes):
    """Check what a map's least-reading codes give against the full
    minimums over every root: the least code, the least code after
    first-use renaming, and which of the map (variant 0) and its mirror
    (variant 1) attain the least code, each alone."""
    least = min(code for _, code in codes)
    assert least == full_canonical_map_code(c, face_infos), c
    assert min(abstract_diagrams._first_use_renamed(code) for _, code in codes) == \
        full_canonical_map_code(c, face_infos, relabel_first_use=True), c
    flipped = [((idx, -sign), period) for (idx, sign), period in face_infos]
    alone = (full_canonical_map_code(c, face_infos, use_mirror=False),
             full_canonical_map_code(mirror_complex(c), flipped, use_mirror=False))
    assert {variant for variant, code in codes if code == least} == \
        {variant for variant in (0, 1) if alone[variant] == least}, c


@pytest.fixture
def checked_codes(monkeypatch):
    """Route both diagram layers' canonical codes through a check against
    the full minimums over every root; count the checked calls by layer."""
    kinds = Counter()

    def checked_code(c, face_infos, dart_labels=None):
        code = complexes.canonical_map_code(c, face_infos, dart_labels)
        assert code == full_canonical_map_code(c, face_infos, dart_labels), c
        kinds["labels"] += 1
        return code

    def checked_least(c, face_infos):
        codes = complexes.least_reading_codes(c, face_infos)
        check_least_reading_codes(c, face_infos, codes)
        kinds["abstract"] += 1
        return codes

    monkeypatch.setattr(diagrams, "canonical_map_code", checked_code)
    monkeypatch.setattr(abstract_diagrams, "least_reading_codes", checked_least)
    return kinds


def _disk_diagrams(words, max_faces):
    relators = make_relator_set(2, 4, [word_from_text(w) for w in words])
    return sum(1 for _ in enumerate_reduced_disk_diagrams(relators, max_faces))


def test_canonical_codes_match_the_full_minimum_on_abstract_diagrams(checked_codes):
    # One pass per candidate gives the mirror-invariant key, the isomorphism
    # key (indices renamed) and the chirality. The candidates are the eight
    # one-face seeds and the shape-checked gluings onto the four classes
    # they form (a polygon and its mirror are one class).
    enumeration = enumerate_abstract_diagrams(2, 4)
    assert len(enumeration.representatives) > 0
    gluings = sum(1 for length in range(1, 5)
                  for cand in abstract_glue_candidates(_one_face_abstract(length), 4)
                  if abstract_fillable_shaped(cand))
    assert checked_codes["abstract"] == 8 + gluings > 400, checked_codes


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


def test_iso_keys_partition_the_mirror_classes_as_the_oracle_does():
    # The oracle builds its own traversal codes and reads no boundary, so it
    # checks that equal keys mean isomorphic diagrams with code they share
    # nothing of.
    classes = list(abstract_diagrams._mirror_classes(2, 4))
    assert len(classes) == 393
    assert sum(labelled for _, _, labelled in classes) == 786
    pairs = {(iso, abstract_iso_key(ad)) for ad, iso, _ in classes}
    # One oracle class per key class and back: the two partitions agree.
    assert len({key for key, _ in pairs}) == len({iso for _, iso in pairs}) \
        == len(pairs) == 267


def test_glued_maps_carry_the_face_permutation_of_their_cycles():
    # glue_face relinks the parent's permutation and mirror_complex reads it
    # backwards instead of building it again; it must be the one the new
    # map's cycles give, on every gluing of a face onto the one- and
    # two-face maps, the whole boundary included, and on its mirror.
    maps = [polygon(length) for length in range(1, 5)]
    maps += [glue_face(polygon(3), 0, arc, 4, omega) for arc in (1, 2, 3) for omega in range(4)]
    glued = 0
    for c in maps:
        n = len(c.outer)
        for start in range(n):
            for length in range(2, 6):
                for arc in range(1, min(length - 1, n) + 1):
                    for omega in range(length):
                        child = glue_face(c, start, arc, length, omega)
                        assert child.phi == face_permutation(child), (c, start, arc)
                        mirror = mirror_complex(child)
                        assert mirror.phi == face_permutation(mirror), (c, start, arc)
                        glued += 1
    assert glued > 1000


def test_canonical_code_reads_an_edge_with_the_outer_face_on_both_sides():
    # Two one-edge loops joined by a bridge: the outer walk crosses the
    # bridge both ways, so no inner face lies across it in the reading.
    dumbbell = PlanarComplex(((0,), (4,)), (1, 2, 5, 3))
    assert check_complex(dumbbell).ok
    for infos in ([((1, 1), 1), ((1, -1), 1)], [((1, 1), 1), ((2, 1), 1)]):
        assert canonical_map_code(dumbbell, infos)[1].count((0, 0)) == 2
        check_least_reading_codes(dumbbell, infos, least_reading_codes(dumbbell, infos))


def test_canonical_code_rejects_a_map_it_cannot_encode():
    overlapping = PlanarComplex(((0,),), (0,))
    with pytest.raises(DomainError, match="partitioned"):
        canonical_map_code(overlapping, [((1, 1), 1)])
    # No outer walk to root a code at: one face holding both darts of an
    # edge, and the empty map.
    for c, infos in ((PlanarComplex(((0, 1),), ()), [((1, 1), 1)]),
                     (PlanarComplex((), ()), [])):
        for encode in (canonical_map_code, least_reading_codes):
            with pytest.raises(DomainError, match="cannot encode: empty outer walk"):
                encode(c, infos)
    # Two one-edge loops with no dart in common: the outer walk sees one.
    disconnected = PlanarComplex(((0,), (2,), (3,)), (1,))
    for encode in (canonical_map_code, least_reading_codes):
        with pytest.raises(DomainError, match="disconnected"):
            encode(disconnected, [((1, 1), 1)] * 3)


@pytest.mark.parametrize("c, violation, detail", [
    (PlanarComplex(((0, 2),), (1,)), "involution", "odd number of darts"),
    (PlanarComplex(((0,), ()), (1,)), "involution", "empty face cycle"),
    (PlanarComplex(((0,),), (0,)), "involution", "partitioned"),
    # Dart -2 stands in for dart 2: every slot is written once.
    (PlanarComplex(((0, -2),), (1, 3)), "involution", "partitioned"),
    (PlanarComplex(((0,), (2,), (3,)), (1,)), "connectivity", "disconnected"),
    # One vertex, three edges and two faces: a torus, V - E + F = 0.
    (PlanarComplex(((0, 2, 1, 3, 4),), (5,)), "euler", "= 0 != 2"),
], ids=["odd-darts", "empty-cycle", "overlapping-cycles", "negative-dart-id",
        "disconnected", "genus-1"])
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
