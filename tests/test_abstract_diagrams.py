import hashlib
import math
from fractions import Fraction

import pytest

from freiheit import abstract_diagrams
from freiheit.abstract_diagrams import (FREE, SEMI, AbstractDiagram,
                                        AbstractDistortionDiagram,
                                        abstract_from_json, abstract_is_reduced,
                                        abstract_to_json, check_fillable_shape,
                                        classify, count_inequalities, decorate,
                                        edge_partition, elementary_segments,
                                        enumerate_abstract_diagrams,
                                        enumerate_abstract_distortion_diagrams,
                                        enumerate_fillings, fill, filling_bound,
                                        filling_bound_exact, fillings_with_boundary,
                                        underlying_abstract, _one_face_abstract)
from freiheit.complexes import (PlanarComplex, check_complex, glue_face, mirror_complex,
                                polygon)
from freiheit.density import make_relator_set
from freiheit.diagrams import enumerate_reduced_disk_diagrams, validate
from freiheit.errors import DomainError, FeasibilityError, NotFillableError
from freiheit.stallings import LabeledGraph, fold, wedge_of_words
from freiheit.words import Word

from fixtures import (fillable_aligned_pair, irreducible_mirror_pair,
                      reducible_pair, three_face_example, unfillable_pair)
from oracles import (abstract_fillable_shaped, abstract_glue_candidates,
                     brute_letter_classes, full_canonical_map_code,
                     labelled_abstract_enumeration, product_filter_fillings)

LOOP = LabeledGraph(1, [(0, 0, 1)])
FIG8 = fold(wedge_of_words([Word((1,)), Word((2,))]))


def test_one_face_all_free_to_fill():
    add = AbstractDistortionDiagram(_one_face_abstract(4), 0, 0)
    cl = classify(add)
    assert set(cl.classes.values()) == {FREE}
    segs = elementary_segments(add, 1)
    assert len(segs) == 1 and segs[0].cls == FREE and len(segs[0].letters) == 4


def test_one_face_full_p_all_semi():
    add = AbstractDistortionDiagram(_one_face_abstract(4), 0, 4)
    cl = classify(add)
    assert set(cl.classes.values()) == {SEMI}
    assert cl.eta_prime == {1: 4} and cl.eta == {1: 0}
    report = count_inequalities(add)
    assert report.global_ok and report.per_face_ok


def test_decoration_totals():
    for add in list(enumerate_abstract_distortion_diagrams(2, 3))[:200]:
        ad = add.base
        decorations = decorate(ad)
        total = sum(len(entries) for entries in decorations.values())
        lengths = ad.lengths()
        alpha = {}
        for idx, _ in ad.face_labels:
            alpha[idx] = alpha.get(idx, 0) + 1
        assert total == sum(alpha[i] * lengths[i] for i in alpha)
        assert all(1 <= len(entries) <= 2 for entries in decorations.values())


def test_fillable_shape_patterns():
    assert not abstract_is_reduced(reducible_pair())
    with pytest.raises(NotFillableError):
        check_fillable_shape(reducible_pair())
    assert abstract_is_reduced(unfillable_pair())
    unfillable = unfillable_pair()
    for _ in range(2):  # nothing is cached for a shape that raises
        with pytest.raises(NotFillableError):
            check_fillable_shape(unfillable)
        with pytest.raises(NotFillableError):
            classify(AbstractDistortionDiagram(unfillable, 0, 0))
    check_fillable_shape(irreducible_mirror_pair())
    check_fillable_shape(fillable_aligned_pair())


def test_unfillable_pattern_has_no_fillings():
    assert fillings_with_boundary(unfillable_pair(), 2) == []


def _signed_pairs():
    """A triangle and a second face of another relator glued along one or
    two edges, one or both read reversed; where exactly one is, both faces
    read the shared edges along the same darts."""
    for arc, length in ((1, 2), (1, 3), (2, 3)):
        for omega in range(length):
            glued = glue_face(polygon(3), 0, arc, length, omega)
            for labels in (((1, 1), (2, -1)), ((1, -1), (2, 1)), ((1, -1), (2, -1))):
                yield AbstractDiagram(glued, labels)


def test_fillings_match_the_product_filter_oracle():
    hand_built = [*_signed_pairs(), fillable_aligned_pair(), irreducible_mirror_pair(),
                  unfillable_pair(), _one_face_abstract(3, -1), _one_face_abstract(4)]
    reps = [rep for rep in enumerate_abstract_diagrams(2, 4).representatives
            if rep.max_length() <= 3]
    assert len(reps) > 50
    total = 0
    for ad in hand_built + reps:
        fillings = fillings_with_boundary(ad, 2)
        assert fillings == product_filter_fillings(ad, 2)
        total += len(fillings)
    assert total > 5000


def test_fillings_refuse_an_isolated_edge():
    # Two loops joined by edge 1, which has the outer face on both sides.
    ad = AbstractDiagram(
        PlanarComplex(((0,), (4,)), (1, 2, 5, 3)),
        ((1, 1), (2, 1)))
    assert check_complex(ad.complex).ok
    for refused in (lambda: fillings_with_boundary(ad, 2),
                    lambda: classify(AbstractDistortionDiagram(ad, 0, 0)),
                    lambda: fill(ad, [Word((1,)), Word((2,))])):
        with pytest.raises(DomainError, match="isolated edge 1"):
            refused()


def test_fillings_need_two_generators():
    # Over fewer than two generators there are no cyclically reduced pools
    # to fill from; the enumeration refuses rather than count a degenerate
    # alphabet.
    for m in (1, 0):
        with pytest.raises(DomainError):
            fillings_with_boundary(fillable_aligned_pair(), m)
        with pytest.raises(DomainError):
            fillings_with_boundary(_one_face_abstract(2), m)


def test_fillings_are_sized_before_any_pool_is_built():
    # 15^6 + 15 words of length 6 at m = 8, and 199^6 + 199 at m = 100: the
    # closed-form count refuses both before a single word is listed.
    import tracemalloc

    tracemalloc.start()
    try:
        for m in (8, 100):
            with pytest.raises(FeasibilityError) as info:
                fillings_with_boundary(_one_face_abstract(6), m)
            assert info.value.estimate == (2 * m - 1) ** 6 + 2 * m - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_three_face_classification():
    add = three_face_example()
    cl = classify(add)
    assert cl.not_free() == {(1, 4), (2, 1), (2, 2)}
    assert cl.alpha == {1: 2, 2: 1}


def test_three_face_partition_and_segments():
    add = three_face_example()
    parts = edge_partition(add.base)
    union = set()
    for edges in parts.values():
        assert not (union & edges)
        union |= edges
    assert union == set(range(add.base.complex.num_edges))
    for i in (1, 2):
        segs = elementary_segments(add, i)
        assert all(s.cls is not None for s in segs)
        assert sum(len(s.letters) for s in segs) == 6
    report = count_inequalities(add)
    assert report.per_face_ok and report.global_ok


def test_classification_matches_brute_oracle(monkeypatch):
    decorated = []
    build = abstract_diagrams.decorate
    monkeypatch.setattr(abstract_diagrams, "decorate",
                        lambda ad: decorated.append(ad) or build(ad))
    reps = checked = 0
    for add in enumerate_abstract_distortion_diagrams(2, 3):
        if add.p_length == 0:
            # A copy of the representative whose letter table is not built yet.
            ad = AbstractDiagram(add.base.complex, add.base.face_labels)
            reps += 1
            decorated.clear()
        add = AbstractDistortionDiagram(ad, add.p_start, add.p_length)
        cl = classify(add)
        oracle = brute_letter_classes(add)
        assert cl.classes == oracle
        for idx, li in ad.lengths().items():
            assert cl.eta[idx] == sum(oracle[(idx, j)] == FREE for j in range(1, li + 1))
            assert cl.eta_prime[idx] == sum(oracle[(idx, j)] == SEMI
                                            for j in range(1, li + 1))
            assert cl.alpha[idx] == sum(i == idx for i, _ in ad.face_labels)
        # The decorations are built once per diagram, across all its p.
        assert len(decorated) == 1 and decorated[0] is ad
        checked += 1
    assert checked > 100 and reps > 20


def test_classification_shares_no_dict_with_the_letter_table():
    add = three_face_example()
    first = classify(add)
    for table in (first.classes, first.alpha, first.eta, first.eta_prime, first.lengths):
        table.clear()
    again = classify(add)
    assert again.alpha == {1: 2, 2: 1} and again.lengths == {1: 6, 2: 6}
    assert len(again.classes) == 12


def test_underlying_abstract_round_trip():
    relators = make_relator_set(2, 4, [Word((1, 2)), Word((1, 1, 2)), Word((2, 2, -1))])
    count = 0
    for d in enumerate_reduced_disk_diagrams(relators, 2):
        ad, order = underlying_abstract(d)
        words = [relators.relators[idx - 1] for idx in order]
        refilled = fill(ad, words)
        assert refilled.dart_labels == d.dart_labels
        assert refilled.complex == d.complex
        count += 1
    assert count > 5


def test_fill_rejects_inconsistent_words():
    # The aligned pair forces letter 2 to invert letter 4 across the shared
    # edge; a word violating that cannot fill the diagram.
    ad = fillable_aligned_pair()
    with pytest.raises(DomainError, match="words do not fill this diagram"):
        fill(ad, [Word((1, 2, 1, 2))])


def test_fill_writes_every_filling_as_a_valid_diagram():
    # fill and fillings_with_boundary both read the decorations: each
    # filling fills without a clash, reads its boundary along the outer
    # walk and validates against its own relators, since fill names the
    # faces by their words' places in the sorted relator set.
    reps = [rep for rep in enumerate_abstract_diagrams(2, 4).representatives
            if rep.max_length() <= 3]
    total = 0
    for ad in [*_signed_pairs(), fillable_aligned_pair(), irreducible_mirror_pair(), *reps]:
        maxlen = ad.max_length()
        for combo, boundary in fillings_with_boundary(ad, 2):
            d = fill(ad, combo)
            assert tuple(d.dart_labels[x] for x in ad.complex.outer) == boundary
            assert validate(d, make_relator_set(2, maxlen, combo)).ok
            total += 1
    assert total > 5000


def test_enumerate_fillings_one_face_length_two():
    add = AbstractDistortionDiagram(_one_face_abstract(2), 0, 0)
    fillings = enumerate_fillings(add, 2, 2, LOOP)
    assert len(fillings) == 12


def test_enumerate_fillings_p_constrains_to_graph():
    add = AbstractDistortionDiagram(_one_face_abstract(2), 0, 2)
    fillings = enumerate_fillings(add, 2, 2, LOOP)
    assert sorted(w[0].text() for w in fillings) == ["AA", "aa"]


def test_fillings_validate_as_diagrams():
    add = AbstractDistortionDiagram(_one_face_abstract(3), 0, 1)
    fillings = enumerate_fillings(add, 2, 3, FIG8)
    assert fillings
    for combo in fillings:
        d = fill(add.base, list(combo))
        relators = make_relator_set(2, 3, combo)
        assert validate(d, relators).ok


def test_filling_bound_example():
    add = AbstractDistortionDiagram(_one_face_abstract(2), 0, 0)
    exact = filling_bound_exact(add, 2, 1, 1)
    assert exact == Fraction(96)
    assert abs(filling_bound(add, 2, 1, 1) - math.log(96)) < 1e-12
    assert len(enumerate_fillings(add, 2, 2, LOOP)) <= exact


def test_filling_bound_dominates_free_assignments():
    # With eta_i = l_i and no p, the bound exceeds the count of all
    # label assignments of the face boundary.
    add = AbstractDistortionDiagram(_one_face_abstract(3), 0, 0)
    exact = filling_bound_exact(add, 2, 1, 1)
    assert exact >= 2 * 2 * (2 * 2 - 1) ** 2


def test_enumeration_counts_small():
    enum = enumerate_abstract_diagrams(1, 2)
    assert enum.iso_count == 2
    adds = list(enumerate_abstract_distortion_diagrams(1, 2))
    # 1-gon: empty p plus one (start, length) pair; 2-gon: empty plus four.
    assert len(adds) == 2 + 5


def test_enumeration_reports_both_counts():
    enum = enumerate_abstract_diagrams(2, 3)
    assert enum.iso_count <= enum.labeled_count
    for ad in enum.representatives:
        assert check_complex(ad.complex).ok
        assert abstract_is_reduced(ad)
        check_fillable_shape(ad)


def _digest(reps):
    digest = hashlib.sha256()
    for rep in reps:
        digest.update(abstract_to_json(AbstractDistortionDiagram(rep, 0, 0)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("max_faces, maxlen", [(2, 4), (2, 5), (1, 6)])
def test_labelled_count_matches_the_labelled_search(max_faces, maxlen):
    # The oracle keys its search by labelled class and counts every class it
    # reaches; the library keys it by mirror class and counts each one once
    # or twice by its chirality.
    reps, iso_count, labeled_count = labelled_abstract_enumeration(max_faces, maxlen)
    enum = enumerate_abstract_diagrams(max_faces, maxlen)
    assert (enum.iso_count, enum.labeled_count) == (iso_count, labeled_count)
    assert _digest(enum.representatives) == _digest(reps)


def _labelled_classes(ad):
    """The labelled classes of the diagram's mirror class, by the library's
    one pass and by the oracle: 1 when the diagram and its mirror have one
    code under outer re-rooting alone, 2 when not."""
    _, labelled = abstract_diagrams._class_of(abstract_diagrams._canonical(ad))
    infos = [(label, len(cycle)) for label, cycle in zip(ad.face_labels, ad.complex.faces)]
    flipped = [((idx, -sign), period) for (idx, sign), period in infos]
    same = (full_canonical_map_code(ad.complex, infos, use_mirror=False)
            == full_canonical_map_code(mirror_complex(ad.complex), flipped,
                                       use_mirror=False))
    assert labelled == (1 if same else 2)
    return labelled


def test_an_achiral_diagram_counts_one_labelled_class_and_a_chiral_one_two():
    # Two bigons of one relator, of opposite signs, glued along an edge so
    # that the reflection through that edge swaps them with their starts:
    # the diagram is its own mirror. It is a mirror pair, so the
    # enumeration never reaches it: no reduced diagram of two faces of
    # length <= 6 is achiral, and every labelled count there is twice the
    # number of mirror classes.
    achiral = AbstractDiagram(glue_face(polygon(2), 0, 1, 2, 0), ((1, 1), (1, -1)))
    assert not abstract_is_reduced(achiral)
    assert _labelled_classes(achiral) == 1
    # The same gluing with the second face started one dart on.
    chiral = AbstractDiagram(glue_face(polygon(2), 0, 1, 2, 1), ((1, 1), (1, -1)))
    assert abstract_is_reduced(chiral)
    assert _labelled_classes(chiral) == 2


def _one_face_parents(maxlen):
    """The one-face parents of the enumeration at face length <= maxlen, of
    both signs: a superset of its level-one classes."""
    return [_one_face_abstract(length, sign)
            for length in range(1, maxlen + 1) for sign in (1, -1)]


def test_shape_check_refuses_every_mirror_pair():
    # The enumeration keeps a candidate on the shape check alone: a mirror
    # pair is an edge decorated twice by one letter, which the check refuses.
    # At two faces the one-face seeds are the only parents, so these are all
    # the candidates the enumerations at (2, 4) and (2, 5) consider, and more.
    seen = [cand for maxlen in (4, 5) for parent in _one_face_parents(maxlen)
            for cand in abstract_glue_candidates(parent, maxlen)]
    mirror_pairs = [cand for cand in seen if not abstract_is_reduced(cand)]
    assert mirror_pairs
    assert not any(abstract_fillable_shaped(cand) for cand in mirror_pairs)


@pytest.mark.parametrize("maxlen", [4, 5, 6])
def test_the_screen_admits_what_the_whole_shape_check_admits(maxlen):
    # The screen reads only the arc's edges off the parent's letter table;
    # the reference builds every gluing and checks all of its edges. The
    # admitted children must agree one for one, in order, from every parent.
    refused = 0
    for parent in _one_face_parents(maxlen):
        gluings = list(abstract_glue_candidates(parent, maxlen))
        admitted = [cand for cand in gluings if abstract_fillable_shaped(cand)]
        screened = list(abstract_diagrams._fillable_shaped_children(parent, maxlen))
        assert screened == admitted, parent
        refused += len(gluings) - len(admitted)
    assert refused > 100


def test_enumeration_guards():
    with pytest.raises(FeasibilityError):
        enumerate_abstract_diagrams(3, 2)
    with pytest.raises(FeasibilityError):
        enumerate_abstract_diagrams(2, 7)


def test_abstract_json_round_trip():
    add = three_face_example()
    add2 = abstract_from_json(abstract_to_json(add))
    assert add2.base.face_labels == add.base.face_labels
    assert add2.base.complex == add.base.complex
    assert classify(add2).classes == classify(add).classes


def test_abstract_json_rejects_malformed_input():
    import json

    data = json.loads(abstract_to_json(three_face_example()))
    edits = [lambda d: d.pop("faces"),                         # missing key
             lambda d: d["p"].update(length=1.5),              # wrong type
             lambda d: d["faces"][0].update(relator=0),        # bad face label
             lambda d: d.update(num_vertices=d["num_vertices"] + 1)]  # not the orbits
    for edit in edits:
        broken = json.loads(json.dumps(data))
        edit(broken)
        with pytest.raises(DomainError):
            abstract_from_json(json.dumps(broken))


def test_lens_counterexample_to_literal_inequalities():
    # Two bigons over one abstract relator glued along an edge: reduced,
    # fillable (by any word xx), yet the alpha-weighted inequality fails
    # while the occurrence-summed form holds.
    ad = AbstractDiagram(
        PlanarComplex(((0, 2), (4, 3)), (5, 1)),
        ((1, 1), (1, -1)))
    assert abstract_is_reduced(ad)
    check_fillable_shape(ad)
    assert fillings_with_boundary(ad, 2)  # genuinely fillable
    add = AbstractDistortionDiagram(ad, 1, 1)
    report = count_inequalities(add)
    assert not report.global_ok and not report.per_face_ok
    assert report.per_relator_ok and report.global_unweighted_ok


def test_enumeration_count_reported_against_power_bound():
    # The asymptotic bound maxlen^(5 K) is reported, not asserted: at desk
    # scale the polynomial prefactors dominate.
    enum = enumerate_abstract_diagrams(2, 4)
    adds = sum(1 + ad.boundary_length() ** 2 for ad in enum.representatives)
    print(f"abstract distortion diagrams: {adds} representatives-with-p "
          f"vs maxlen^(5K) = {4 ** 10}")
    assert adds == len(list(enumerate_abstract_distortion_diagrams(2, 4)))
