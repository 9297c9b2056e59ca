"""Tests of the benchmark's own oracles: python3 -m pytest benchmark"""

from itertools import product
from types import SimpleNamespace

import pytest

import bench_oracles as oracles


def words(m: int, length: int):
    return product([x for x in range(-m, m + 1) if x], repeat=length)


@pytest.mark.parametrize("m", [2, 3])
def test_cyclically_reduced_closed_form_matches_brute_force(m):
    for length in range(1, 7):
        brute = sum(1 for w in words(m, length) if oracles.is_cyclically_reduced(w))
        assert oracles.cyclically_reduced_count(m, length) == brute
    assert oracles.ball_size(m, 6) == sum(
        oracles.cyclically_reduced_count(m, length) for length in range(1, 7))


def test_ball_size_by_hand():
    # m = 2: the 4 letters, and the 12 reduced words of length 2 (none of
    # which is x x^-1 cyclically either).
    assert oracles.ball_size(2, 1) == 4
    assert oracles.ball_size(2, 2) == 16


@pytest.mark.parametrize("m, r", [(2, 1), (3, 2)])
def test_collapse_class_matches_brute_force(m, r):
    for maxlen in range(1, 7):
        brute = sum(1 for length in range(1, maxlen + 1) for w in words(m, length)
                    if oracles.is_cyclically_reduced(w)
                    and sum(abs(x) > r for x in w) == 1)
        assert oracles.collapse_class_size(m, r, maxlen) == brute


def test_collapse_class_per_length():
    assert oracles.collapse_class_size(2, 1, 1) == 2
    assert oracles.collapse_class_size(2, 1, 3) == 2 + 4 * 2 + 4 * 3
    assert oracles.collapse_class_size(3, 2, 3) == 2 + 8 * 2 + 8 * 3 * 3
    with pytest.raises(ValueError):
        oracles.collapse_class_size(4, 2, 5)


def test_collapse_probability_limits():
    assert oracles.collapse_probability(3, 2, 20, 0.45) > 1 - 1e-12
    low = oracles.collapse_probability(3, 2, 20, 0.15)
    assert 0.03 < low < 0.1  # the README's ~0.06 at d = 0.15


def test_binomial_tail():
    assert oracles.binomial_tail(5, 10, 0.5) == pytest.approx(0.623046875)
    assert oracles.binomial_tail(0, 10, 0.5) == pytest.approx(2 ** -10)
    assert oracles.binomial_tail(10, 10, 1.0) == 1.0
    assert oracles.binomial_tail(9, 10, 1.0) == 0.0


def test_cyclic_core_by_hand():
    assert oracles.cyclic_core(()) == ()
    assert oracles.cyclic_core((1, -1)) == ()
    assert oracles.cyclic_core((1, 2, -1)) == (2,)
    assert oracles.cyclic_core((1, 2, -2, -1)) == ()
    assert oracles.cyclic_core((2, 1, 2, -1, -2)) == (2,)
    assert oracles.cyclic_core((1, 1, 2, -1)) == (1, 2)
    assert oracles.cyclic_core((1, 2, 1, 2)) == (1, 2, 1, 2)


def test_least_rotation_by_hand():
    assert oracles.least_rotation(()) == ()
    assert oracles.least_rotation((2, 1, -1)) == (-1, 2, 1)
    assert oracles.least_rotation((1, 2, 1, 2)) == (1, 2, 1, 2)


def test_rotation_classes_by_hand():
    # Over x1 alone: x1^k and x1^-k for each length.
    assert oracles.rotation_classes(1, 4) == 8
    # Over x1, x2 at length 1: four letters; at length 2: the 12 words
    # fall into 8 classes (4 squares, and ab ~ ba, aB ~ Ba, Ab ~ bA, AB ~ BA).
    assert oracles.rotation_classes(2, 1) == 4
    assert oracles.rotation_classes(2, 2) == 4 + 8


def step(before, after, relator_index, inverted, rotation, position, overlap):
    return SimpleNamespace(before=before, after=after, relator_index=relator_index,
                           inverted=inverted, rotation=rotation, position=position,
                           overlap=overlap)


def test_replay_accepts_hand_made_witnesses():
    ab = (1, 2)
    # ab is itself the relator.
    assert oracles.replay_rewrites([ab], (1, 2), [step((1, 2), (), 1, False, 0, 0, 2)])
    # b a = 1 as a rotation: read ba from the state's second letter.
    assert oracles.replay_rewrites([ab], (2, 1), [step((1, 2), (), 1, False, 1, 1, 2)])
    # aabb: from its second letter the state reads abba; dropping ab leaves ba.
    state = oracles.least_rotation((1, 1, 2, 2))
    assert state == (1, 1, 2, 2)
    first = step(state, (1, 2), 1, False, 0, 1, 2)
    assert oracles.replay_rewrites([ab], (1, 1, 2, 2), [first, step((1, 2), (), 1, False, 0, 0, 2)])
    # The empty word needs no steps.
    assert oracles.replay_rewrites([ab], (1, -1), [])


def test_replay_rejects_broken_witnesses():
    ab = (1, 2)
    good = step((1, 2), (), 1, False, 0, 0, 2)
    assert not oracles.replay_rewrites([ab], (1, 2), [])  # stops short
    assert not oracles.replay_rewrites([ab], (1, 1), [good])  # wrong start
    assert not oracles.replay_rewrites([ab], (1, 2), [step((1, 2), (), 1, True, 0, 0, 2)])
    assert not oracles.replay_rewrites([ab], (1, 2), [step((1, 2), (2,), 1, False, 0, 0, 1)])
    assert not oracles.replay_rewrites([ab], (1, 2), [step((1, 2), (), 2, False, 0, 0, 2)])
    assert not oracles.replay_rewrites([ab], (1, 2), [step((1, 2), (), 1, False, 0, 0, 3)])


def one_face(word, sign=1):
    """One face reading ``word`` (or its inverse for sign -1) as a disk."""
    n = len(word)
    dart_vertex = []
    for i in range(n):
        dart_vertex += [i, (i + 1) % n]
    read = word if sign > 0 else oracles.inverse(word)
    labels = []
    for x in read:
        labels += [x, -x]
    cycle = tuple(2 * i for i in range(n))
    outer = tuple(2 * i + 1 for i in reversed(range(n)))
    return n, tuple(dart_vertex), (cycle,), outer, tuple(labels)


def test_disk_check_accepts_one_face():
    v, dv, faces, outer, labels = one_face((1, 1, 2))
    assert oracles.disk_diagram_fault(v, dv, faces, outer, labels, ((1, 1),), [(1, 1, 2)]) is None
    v, dv, faces, outer, labels = one_face((1, 1, 2), -1)
    assert oracles.disk_diagram_fault(v, dv, faces, outer, labels, ((1, -1),), [(1, 1, 2)]) is None


def test_disk_check_rejects_by_hand():
    v, dv, faces, outer, labels = one_face((1, 1, 2))
    rel = [(1, 1, 2)]
    assert "reads" in oracles.disk_diagram_fault(v, dv, faces, outer, labels, ((1, -1),), rel)
    assert "inverse" in oracles.disk_diagram_fault(
        v, dv, faces, outer, (1, -1, 1, 1, 2, -2), ((1, 1),), rel)
    assert "orbits" in oracles.disk_diagram_fault(v + 1, dv, faces, outer, labels, ((1, 1),), rel)
    assert "cycle" in oracles.disk_diagram_fault(v, dv, faces, outer[1:], labels, ((1, 1),), rel)


def two_squares(second_face, second_sign, second_labels):
    """Two squares over abAB sharing the edge 0 -> 1 (dart 0).

    Face 1 is 0 -> 1 -> 2 -> 3 -> 0 on darts 0, 2, 4, 6 reading abAB; the
    second face is 1 -> 0 -> 5 -> 4 -> 1 on darts 1, 13, 11, 9, with the
    given labels on darts 13, 11, 9.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]
    dart_vertex = tuple(v for e in edges for v in e)
    labels = [0] * 14
    for d, x in zip((0, 2, 4, 6, 13, 11, 9), (1, 2, -1, -2) + second_labels):
        labels[d], labels[d ^ 1] = x, -x
    return oracles.disk_diagram_fault(
        6, dart_vertex, ((0, 2, 4, 6), second_face), (8, 10, 12, 7, 5, 3), tuple(labels),
        ((1, 1), (1, second_sign)), [(1, 2, -1, -2)])


def test_disk_check_finds_a_mirror_pair():
    # Stored with sign -1, the second face's positive boundary runs darts
    # 0, 8, 10, 12 and reads abAB from dart 0, as face 1 does: they cancel.
    assert "mirror" in two_squares((1, 13, 11, 9), -1, (2, 1, -2))


def test_disk_check_accepts_faces_that_share_an_edge_unmirrored():
    # Stored with sign +1, the second face reads ABab from dart 1: the two
    # faces cross the shared edge in opposite directions and do not cancel.
    assert two_squares((1, 13, 11, 9), 1, (-2, 1, 2)) is None
