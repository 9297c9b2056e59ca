import random
from itertools import product

import pytest

from freiheit.errors import DomainError, FeasibilityError
from freiheit.stallings import (GraphStats, LabeledGraph, betti, canonical_code,
                                enumerate_reduced_graphs, enumerate_topological_types,
                                fold, graph_from_text, graph_stats, graph_to_text,
                                graphs_isomorphic, is_connected, is_readable,
                                is_reduced_graph, iter_readable_words,
                                iter_reduced_loops, readable_words, wedge_of_words)
from freiheit.words import Word, free_reduce

from oracles import dfs_reduced_paths, union_find_fold


def figure_eight():
    return LabeledGraph(1, [(0, 0, 1), (0, 0, 2)])


def theta():
    return LabeledGraph(2, [(0, 1, 1), (0, 1, 2), (1, 0, 1)])


def labeled_cycle(word):
    n = len(word)
    return LabeledGraph(n, [(i, (i + 1) % n, word[i]) for i in range(n)])


def test_wedge_examples():
    g = wedge_of_words([[1]])
    assert g.num_edges == 1 and betti(g) == 1
    g2 = wedge_of_words([[1], [2]])
    assert g2.num_edges == 2 and betti(g2) == 2
    g3 = wedge_of_words([[1, 2, -1]])
    assert g3.num_edges == 3 and betti(g3) == 1
    with pytest.raises(DomainError):
        wedge_of_words([[]])


def test_fold_examples():
    gf = fold(wedge_of_words([[1, 2], [1, 3]]))
    assert is_reduced_graph(gf) and betti(gf) == 2
    trivial = fold(wedge_of_words([[1, -1]]))
    assert trivial.num_vertices == 1 and trivial.num_edges == 0
    reduced = figure_eight()
    assert graphs_isomorphic(fold(reduced), reduced)


def _random_wedge(rng):
    words = []
    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(1, 8)
        words.append([rng.choice([-2, -1, 1, 2]) for _ in range(length)])
    return wedge_of_words(words)


def test_fold_matches_union_find_oracle():
    rng = random.Random(99)
    for _ in range(60):
        g = _random_wedge(rng)
        mine = fold(g)
        oracle = union_find_fold(g)
        if mine.num_edges == 0:
            assert oracle.num_edges == 0
        else:
            assert graphs_isomorphic(mine, oracle)


def test_fold_confluent_over_orders():
    rng = random.Random(4)
    for _ in range(25):
        g = _random_wedge(rng)
        results = {canonical_code(fold(g, random.Random(s))) if fold(g).num_edges
                   else "point" for s in range(6)}
        assert len(results) == 1


def test_fold_preserves_loop_words():
    # Pruning may re-root the base along a path c; loops w at the old base
    # become c^-1 w c at the new one.
    rng = random.Random(12)
    for _ in range(30):
        words = [[rng.choice([-2, -1, 1, 2]) for _ in range(rng.randrange(1, 7))]
                 for _ in range(rng.randrange(1, 4))]
        g, conj = fold(wedge_of_words(words), with_conjugator=True)
        if g.num_edges == 0:
            continue
        out = g.out_map()
        assert out is not None
        for w in words:
            conjugated = free_reduce(conj.inverse().letters + tuple(w) + conj.letters)
            if not conjugated.letters:
                continue
            v = g.base
            for x in conjugated.letters:
                v = out[(v, x)]
            assert v == g.base


def test_betti_examples():
    assert betti(wedge_of_words([[1]])) == 1
    assert betti(figure_eight()) == 2
    assert betti(labeled_cycle([1, 2, 1, 2, -1])) == 1
    two_parts = LabeledGraph(2, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(DomainError):
        betti(two_parts)


def test_graph_stats_examples():
    assert graph_stats(labeled_cycle([1, 2, 1])) == GraphStats(0, 0)
    assert graph_stats(theta()) == GraphStats(2, 3)
    assert graph_stats(figure_eight()) == GraphStats(1, 2)
    with pytest.raises(DomainError):
        graph_stats(LabeledGraph(2, [(0, 1, 1), (0, 0, 2)]))  # degree-1 vertex


def test_readable_words_loop_exact():
    loop = LabeledGraph(1, [(0, 0, 1)])
    for L in (1, 2, 5):
        rc = readable_words(loop, L)
        assert rc.paths == 2 and rc.words == 2
    assert sorted(w.text() for w in iter_readable_words(loop, 2)) == ["AA", "aa"]


def test_readable_words_figure_eight():
    rc = readable_words(figure_eight(), 1)
    assert rc.words == 4
    assert rc.paths <= 2 * 2 * 3  # 2|G|(2r-1)^L with r = 2, L = 1


def test_readable_words_periodic_cycle_word_deficit():
    # The cycle labeled x1 x2 x1 x2 has 2|G| reduced paths of each length
    # but the period halves the number of distinct labels.
    g = labeled_cycle([1, 2, 1, 2])
    for L in (1, 2, 3):
        rc = readable_words(g, L)
        assert rc.paths == 8 and rc.words == 4


def test_readable_counts_match_dfs_oracle():
    for g in enumerate_reduced_graphs(2, 3, 3):
        for L in (1, 2, 3, 4):
            paths = dfs_reduced_paths(g, L)
            rc = readable_words(g, L)
            assert rc.paths == len(paths)
            assert rc.words == len(set(paths))
            assert {w.letters for w in iter_readable_words(g, L)} == set(paths)


def test_is_readable():
    g = figure_eight()
    assert is_readable(g, Word((1, 2, -1)))
    assert is_readable(g, Word(()))
    assert not is_readable(LabeledGraph(1, [(0, 0, 1)]), Word((2,)))


def test_out_map_is_built_once_per_graph():
    g = figure_eight()
    assert g.out_map() == {(0, 1): 0, (0, -1): 0, (0, 2): 0, (0, -2): 0}
    assert g.out_map() is g.out_map()
    # Two darts of label 1 leave vertex 0.
    assert LabeledGraph(2, [(0, 1, 1), (0, 0, 1)]).out_map() is None


def test_reduced_loops_enumeration():
    loops = {w.text() for w in iter_reduced_loops(figure_eight(), 2)}
    assert "a" in loops and "ab" in loops and "aA" not in loops
    assert len(loops) == 4 + 4 * 3


def test_topological_types():
    assert len(enumerate_topological_types(1)) == 1
    types2 = enumerate_topological_types(2)
    assert len(types2) == 3
    signatures = {(t.num_vertices, t.num_edges) for t in types2}
    assert signatures == {(1, 2), (2, 3)}  # figure-eight; theta and dumbbell
    types3 = enumerate_topological_types(3)
    assert len(types3) <= 6 ** 18
    for t in types3:
        degs = [0] * t.num_vertices
        for (u, w) in t.edge_multiset:
            degs[u] += 2 if u == w else 1
            if u != w:
                degs[w] += 1
        assert all(d >= 3 for d in degs)
        assert len(t.edge_multiset) - t.num_vertices + 1 == 3
    with pytest.raises(FeasibilityError):
        enumerate_topological_types(5)


def brute_types_r2():
    # Multigraphs with b1 = 2, min degree 3: v vertices, v+1 edges, v <= 2.
    found = set()
    for v in (1, 2):
        slots = [(a, b) for a in range(v) for b in range(a, v)]
        e = v + 1
        for combo in product(range(e + 1), repeat=len(slots)):
            if sum(combo) != e:
                continue
            edges = []
            degs = [0] * v
            for mult, (a, b) in zip(combo, slots):
                edges += [(a, b)] * mult
                degs[a] += mult * (2 if a == b else 1)
                if a != b:
                    degs[b] += mult
            if any(d < 3 for d in degs):
                continue
            if v == 2 and not any(a != b for (a, b) in edges):
                continue  # disconnected
            keys = set()
            for perm in ([0], [0, 1], [1, 0])[:1] if v == 1 else ([0, 1], [1, 0]):
                keys.add(tuple(sorted(tuple(sorted((perm[a], perm[b])))
                                      for (a, b) in edges)))
            found.add((v, min(keys)))
    return found


def test_types_r2_against_independent_brute_force():
    assert len(brute_types_r2()) == len(enumerate_topological_types(2)) == 3


def test_enumerate_reduced_graphs_single_edge():
    graphs = list(enumerate_reduced_graphs(2, 1, 1))
    assert len(graphs) == 2  # a loop labeled x1 or x2, orientations identified


def test_enumerate_reduced_graphs_properties():
    seen = set()
    for g in enumerate_reduced_graphs(2, 4, 3):
        assert is_reduced_graph(g) and is_connected(g)
        assert 1 <= betti(g) <= 3 and g.num_edges <= 4
        code = canonical_code(g)
        assert code not in seen
        seen.add(code)


def test_enumeration_guard():
    with pytest.raises(FeasibilityError):
        list(enumerate_reduced_graphs(2, 13, 3))


def test_graph_text_roundtrip():
    g = theta()
    g2 = graph_from_text(graph_to_text(g))
    assert graphs_isomorphic(g, g2)
    text = "V 2\nB 1\nE 0 1 a\nE 1 0 b\n"
    g3 = graph_from_text(text)
    assert g3.base == 1 and g3.num_edges == 2
    assert graph_to_text(g3) == text


def test_fold_does_not_raise_betti():
    rng = random.Random(77)
    for _ in range(25):
        words = [[rng.choice([-2, -1, 1, 2]) for _ in range(rng.randrange(1, 7))]
                 for _ in range(rng.randrange(1, 4))]
        folded = fold(wedge_of_words(words))
        if folded.num_edges:
            assert betti(folded) <= len(words)


def test_enumeration_count_reported_against_labeling_bound():
    # The coarse labeling-space bound is reported for context; at small
    # sizes the enumeration is the ground truth.
    for max_edges in (2, 4, 6):
        count = sum(1 for _ in enumerate_reduced_graphs(2, max_edges, 3))
        bound = 3 ** max_edges * max_edges ** 9
        print(f"reduced graphs m=2 <= {max_edges} edges: {count} "
              f"(labeling bound {bound})")
        assert count <= bound
