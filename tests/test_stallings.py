import hashlib
import random
from itertools import combinations_with_replacement, permutations

import pytest

from freiheit import stallings
from freiheit.errors import DomainError, FeasibilityError
from freiheit.stallings import (GraphStats, LabeledGraph, betti, canonical_code,
                                enumerate_reduced_graphs, enumerate_topological_types,
                                fold, graph_from_text, graph_stats, graph_to_text,
                                is_connected, is_readable, is_reduced_graph,
                                iter_reduced_loops, readable_words, wedge_of_words)
from freiheit.words import Word, free_reduce

from oracles import arc_walk_stats, brute_reduced_words, dfs_reduced_paths, union_find_fold


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
    assert canonical_code(fold(reduced)) == canonical_code(reduced)


def _random_wedge(rng):
    words = []
    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(1, 8)
        words.append([rng.choice([-2, -1, 1, 2]) for _ in range(length)])
    return wedge_of_words(words)


def _fold_corpus():
    """300 seeded connected graphs over two or three letters, each with a
    random base: random multigraphs (a random spanning tree and up to four
    more edges, loops among them) alternating with wedges of up to three
    words."""
    rng = random.Random(28)
    graphs = []
    for i in range(300):
        m = rng.choice((2, 3))
        letters = [x for x in range(-m, m + 1) if x]
        if i % 2:
            g = wedge_of_words([[rng.choice(letters) for _ in range(rng.randrange(1, 8))]
                                for _ in range(rng.randrange(1, 4))])
            n, edges = g.num_vertices, g.edges
        else:
            n = rng.randrange(1, 8)
            edges = [(v, rng.randrange(v), rng.choice(letters)) for v in range(1, n)]
            edges += [(rng.randrange(n), rng.randrange(n), rng.choice(letters))
                      for _ in range(rng.randrange(5))]
            rng.shuffle(edges)
        graphs.append(LabeledGraph(n, edges, base=rng.randrange(n)))
    return graphs


@pytest.mark.parametrize("order", [None, 1, 2])
def test_fold_output_is_pinned(order):
    # The text pins the vertex numbering and the base, which canonical_code
    # ignores, in the default order and in two shuffled ones. The conjugator
    # is pinned wherever an edge remains: on a point every loop is trivial,
    # so every path to the point's base conjugates correctly.
    digest = hashlib.sha256()
    points = 0
    for g in _fold_corpus():
        folded, c = fold(g, None if order is None else random.Random(order),
                         with_conjugator=True)
        points += folded.num_edges == 0
        tail = repr(c.letters) if folded.num_edges else ""
        digest.update(f"{graph_to_text(folded)}{tail}\n".encode())
    assert points == 34
    assert digest.hexdigest() == \
        "a8108ac18de0bba64fb0826822609557998f51993330ac269a3ae2e14da66c26"


def test_fold_matches_union_find_oracle():
    # The text holds the vertex numbering and the base, which canonical_code
    # ignores.
    rng = random.Random(99)
    for g in [*(_random_wedge(rng) for _ in range(60)), *_fold_corpus()]:
        assert graph_to_text(fold(g)) == graph_to_text(union_find_fold(g))


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


def _subdivided(ttype, lengths):
    """The type's graph with edge i subdivided into a path of lengths[i] edges."""
    n = ttype.num_vertices
    edges = []
    for (u, w), k in zip(ttype.edge_multiset, lengths):
        path = [u, *range(n, n + k - 1), w]
        n += k - 1
        edges += [(a, b, 1) for a, b in zip(path, path[1:])]
    return LabeledGraph(n, edges)


def test_graph_stats_matches_the_arc_walk():
    rng = random.Random(11)
    wedges = [fold(wedge_of_words([[rng.choice([-3, -2, -1, 1, 2, 3])
                                    for _ in range(rng.randrange(1, 7))]
                                   for _ in range(rng.randrange(1, 5))]))
              for _ in range(60)]
    wedges = [g for g in wedges if g.num_edges]
    assert sum(graph_stats(g).degree3plus > 0 for g in wedges) >= 20
    for g in wedges:
        assert graph_stats(g) == arc_walk_stats(g)
    # Every type of rank 2 and 3 (loops at branch vertices among them), its
    # edges subdivided into arcs of up to 5 edges: the branch vertices and
    # arcs are the type's vertices and edges.
    for ttype in enumerate_topological_types(2) + enumerate_topological_types(3):
        for _ in range(4):
            g = _subdivided(ttype, [rng.randrange(1, 6) for _ in ttype.edge_multiset])
            assert graph_stats(g) == arc_walk_stats(g) == GraphStats(
                ttype.num_vertices, ttype.num_edges)


def test_readable_words_loop_exact():
    loop = LabeledGraph(1, [(0, 0, 1)])
    for L in (1, 2, 5):
        rc = readable_words(loop, L)
        assert rc.paths == 2 and rc.words == 2


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


def _readable_family():
    """Reduced graphs, folded random wedges at m = 3 (with several vertices
    and reads that depend on the start), a lollipop (a loop at the end of a
    stick, so one vertex of degree 1) and a disconnected graph."""
    rng = random.Random(31)
    wedges = [fold(wedge_of_words([[rng.choice([-3, -2, -1, 1, 2, 3])
                                    for _ in range(rng.randrange(1, 6))]
                                   for _ in range(rng.randrange(1, 4))]))
              for _ in range(30)]
    lollipop = LabeledGraph(3, [(0, 1, 1), (1, 2, 2), (2, 2, 3)])
    disconnected = LabeledGraph(4, [(0, 1, 1), (1, 0, 2), (2, 2, 1), (3, 3, 1)])
    return [*enumerate_reduced_graphs(2, 3, 3), *wedges, lollipop, disconnected]


def test_readable_counts_match_dfs_oracle():
    graphs = _readable_family()
    assert sum(g.num_vertices > 1 for g in graphs) > 20
    for g in graphs:
        for L in range(1, 7):
            paths = dfs_reduced_paths(g, L)
            rc = readable_words(g, L)
            readable = set(paths)
            assert rc.paths == len(paths)
            assert rc.words == len(readable)
            if L <= 3:
                for word in brute_reduced_words(3, L):
                    assert is_readable(g, Word(word)) == (word in readable)


def test_readers_refuse_a_graph_that_is_not_label_deterministic():
    # Two darts labeled a leave vertex 0.
    g = LabeledGraph(2, [(0, 1, 1), (0, 0, 1)])
    with pytest.raises(DomainError):
        readable_words(g, 2)
    with pytest.raises(DomainError):
        is_readable(g, Word((1,)))


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


def _relabelled(edges, perm):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for (a, b) in edges))


def brute_types(r):
    """Multigraphs with b1 = r and min degree 3 (v <= 2(r-1) vertices, v+r-1
    edges), connected, each as the least relabelling over all vertex
    permutations."""
    found = set()
    for v in range(1, 2 * (r - 1) + 1):
        slots = [(a, b) for a in range(v) for b in range(a, v)]
        for edges in combinations_with_replacement(slots, v + r - 1):
            degs = [0] * v
            for (a, b) in edges:
                degs[a] += 1
                degs[b] += 1
            reach = {0}
            for _ in range(v):
                reach |= {x for (a, b) in edges if reach & {a, b} for x in (a, b)}
            if min(degs) < 3 or len(reach) < v:
                continue
            found.add((v, min(_relabelled(edges, perm) for perm in permutations(range(v)))))
    return found


@pytest.mark.parametrize("r", [2, 3])
def test_types_against_independent_brute_force(r):
    types = enumerate_topological_types(r)
    assert len(types) == {2: 3, 3: 15}[r]
    assert {(t.num_vertices, t.edge_multiset) for t in types} == brute_types(r)
    # Each type is the least of its relabellings: the first member of its
    # class in the search's lex order.
    for t in types:
        assert t.edge_multiset == min(_relabelled(t.edge_multiset, perm)
                                      for perm in permutations(range(t.num_vertices)))


TYPE_PINS = {1: (1, "53df2ed2441d06e6b2c0e25edff8942e63e795436fe9f70d73845be8e29dcac2"),
             2: (3, "e61b4bee8e5550843e00805916d7dcff48423c1fe71977a803cae7c3b219f8a4"),
             3: (15, "1011f2f8b54d96f3a354cbe6e16119a57a30c2e3ea8594b9b8bb8c7561039d23"),
             4: (111, "031d8966ade54addce27a9b58d1de9e1f42b575c7bce987231ad1587bc022106")}


@pytest.mark.parametrize("r", sorted(TYPE_PINS))
def test_topological_types_are_pinned(r):
    types = enumerate_topological_types(r)
    assert (len(types), hashlib.sha256(repr(types).encode()).hexdigest()) == TYPE_PINS[r]


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


def test_enumerate_reduced_graphs_needs_two_generators(monkeypatch):
    def no_words(*args):
        raise AssertionError("a word was listed")

    monkeypatch.setattr(stallings, "reduced_words", no_words)
    for m in (1, 0, -2):
        with pytest.raises(DomainError, match=f"need m >= 2, got m={m}"):
            list(enumerate_reduced_graphs(m, 3, 2))


def test_enumeration_guard():
    with pytest.raises(FeasibilityError):
        list(enumerate_reduced_graphs(2, 13, 3))


def test_graph_text_roundtrip():
    g = theta()
    g2 = graph_from_text(graph_to_text(g))
    assert canonical_code(g) == canonical_code(g2)
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
