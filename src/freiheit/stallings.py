"""X-labeled graphs (Stallings graphs) and their folding machinery.

A labeled graph carries one record per undirected edge: (src, dst, letter),
with the inverse dart (dst, src, -letter) implicit.  A graph is *reduced*
when no two darts with the same label leave one vertex and no vertex has
degree 1; reduced graphs are label-deterministic, which makes readability
checks and canonical codes cheap.

A label-deterministic graph reads a word along at most one path from each
vertex, and distinct starts end at distinct vertices, so every reader here
reads words by the set of vertices reached (``_read``).

Folding repeatedly merges the endpoints of same-label darts leaving a common
vertex and prunes degree-1 vertices.  The result is independent of the fold
order; the test suite asserts this confluence rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FeasibilityError, MalformedWordError
from .seeds import as_rng
from .words import (Word, as_word, canonical_cyclic, char_to_letter, letter_to_char,
                    reduced_words)

MAX_ENUMERATION_EDGES = 12
LABELING_SPACE_LIMIT = 200_000_000

_UNBUILT = object()


class LabeledGraph:
    """Immutable-by-convention labeled multigraph with an optional base vertex."""

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int, int]], base: int = 0):
        self.num_vertices = int(num_vertices)
        self.edges = tuple((int(u), int(v), int(a)) for (u, v, a) in edges)
        self.base = int(base)
        if self.num_vertices < 1:
            raise DomainError("graph needs at least one vertex")
        if not 0 <= self.base < self.num_vertices:
            raise DomainError(f"base vertex {self.base} out of range")
        for (u, v, a) in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise DomainError(f"edge ({u},{v}) out of range")
            if a == 0:
                raise MalformedWordError("edge labels are nonzero signed ints")
        # darts 2e, 2e+1 are the two orientations of edge e
        self._dart_tail: list[int] = []
        self._dart_head: list[int] = []
        self._dart_label: list[int] = []
        for (u, v, a) in self.edges:
            self._dart_tail += [u, v]
            self._dart_head += [v, u]
            self._dart_label += [a, -a]
        self._out: dict[int, list[int]] = {v: [] for v in range(self.num_vertices)}
        for d in range(len(self._dart_tail)):
            self._out[self._dart_tail[d]].append(d)
        self._out_map = _UNBUILT

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"LabeledGraph(V={self.num_vertices}, E={self.num_edges}, base={self.base})"

    def darts_at(self, v: int) -> list[int]:
        return self._out[v]

    def dart_head(self, d: int) -> int:
        return self._dart_head[d]

    def dart_label(self, d: int) -> int:
        return self._dart_label[d]

    def degree(self, v: int) -> int:
        return len(self._out[v])

    def out_map(self) -> dict[tuple[int, int], int] | None:
        """(vertex, letter) -> head vertex, or None if not label-deterministic.

        Built on the first call; every call returns that same dict, shared
        by all callers, so none may mutate it."""
        if self._out_map is _UNBUILT:
            out: dict[tuple[int, int], int] | None = {}
            for d in range(2 * self.num_edges):
                key = (self._dart_tail[d], self._dart_label[d])
                if key in out:
                    out = None
                    break
                out[key] = self._dart_head[d]
            self._out_map = out
        return self._out_map


def is_connected(g: LabeledGraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for d in g.darts_at(v):
            h = g.dart_head(d)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return len(seen) == g.num_vertices


def betti(g: LabeledGraph) -> int:
    """First Betti number |edges| - |vertices| + 1 of a connected graph."""
    if not is_connected(g):
        raise DomainError("Betti number is defined here for connected graphs only")
    return g.num_edges - g.num_vertices + 1


def is_reduced_graph(g: LabeledGraph) -> bool:
    if g.out_map() is None:
        return False
    return all(g.degree(v) != 1 for v in range(g.num_vertices))


def wedge_of_words(ws: Sequence[Word | Iterable[int]]) -> LabeledGraph:
    """One base vertex with one simple labeled cycle per word."""
    words = [as_word(w).letters for w in ws]
    if any(len(w) == 0 for w in words):
        raise DomainError("wedge words must be nonempty")
    return LabeledGraph(*_subdivided_arcs(1, [(0, 0)] * len(words), words), base=0)


def _subdivided_arcs(n: int, ends: Sequence[tuple[int, int]],
                     words: Sequence[tuple[int, ...]]) -> tuple[int, list]:
    """Vertex count and edges after each arc (u, w) of a graph on n vertices
    becomes a path from u to w spelling its word, through new vertices."""
    edges: list[tuple[int, int, int]] = []
    for (u, w), word in zip(ends, words):
        prev = u
        for x in word[:-1]:
            edges.append((prev, n, x))
            prev = n
            n += 1
        edges.append((prev, w, word[-1]))
    return n, edges


# ---------------------------------------------------------------------------
# Folding.


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def fold(g: LabeledGraph, seed_or_rng=None, with_conjugator: bool = False):
    """Fold to a reduced graph (or a single vertex).

    When a generator is supplied the foldable pair processed at each round is
    chosen at random; the outcome is the same graph up to isomorphism for
    every order (confluence).

    Pruning a degree-1 base re-roots it along the pruned edge, which
    conjugates the base loop language; with ``with_conjugator`` the result
    is (graph, c) where c is the label word of the pruned path, so loops w
    at the old base correspond to c^-1 w c at the new one.
    """
    if not is_connected(g):
        raise DomainError("fold expects a connected graph")
    rng = None if seed_or_rng is None else as_rng(seed_or_rng)
    parent = list(range(g.num_vertices))
    edges = list(g.edges)

    while True:
        # Normalize endpoints and merge parallel identical edges (a fold move).
        norm = set()
        for (u, v, a) in edges:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru > rv or (ru == rv and a < 0):
                ru, rv, a = rv, ru, -a
            norm.add((ru, rv, a))
        edges = sorted(norm)
        # Find darts sharing (tail, label).
        first: dict[tuple[int, int], int] = {}
        conflicts = []
        for (u, v, a) in edges:
            for (src, dst, letter) in ((u, v, a), (v, u, -a)):
                key = (src, letter)
                if key in first:
                    conflicts.append((first[key], dst))
                else:
                    first[key] = dst
        if not conflicts:
            break
        t1, t2 = conflicts[0] if rng is None else rng.choice(conflicts)
        r1, r2 = _find(parent, t1), _find(parent, t2)
        if r1 != r2:
            parent[max(r1, r2)] = min(r1, r2)
        # If r1 == r2 the duplicate edge is removed by the next normalization.

    base = _find(parent, g.base)
    conjugator: list[int] = []
    # Prune degree-1 vertices; re-root the base if it is pruned.
    while True:
        deg: dict[int, int] = {}
        for (u, v, a) in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        leaves = [v for v, d in deg.items() if d == 1]
        if not leaves:
            break
        leaf = leaves[0]
        keep = []
        for (u, v, a) in edges:
            if u == leaf or v == leaf:
                if base == leaf:
                    base = v if u == leaf else u
                    conjugator.append(a if u == leaf else -a)
            else:
                keep.append((u, v, a))
        edges = keep

    if not edges:
        folded = LabeledGraph(1, (), base=0)
        return (folded, Word(tuple(conjugator))) if with_conjugator else folded
    used = sorted({u for (u, v, _) in edges} | {v for (u, v, _) in edges})
    remap = {v: i for i, v in enumerate(used)}
    if base not in remap:
        base = used[0]
    folded = LabeledGraph(len(used), [(remap[u], remap[v], a) for (u, v, a) in edges],
                          base=remap[base])
    return (folded, Word(tuple(conjugator))) if with_conjugator else folded


# ---------------------------------------------------------------------------
# Canonical form for label-deterministic graphs.


def canonical_code(g: LabeledGraph):
    """Minimum label-driven BFS code over all start vertices.

    Defined for label-deterministic (in particular reduced) connected graphs;
    the base vertex is ignored, matching conjugacy-class semantics.
    """
    if not is_connected(g):
        raise DomainError("canonical code requires a connected graph")
    out = g.out_map()
    if out is None:
        raise DomainError("canonical code requires a label-deterministic graph")
    by_vertex: dict[int, list[int]] = {v: [] for v in range(g.num_vertices)}
    for (v, letter) in sorted(out):
        by_vertex[v].append(letter)

    best = None
    for start in range(g.num_vertices):
        idmap = {start: 0}
        order = [start]
        rows = []
        for v in order:
            row = []
            for letter in by_vertex[v]:
                t = out[(v, letter)]
                if t not in idmap:
                    idmap[t] = len(order)
                    order.append(t)
                row.append((letter, idmap[t]))
            rows.append(tuple(row))
        code = tuple(rows)
        if best is None or code < best:
            best = code
    return best


# ---------------------------------------------------------------------------
# Structure statistics (degree-3 vertices and maximal arcs).


@dataclass(frozen=True)
class GraphStats:
    degree3plus: int
    maximal_arcs: int


def graph_stats(g: LabeledGraph) -> GraphStats:
    """Count branch vertices and maximal arcs of a connected graph with no
    degree-1 vertices; (0, 0) for a simple cycle.

    For b1 = r >= 2 the counts are asserted against the Euler-characteristic
    bounds 2(r-1) and 3(r-1); a violation means a bug, not bad data.
    """
    if not is_connected(g):
        raise DomainError("graph_stats expects a connected graph")
    degs = [g.degree(v) for v in range(g.num_vertices)]
    if any(d <= 1 for d in degs):
        raise DomainError("graph_stats expects no vertices of degree 0 or 1")
    branch = [v for v in range(g.num_vertices) if degs[v] >= 3]
    # Every dart at a branch vertex starts one maximal arc, which runs
    # through degree-2 vertices to a branch vertex: one count per arc end.
    arcs = sum(degs[v] for v in branch) // 2
    r = betti(g)
    if len(branch) > 2 * (r - 1) or arcs > 3 * (r - 1):
        raise AssertionError("structure bounds violated; folding or counting bug")
    return GraphStats(len(branch), arcs)


# ---------------------------------------------------------------------------
# Readable words.


@dataclass(frozen=True)
class ReadableCount:
    """Reduced paths of length L and the distinct words they spell."""

    paths: int
    words: int


def _read(out: dict[tuple[int, int], int], heads, x: int) -> frozenset[int]:
    """The vertices that a dart labeled x leads to from ``heads``."""
    return frozenset([h for v in heads if (h := out.get((v, x))) is not None])


def readable_words(g: LabeledGraph, length: int) -> ReadableCount:
    """Count reduced paths of exactly ``length`` and their distinct labels.

    The path count is the quantity bounded by 2|G|(2r-1)^L; on a simple cycle
    it is exactly 2|G| for every L >= 1 because the first dart determines the
    path.  Words are counted by the vertex sets that read them, a subset
    construction over (last letter, vertex set) states from the empty word
    (last letter 0, every vertex); each vertex of a set ends one path.
    """
    if length < 1:
        raise DomainError("length must be >= 1")
    out = g.out_map()
    if out is None:
        raise DomainError("word counting requires a label-deterministic graph")
    letters = sorted({x for (_, x) in out})
    states = {(0, frozenset(range(g.num_vertices))): 1}
    for _ in range(length):
        nxt: dict[tuple[int, frozenset[int]], int] = {}
        for (last, heads), c in states.items():
            for x in letters:
                if x != -last:
                    ends = _read(out, heads, x)
                    if ends:
                        nxt[x, ends] = nxt.get((x, ends), 0) + c
        states = nxt
    return ReadableCount(sum(c * len(ends) for (_, ends), c in states.items()),
                         sum(states.values()))


def longest_readable_prefix(g: LabeledGraph, letters: Sequence[int]) -> int:
    """Length of the longest prefix of ``letters`` that some path of g
    spells; g must be label-deterministic."""
    out = g.out_map()
    if out is None:
        raise DomainError("reading words requires a label-deterministic graph")
    heads = range(g.num_vertices)
    for t, x in enumerate(letters):
        heads = _read(out, heads, x)
        if not heads:
            return t
    return len(letters)


def is_readable(g: LabeledGraph, w: Word | Iterable[int]) -> bool:
    """Whether some path of g spells w; g must be label-deterministic."""
    word = as_word(w)
    return longest_readable_prefix(g, word.letters) == len(word)


def iter_reduced_loops(g: LabeledGraph, max_length: int) -> Iterator[Word]:
    """Distinct labels of reduced loops at the base vertex, lengths 1..max_length."""
    seen: set[tuple[int, ...]] = set()
    stack = [(g.base, None, ())]
    while stack:
        v, came, prefix = stack.pop()
        for d in g.darts_at(v):
            if came is not None and d == (came ^ 1):
                continue
            word = prefix + (g.dart_label(d),)
            h = g.dart_head(d)
            if h == g.base and word not in seen:
                seen.add(word)
                yield Word(word)
            if len(word) < max_length:
                stack.append((h, d, word))


# ---------------------------------------------------------------------------
# Topological types: connected graphs with min degree 3 (plus the circle).


@dataclass(frozen=True)
class TopologicalType:
    """A homeomorphism type: vertex count and an edge multiset (loops allowed).

    The circle (r = 1) is represented as one vertex with one loop; it is the
    single type whose representative has a degree-2 vertex after subdivision.
    """

    num_vertices: int
    edge_multiset: tuple[tuple[int, int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edge_multiset)


def _type_canonical(v: int, edges: tuple[tuple[int, int], ...]):
    from itertools import permutations

    best = None
    for perm in permutations(range(v)):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[w]))) for (u, w) in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def enumerate_topological_types(r: int) -> list[TopologicalType]:
    """All homeomorphism types of finite connected graphs with b1 = r and no
    degree-1 vertices (no degree-2 vertices either, except the circle)."""
    if r < 1:
        raise DomainError("r must be >= 1")
    if r > 4:
        raise FeasibilityError(f"topological type enumeration capped at r = 4, got {r}")
    if r == 1:
        return [TopologicalType(1, ((0, 0),))]

    found: dict[tuple, TopologicalType] = {}
    for v in range(1, 2 * (r - 1) + 1):
        e = v + r - 1
        slots = [(u, w) for u in range(v) for w in range(u, v)]

        def rec(i: int, remaining: int, degs: list[int], chosen: list[tuple[int, int]]):
            if i == len(slots):
                edges = tuple(chosen)
                if remaining or not is_connected(
                        LabeledGraph(v, [(a, b, 1) for (a, b) in edges])):
                    return
                key = (v, _type_canonical(v, edges))
                if key not in found:
                    found[key] = TopologicalType(v, key[1])
                return
            u, w = slots[i]
            for mult in range(remaining + 1):
                degs[u] += mult * (2 if u == w else 1)
                if u != w:
                    degs[w] += mult
                # Slot (u, v - 1) is u's last: no later slot touches u, so
                # its degree is final there and must be at least 3.
                if w < v - 1 or degs[u] >= 3:
                    rec(i + 1, remaining - mult, degs, chosen + [(u, w)] * mult)
                degs[u] -= mult * (2 if u == w else 1)
                if u != w:
                    degs[w] -= mult

        rec(0, e, [0] * v, [])
    return sorted(found.values(), key=lambda t: (t.num_vertices, t.edge_multiset))


# ---------------------------------------------------------------------------
# Exhaustive generation of reduced labeled graphs.


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _graph_from_arc_words(ttype: TopologicalType,
                          arc_words: Sequence[tuple[int, ...]]) -> LabeledGraph | None:
    """Subdivide each type edge into a labeled arc; None if not reduced."""
    v = ttype.num_vertices
    out_labels: dict[int, list[int]] = {x: [] for x in range(v)}
    for (u, w), word in zip(ttype.edge_multiset, arc_words):
        out_labels[u].append(word[0])
        out_labels[w].append(-word[-1])
    for labels in out_labels.values():
        if len(labels) != len(set(labels)):
            return None
    return LabeledGraph(*_subdivided_arcs(v, ttype.edge_multiset, arc_words), base=0)


def enumerate_reduced_graphs(m: int, max_edges: int,
                             max_betti: int) -> Iterator[LabeledGraph]:
    """All reduced connected X-labeled graphs with at most ``max_edges``
    undirected edges and b1 <= max_betti, one per labeled-isomorphism class.

    A cycle and its reversal (equivalently, relabeling every edge by its
    inverse) are one graph: the cycles are words up to rotation and
    inversion, and the graphs with b1 >= 2 are deduplicated by canonical
    code.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got m={m}")
    if max_edges > MAX_ENUMERATION_EDGES:
        raise FeasibilityError(
            f"reduced-graph enumeration capped at {MAX_ENUMERATION_EDGES} edges")
    if max_betti < 1:
        return
    est = (2 * m) ** max_edges
    if est > LABELING_SPACE_LIMIT:
        raise FeasibilityError(
            f"estimated labeling space {est:.3g} exceeds limit", estimate=est)

    # b1 = 1: simple labeled cycles, i.e. cyclically reduced words up to
    # rotation and inversion.
    for n in range(1, max_edges + 1):
        cycles = {canonical_cyclic(word).letters for word in reduced_words(m, n)
                  if word[0] != -word[-1]}
        for word in sorted(cycles):
            yield LabeledGraph(n, [(i, (i + 1) % n, x) for i, x in enumerate(word)], base=0)

    # b1 >= 2: every arc labelling of a type whose branch vertices see no
    # label twice is reduced, since arc words are reduced and every type
    # vertex has degree >= 3.
    seen: set = set()
    word_cache: dict[int, list[tuple[int, ...]]] = {}
    for r in range(2, max_betti + 1):
        for ttype in enumerate_topological_types(r):
            arcs = ttype.num_edges
            if arcs > max_edges:
                continue
            for total in range(arcs, max_edges + 1):
                for comp in _compositions(total, arcs):
                    pools = []
                    for length in comp:
                        if length not in word_cache:
                            word_cache[length] = list(reduced_words(m, length))
                        pools.append(word_cache[length])
                    # Labelings in descending lex order of the arc words,
                    # the order `stallings enumerate` prints.
                    for chosen in product(*(pool[::-1] for pool in pools)):
                        g = _graph_from_arc_words(ttype, chosen)
                        if g is not None:
                            code = canonical_code(g)
                            if code not in seen:
                                seen.add(code)
                                yield g


# ---------------------------------------------------------------------------
# Text format: `V n`, optional `B v`, then `E src dst label` lines.


def graph_to_text(g: LabeledGraph) -> str:
    lines = [f"V {g.num_vertices}"]
    if g.base != 0:
        lines.append(f"B {g.base}")
    for (u, v, a) in g.edges:
        lines.append(f"E {u} {v} {letter_to_char(a)}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> LabeledGraph:
    num = None
    base = 0
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *parts = line.split()
        arity = {"V": 1, "B": 1, "E": 3}.get(tag)
        if arity is None:
            raise DomainError(f"unrecognized graph line: {line!r}")
        if len(parts) != arity:
            raise DomainError(f"graph line {line!r} needs {arity} fields after {tag}")
        try:
            ints = [int(x) for x in parts[:2]]
        except ValueError:
            raise DomainError(f"graph line {line!r} has a non-integer field") from None
        if tag == "V":
            num = ints[0]
        elif tag == "B":
            base = ints[0]
        else:
            edges.append((ints[0], ints[1], char_to_letter(parts[2])))
    if num is None:
        raise DomainError("graph text missing 'V n' line")
    return LabeledGraph(num, edges, base=base)
