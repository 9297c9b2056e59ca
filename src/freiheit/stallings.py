"""X-labeled graphs (Stallings graphs) and their folding machinery.

A labeled graph carries one record per undirected edge: (src, dst, letter),
with the inverse dart (dst, src, -letter) implicit.  A graph is *reduced*
when no two darts with the same label leave one vertex and no vertex has
degree 1; reduced graphs are label-deterministic, which makes readability
checks and canonical codes cheap.

A label-deterministic graph reads a word along at most one path from each
vertex, and distinct starts end at distinct vertices, so every reader here
reads words by the set of vertices reached (``_read``).

Folding is one worklist pass over the darts: a dart whose label already
leaves its tail's class merges the classes of the two heads, and the darts
of the merged-away class go back on the worklist.  Pruning then removes
degree-1 vertices from a stack of leaves.  The result is independent of the
worklist order; the test suite asserts this confluence rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FeasibilityError, MalformedWordError
from .seeds import as_rng
from .words import (Word, as_word, canonical_cyclic, char_to_letter, letter_to_char,
                    reduced_words)

MAX_ENUMERATION_EDGES = 12
LABELING_SPACE_LIMIT = 200_000_000


class LabeledGraph:
    """Immutable-by-convention labeled multigraph with an optional base vertex.

    Darts 2e and 2e+1 are the two orientations of edge e, read off ``edges``."""

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

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return f"LabeledGraph(V={self.num_vertices}, E={self.num_edges}, base={self.base})"

    @cached_property
    def _vertex_darts(self) -> list[list[int]]:
        darts: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e, (u, v, _) in enumerate(self.edges):
            darts[u].append(2 * e)
            darts[v].append(2 * e + 1)
        return darts

    def darts_at(self, v: int) -> list[int]:
        return self._vertex_darts[v]

    def dart_head(self, d: int) -> int:
        u, v, _ = self.edges[d >> 1]
        return u if d & 1 else v

    def dart_label(self, d: int) -> int:
        a = self.edges[d >> 1][2]
        return -a if d & 1 else a

    def degree(self, v: int) -> int:
        return len(self._vertex_darts[v])

    @cached_property
    def _out_map(self) -> dict[tuple[int, int], int] | None:
        out: dict[tuple[int, int], int] = {}
        for (u, v, a) in self.edges:
            for key, head in (((u, a), v), ((v, -a), u)):
                if key in out:
                    return None
                out[key] = head
        return out

    def out_map(self) -> dict[tuple[int, int], int] | None:
        """(vertex, letter) -> head vertex, or None if not label-deterministic.

        Built on the first call; every call returns that same dict, shared
        by all callers, so none may mutate it."""
        return self._out_map


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_connected(g: LabeledGraph) -> bool:
    parent = list(range(g.num_vertices))
    parts = g.num_vertices
    for (u, v, _) in g.edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            parts -= 1
    return parts == 1


def betti(g: LabeledGraph) -> int:
    """First Betti number |edges| - |vertices| + 1 of a connected graph."""
    if not is_connected(g):
        raise DomainError("Betti number is defined here for connected graphs only")
    return g.num_edges - g.num_vertices + 1


def is_reduced_graph(g: LabeledGraph) -> bool:
    return g.out_map() is not None and all(g.degree(v) != 1 for v in range(g.num_vertices))


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


def fold(g: LabeledGraph, seed_or_rng=None, with_conjugator: bool = False):
    """Fold to a reduced graph (or a single vertex).

    Each class root keeps a dict from letter to head; a merge keeps the
    smaller id as the root.  A generator shuffles the worklist; the outcome
    is the same graph for every order (confluence).

    Pruning a degree-1 base re-roots it along the pruned edge, which
    conjugates the base loop language; with ``with_conjugator`` the result
    is (graph, c) where c is the label word of the pruned path, so loops w
    at the old base correspond to c^-1 w c at the new one.  On a graph that
    folds to a point every loop is trivial, and c depends on the order.
    """
    if not is_connected(g):
        raise DomainError("fold expects a connected graph")
    parent = list(range(g.num_vertices))
    out: list[dict[int, int]] = [{} for _ in range(g.num_vertices)]
    work = [dart for (u, v, a) in g.edges for dart in ((u, a, v), (v, -a, u))]
    if seed_or_rng is not None:
        as_rng(seed_or_rng).shuffle(work)
    while work:
        u, a, v = work.pop()
        u, v = _find(parent, u), _find(parent, v)
        h = _find(parent, out[u].setdefault(a, v))
        if h != v:
            keep, gone = min(h, v), max(h, v)
            parent[gone] = keep
            work += [(keep, x, t) for x, t in out[gone].items()]
            out[gone] = {}

    # Heads at their roots; prune degree-1 vertices, re-rooting a pruned base.
    out = [{a: _find(parent, h) for a, h in d.items()} for d in out]
    base = _find(parent, g.base)
    conjugator: list[int] = []
    leaves = [u for u, d in enumerate(out) if len(d) == 1]
    while leaves:
        leaf = leaves.pop()
        if len(out[leaf]) != 1:
            continue
        ((a, h),) = out[leaf].items()
        out[leaf].clear()
        del out[h][-a]
        if base == leaf:
            base = h
            conjugator.append(a)
        if len(out[h]) == 1:
            leaves.append(h)

    used = [u for u, d in enumerate(out) if d] or [base]
    remap = {v: i for i, v in enumerate(used)}
    edges = sorted((u, v, a) for u, d in enumerate(out) for a, v in d.items()
                   if v > u or (v == u and a > 0))
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


def enumerate_topological_types(r: int) -> list[TopologicalType]:
    """All homeomorphism types of finite connected graphs with b1 = r and no
    degree-1 vertices (no degree-2 vertices either, except the circle).

    Orderly generation: candidates come in ascending lex order of their
    sorted edge tuples, so the first member of each isomorphism class is its
    least relabelling, the type's canonical form; its relabellings then mark
    the rest of the class seen.  The list comes out sorted by vertex count,
    then edge multiset."""
    if r < 1:
        raise DomainError("r must be >= 1")
    if r > 4:
        raise FeasibilityError(f"topological type enumeration capped at r = 4, got {r}")
    if r == 1:
        return [TopologicalType(1, ((0, 0),))]

    found: list[TopologicalType] = []
    for v in range(1, 2 * (r - 1) + 1):
        e = v + r - 1
        slots = [(u, w) for u in range(v) for w in range(u, v)]
        seen: set[tuple[tuple[int, int], ...]] = set()

        def rec(i: int, remaining: int, degs: list[int], chosen: list[tuple[int, int]]):
            if i == len(slots):
                edges = tuple(chosen)
                if remaining or edges in seen:
                    return
                seen.update(tuple(sorted(tuple(sorted((p[a], p[b]))) for (a, b) in edges))
                            for p in permutations(range(v)))
                if is_connected(LabeledGraph(v, [(a, b, 1) for (a, b) in edges])):
                    found.append(TopologicalType(v, edges))
                return
            u, w = slots[i]
            # More copies of a slot first: ascending lex order of the edges.
            for mult in range(remaining, -1, -1):
                degs[u] += mult
                degs[w] += mult
                # Degrees end >= 3 and sum to 2e, so none exceeds 2r + 1 - v.
                # Slot (u, v - 1) is u's last: no later slot touches u, so
                # its degree is final there and must be at least 3.
                if max(degs[u], degs[w]) <= 2 * r + 1 - v and (w < v - 1 or degs[u] >= 3):
                    rec(i + 1, remaining - mult, degs, chosen + [(u, w)] * mult)
                degs[u] -= mult
                degs[w] -= mult

        rec(0, e, [0] * v, [])
    return found


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
    out_labels: list[list[int]] = [[] for _ in range(v)]
    for (u, w), word in zip(ttype.edge_multiset, arc_words):
        out_labels[u].append(word[0])
        out_labels[w].append(-word[-1])
    for labels in out_labels:
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
    # A graph of rank r has at least r edges.  The types come first, so the
    # rank cap refuses before any graph is listed.
    types = [t for r in range(2, min(max_betti, max_edges) + 1)
             for t in enumerate_topological_types(r)]

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
    descending: dict[int, list[tuple[int, ...]]] = {}
    for ttype in types:
        for total in range(ttype.num_edges, max_edges + 1):
            for comp in _compositions(total, ttype.num_edges):
                for n in comp:
                    if n not in descending:
                        descending[n] = list(reduced_words(m, n))[::-1]
                # Labelings in descending lex order of the arc words,
                # the order `stallings enumerate` prints.
                for chosen in product(*(descending[n] for n in comp)):
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
