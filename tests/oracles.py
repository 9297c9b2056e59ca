"""Independent oracles the test suite checks the library against.

Everything here is deliberately written with different algorithms from the
production code: stack reduction instead of pointer scanning, exhaustive
search instead of transfer matrices, a dynamic program over end states
instead of closed-form counts, union-find folding instead of the
worklist, whole-word comparison instead of period arithmetic, a lookup of
every relator by canonical rotation instead of one pass with bigram keys,
every rewrite rule at every position instead of a letter index, every
root of a map encoded in full instead of only the least-reading ones,
every start vertex and subpath length instead of one read of a vertex set,
a walk along every maximal arc instead of a sum of branch-vertex degrees,
the whole product of the word pools labelled dart by dart instead of a join
along shared edges, every gluing built and then tested whole instead of
screened on its arc before it is built.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

from freiheit.complexes import PlanarComplex, mirror_complex
from freiheit.density import RelatorSet
from freiheit.diagrams import RewriteStep, TrivialityVerdict
from freiheit.errors import DomainError
from freiheit.experiments import TrivialityEvidence, TrivialityWitness
from freiheit.stallings import GraphStats, LabeledGraph
from freiheit.words import Word, as_word, cyclic_reduce_letters, min_cyclic_rotation


def stack_reduce(letters) -> tuple[int, ...]:
    """One-letter-at-a-time stack reducer."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def triple_concat_cyclic_reduce(letters) -> tuple[int, ...]:
    """Cyclic reduction via the middle period of the reduced triple w w w."""
    letters = tuple(letters)
    reduced = stack_reduce(letters)
    triple = stack_reduce(letters * 3)
    core_len = (len(triple) - len(reduced)) // 2
    if core_len == 0:
        # empty cyclic core: w freely reduces to the empty word
        return reduced
    wing = (len(reduced) - core_len) // 2
    return triple[wing + core_len: wing + 2 * core_len]


def brute_reduced_words(m: int, length: int) -> list[tuple[int, ...]]:
    letters = [x for x in range(-m, m + 1) if x != 0]
    out = []
    for tup in product(letters, repeat=length):
        if all(tup[i] != -tup[i + 1] for i in range(length - 1)):
            out.append(tup)
    return out


def brute_cyclically_reduced(m: int, maxlen: int) -> list[tuple[int, ...]]:
    out = []
    for length in range(1, maxlen + 1):
        for tup in brute_reduced_words(m, length):
            if length == 1 or tup[0] != -tup[-1]:
                out.append(tup)
    return out


def end_state_counts(m: int, maxlen: int) -> dict[int, list[dict[int, int]]]:
    """counts[a][k][c]: the ways to extend a reduced word that starts with a
    and ends with c by k more letters, keeping it reduced and its last letter
    not a^-1.  A dynamic program over the end state (first letter, last
    letter): k + 1 letters are a next letter other than c^-1, then k."""
    letters = [x for x in range(-m, m + 1) if x]
    counts = {}
    for a in letters:
        rows = [{c: int(c != -a) for c in letters}]
        for _ in range(1, maxlen):
            prev = rows[-1]
            total = sum(prev.values())
            rows.append({c: total - prev[-c] for c in letters})
        counts[a] = rows
    return counts


def cyclically_reduced_count_dp(counts, length: int) -> int:
    """Cyclically reduced words of ``length`` letters, from end_state_counts."""
    return sum(counts[a][length - 1][a] for a in counts)


def length_lex_rank(counts, word) -> int:
    """The rank of a cyclically reduced word in the length-then-lex order of
    B_l, l <= the maxlen of ``counts``: the words of every shorter length,
    then for each letter the words that branch off below it."""
    word = tuple(word)
    a = word[0]
    rank = sum(cyclically_reduced_count_dp(counts, L) for L in range(1, len(word)))
    rank += sum(counts[b][len(word) - 1][b] for b in counts if b < a)
    for i in range(1, len(word)):
        rank += sum(counts[a][len(word) - 1 - i][y] for y in counts
                    if y < word[i] and y != -word[i - 1])
    return rank


def union_find_fold(g: LabeledGraph) -> LabeledGraph:
    """Stallings folding by whole-pass union-find sweeps, then leaf pruning."""
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = list(g.edges)
    changed = True
    while changed:
        changed = False
        targets: dict[tuple[int, int], int] = {}
        for (u, v, a) in edges:
            for (src, dst, letter) in ((u, v, a), (v, u, -a)):
                key = (find(src), letter)
                dst = find(dst)
                if key in targets:
                    other = find(targets[key])
                    if other != dst:
                        parent[max(other, dst)] = min(other, dst)
                        changed = True
                else:
                    targets[key] = dst
        merged = set()
        for (u, v, a) in edges:
            ru, rv = find(u), find(v)
            if ru > rv or (ru == rv and a < 0):
                ru, rv, a = rv, ru, -a
            merged.add((ru, rv, a))
        if len(merged) != len(edges):
            changed = True
        edges = sorted(merged)

    base = find(g.base)
    while True:
        deg: dict[int, int] = {}
        for (u, v, _) in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        leaves = [v for v, dd in deg.items() if dd == 1]
        if not leaves:
            break
        drop = set(leaves)
        kept = []
        for (u, v, a) in edges:
            if u in drop or v in drop:
                if base in drop and base in (u, v):
                    base = v if u == base else u
            else:
                kept.append((u, v, a))
        edges = kept
    if not edges:
        return LabeledGraph(1, (), base=0)
    used = sorted({u for (u, v, _) in edges} | {v for (_, v, __) in edges})
    remap = {v: i for i, v in enumerate(used)}
    return LabeledGraph(len(used), [(remap[u], remap[v], a) for (u, v, a) in edges],
                        base=remap.get(base, 0))


def arc_walk_stats(g: LabeledGraph) -> GraphStats:
    """Branch vertices and maximal arcs of a connected graph with no vertex
    of degree 0 or 1, found by walking from every dart at a branch vertex
    through the degree-2 vertices to the arc's end; an arc is the set of
    edges its walk crosses, met once from each end."""
    degs = [g.degree(v) for v in range(g.num_vertices)]
    branch = [v for v in range(g.num_vertices) if degs[v] >= 3]
    arcs = set()
    for v in branch:
        for d in g.darts_at(v):
            edges = {d >> 1}
            while degs[g.dart_head(d)] == 2:
                d = next(e for e in g.darts_at(g.dart_head(d)) if e != d ^ 1)
                edges.add(d >> 1)
            arcs.add(frozenset(edges))
    return GraphStats(len(branch), len(arcs))


def dfs_reduced_paths(g: LabeledGraph, length: int) -> list[tuple[int, ...]]:
    """Exhaustive reduced-path enumeration; returns the label sequences,
    one entry per path (duplicates preserved)."""
    words = []
    stack = [(d, (g.dart_label(d),)) for d in range(2 * g.num_edges)]
    while stack:
        d, prefix = stack.pop()
        if len(prefix) == length:
            words.append(prefix)
            continue
        h = g.dart_head(d)
        for e in g.darts_at(h):
            if e != (d ^ 1):
                stack.append((e, prefix + (g.dart_label(e),)))
    return words


def brute_readable_subpaths(d, g: LabeledGraph) -> list[int]:
    """For each start position on the diagram's outer walk, the longest
    subpath (at most one full turn) spelled by a walk in the
    label-deterministic graph g, trying every start vertex and every length
    and following darts one at a time."""
    labels = d.dart_word(d.complex.outer).letters
    n = len(labels)

    def spells(v: int, word) -> bool:
        for x in word:
            heads = [g.dart_head(e) for e in g.darts_at(v) if g.dart_label(e) == x]
            if not heads:
                return False
            v = heads[0]
        return True

    return [max(length for length in range(n + 1)
                if any(spells(v, [labels[(p + i) % n] for i in range(length)])
                       for v in range(g.num_vertices)))
            for p in range(n)]


def reducible_pair_oracle(diagram, relators) -> bool:
    """Quadratic scan over face pairs and positions: a pair cancels when the
    positive boundaries read the same full word from a shared dart."""
    faces = range(diagram.num_faces)
    for a in faces:
        for b in faces:
            if b <= a:
                continue
            ia, _ = diagram.face_labels[a]
            ib, _ = diagram.face_labels[b]
            if ia != ib:
                continue
            ba = diagram.positive_boundary(a)
            bb = diagram.positive_boundary(b)
            k = len(ba)
            for ja in range(k):
                for jb in range(k):
                    if ba[ja] != bb[jb]:
                        continue
                    word_a = tuple(diagram.dart_labels[ba[(ja + t) % k]]
                                   for t in range(k))
                    word_b = tuple(diagram.dart_labels[bb[(jb + t) % k]]
                                   for t in range(k))
                    if word_a == word_b:
                        return True
    return False


def brute_letter_classes(add) -> dict[tuple[int, int], str]:
    """Classify abstract letters by independent per-letter edge scans."""
    from freiheit.abstract_diagrams import FREE, NOT, SEMI

    ad = add.base
    p_edges = add.p_edges()
    all_entries: list[tuple[int, tuple[int, int]]] = []
    for fpos, (idx, _) in enumerate(ad.face_labels):
        for j, dart in enumerate(ad.positive_boundary(fpos), start=1):
            all_entries.append((dart >> 1, (idx, j)))
    lengths = ad.lengths()
    classes = {}
    for idx, li in lengths.items():
        for j in range(1, li + 1):
            letter = (idx, j)
            my_edges = {e for (e, lt) in all_entries if lt == letter}
            minimal = True
            for e in my_edges:
                others = [lt for (ee, lt) in all_entries if ee == e]
                if min(others) != letter:
                    minimal = False
            if not minimal:
                classes[letter] = NOT
            elif my_edges & p_edges:
                classes[letter] = SEMI
            else:
                classes[letter] = FREE
    return classes


def product_filter_fillings(ad, m: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """Fillings of an abstract diagram by brute force: every tuple of the
    product of the word pools with distinct words, kept when writing each
    word along its faces' positive boundaries (and its inverse on the
    reversed darts) never gives a dart two letters."""
    from freiheit.words import cyclically_reduced_words

    lengths = ad.lengths()
    pools = [list(cyclically_reduced_words(m, lengths[i])) for i in sorted(lengths)]

    def dart_labels(combo):
        labels: dict[int, int] = {}
        for fpos, (idx, _) in enumerate(ad.face_labels):
            for x, dart in zip(combo[idx - 1].letters, ad.positive_boundary(fpos)):
                for d, val in ((dart, x), (dart ^ 1, -x)):
                    if labels.setdefault(d, val) != val:
                        return None
        return labels

    out = []
    for combo in product(*pools):
        if len({w.letters for w in combo}) != len(combo):
            continue
        labels = dart_labels(combo)
        if labels is not None:
            out.append((combo, tuple(labels[d] for d in ad.complex.outer)))
    return out


def chi2_critical(df: int, alpha: float = 0.001) -> float:
    """Wilson-Hilferty approximation of the chi-squared upper critical value."""
    z = {0.001: 3.090232, 0.01: 2.326348, 0.05: 1.644854}[alpha]
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def expected_intersection_density(d_a: float, d_b: float) -> float:
    return d_a + d_b - 1.0


def abstract_iso_key(ad):
    """Isomorphism-class key of an abstract diagram, built without the
    library's traversal codes: the least code over every outer root of the
    map and of its mirror image, with face indices renamed in order of
    first appearance.

    A mirror image reverses every cycle through the involution and flips
    every face sign; it keeps each face's positive boundary, which is what
    roots the face's letters, so faces are read along their positive
    boundaries."""
    c = ad.complex
    best = None
    for mirrored in (False, True):
        cycles = [tuple(d ^ 1 for d in reversed(cyc)) if mirrored else cyc
                  for cyc in c.faces + (c.outer,)]
        successor = {cyc[i]: cyc[(i + 1) % len(cyc)]
                     for cyc in cycles for i in range(len(cyc))}
        faces = []
        for cyc, (idx, sign) in zip(cycles, ad.face_labels):
            sign = -sign if mirrored else sign
            positive = cyc if sign > 0 else tuple(d ^ 1 for d in reversed(cyc))
            faces.append((positive, idx, sign))
        outer = cycles[-1]
        for root in range(len(outer)):
            number = {outer[root]: 0}
            queue = [outer[root]]
            for d in queue:
                for e in (d ^ 1, successor[d]):
                    if e not in number:
                        number[e] = len(number)
                        queue.append(e)
            vertex_number: dict[int, int] = {}
            vertices = tuple(vertex_number.setdefault(c.dart_vertex[d], len(vertex_number))
                             for d in queue)
            coded = sorted((tuple(number[d] for d in positive), idx, sign)
                           for positive, idx, sign in faces)
            rename: dict[int, int] = {}
            coded = tuple((darts, rename.setdefault(idx, len(rename) + 1), sign)
                          for darts, idx, sign in coded)
            walk = tuple(number[outer[(root + i) % len(outer)]]
                         for i in range(len(outer)))
            code = (len(queue), vertices, tuple(number[d ^ 1] for d in queue),
                    coded, walk)
            if best is None or code < best:
                best = code
    return best


def canonical_triviality_probe(relators) -> TrivialityEvidence:
    """The triviality probe as a lookup over the whole set: canonicalize
    every relator first (the first relator of each rotation class keeps the
    entry), then scan the relators in order for x_i w with w in the lookup.
    Canonical rotations are the least of all rotations, built one by one."""
    def least_rotation(letters):
        return min(letters[s:] + letters[:s] for s in range(len(letters)))

    lookup = {}
    for rel in relators.relators:
        lookup.setdefault(least_rotation(rel.letters), rel)
    witnesses = {i: None for i in range(1, relators.m + 1)}
    for rel in relators.relators:
        letters = rel.letters
        for pos, gen in enumerate(letters):
            if gen <= 0 or witnesses[gen] is not None:
                continue
            w = letters[pos + 1:] + letters[:pos]
            if not w:
                witnesses[gen] = TrivialityWitness(gen, rel, pos, None, 0)
                continue
            partner = lookup.get(least_rotation(w))
            if partner is not None:
                shift = next(s for s in range(len(w))
                             if partner.letters[s:] + partner.letters[:s] == w)
                witnesses[gen] = TrivialityWitness(gen, rel, pos, partner, shift)
    return TrivialityEvidence(witnesses)


def scan_bounded_triviality(relators: RelatorSet, w: Word | Iterable[int],
                            budget: dict | None = None) -> TrivialityVerdict:
    """``diagrams.bounded_triviality`` by a full scan, which the letter-indexed
    search must match verdict for verdict: every oriented relator at every
    rotation is tried at every position of a state, and each successor is
    reduced by the full stack reduction. It is also the eager reference for
    the search's delayed successors: here every successor is built, reduced,
    canonicalized and checked against the states seen when it is found, not
    when it is dequeued.

    A match is a rotated relator whose first letter the state holds at a
    position. It is one successor, built at overlap 1 and counted once
    against ``max_states``: a match of q letters gives the same cyclic word
    at every overlap 1..q, each conjugating the next by one matched letter.

    Breadth-first search for a rewrite path from w to the empty word.

    States are cyclic words (canonical rotation of the cyclically reduced
    form).  A rewrite replaces a match u of a rotation prefix of a relator
    (or inverse relator) by the inverse of the remainder.  ``trivial`` comes
    with a replayable witness; ``unknown`` is never a proof of nontriviality.
    """
    word = as_word(w)
    if not word.is_cyclically_reduced():
        raise DomainError("bounded_triviality expects a cyclically reduced word")
    budget = dict(budget or {})
    max_length = budget.get("max_length", 3 * relators.maxlen)
    max_steps = budget.get("max_steps", 10_000)
    # Constructing successor states dominates the cost, so small budgets also
    # cap the number of states ever built, not just those expanded.
    max_states = budget.get("max_states", max(2000, 10 * max_steps))

    oriented: list[tuple[int, bool, tuple[int, ...]]] = []
    for ridx, rel in enumerate(relators.relators, start=1):
        oriented.append((ridx, False, rel.letters))
        oriented.append((ridx, True, rel.inverse().letters))

    start = min_cyclic_rotation(word.letters)
    if not start:
        return TrivialityVerdict("trivial", (), 0, False)

    parents: dict[tuple[int, ...], RewriteStep | None] = {start: None}
    queue = [start]
    qi = 0
    steps = 0
    built = 0
    clipped = False
    while qi < len(queue):
        state = queue[qi]
        qi += 1
        steps += 1
        if steps > max_steps:
            return TrivialityVerdict("unknown", None, steps - 1, True)
        if built > max_states:
            return TrivialityVerdict("unknown", None, steps - 1, True)
        k = len(state)
        doubled = state + state
        for ridx, invflag, rword in oriented:
            Lr = len(rword)
            rdoubled = rword + rword
            for rot in range(Lr):
                for pos in range(k):
                    if rdoubled[rot] != doubled[pos] or built > max_states:
                        continue
                    built += 1
                    remainder = doubled[pos + 1: pos + k]
                    tail = rdoubled[rot + 1: rot + Lr]
                    replacement = tuple(-x for x in reversed(tail))
                    new_state = min_cyclic_rotation(
                        cyclic_reduce_letters(remainder + replacement))
                    if len(new_state) > max_length:
                        clipped = True
                        continue
                    if new_state in parents:
                        continue
                    step = RewriteStep(state, new_state, ridx, invflag, rot, pos, 1)
                    parents[new_state] = step
                    if not new_state:
                        witness = []
                        cur: tuple[int, ...] = new_state
                        while parents[cur] is not None:
                            st = parents[cur]
                            witness.append(st)
                            cur = st.before
                        return TrivialityVerdict(
                            "trivial", tuple(reversed(witness)), steps, False)
                    queue.append(new_state)
    # A search the state cap stopped is exhausted even when its queue ran
    # out afterwards.
    return TrivialityVerdict("unknown", None, steps, clipped or built > max_states)


def scan_matches(relators: RelatorSet, state: tuple[int, ...]) -> list[tuple]:
    """Every match of a rewrite rule in a cyclic state, by the full scan of
    ``scan_bounded_triviality``: ``(relator index, inverted, rotation,
    position, q)`` for each oriented relator, rotation and position where q,
    the number of letters the rotated relator shares with the state read
    from that position (at most the shorter length), is at least 1, in that
    order. An expansion of the state counts one successor per match."""
    k = len(state)
    doubled = state + state
    found = []
    for ridx, rel in enumerate(relators.relators, start=1):
        for inverted, rword in ((False, rel.letters), (True, rel.inverse().letters)):
            Lr = len(rword)
            rdoubled = rword + rword
            for rot in range(Lr):
                for pos in range(k):
                    q = 0
                    while q < min(Lr, k) and rdoubled[rot + q] == doubled[pos + q]:
                        q += 1
                    if q:
                        found.append((ridx, inverted, rot, pos, q))
    return found


def full_map_code(c: PlanarComplex,
                  face_infos: Sequence[tuple],
                  start_idx: int,
                  dart_labels: Sequence[int] | None = None,
                  relabel_first_use: bool = False):
    """The code of one root, which ``complexes.canonical_map_code``
    serializes only for the roots whose outer reading is least.

    Serialize the rooted map.  The field after the dart count is the outer
    reading from the root, read here on the rooted outer walk itself: the
    dart letters, or without letters the (length, sign) of the inner face
    found to hold each outer dart's inverse, (0, 0) if none does.

    ``face_infos`` holds one (label, period) pair per inner face: ``label``
    is the face's signed index (index, sign) and ``period`` the rotation
    step under which the face cycle may be re-rooted without changing the
    object.  With ``relabel_first_use`` the indices are renamed 1..k in
    order of first appearance (abstract-diagram isomorphism).
    """
    phi = c.phi
    if phi is None:
        raise DomainError("cannot encode: darts not partitioned")
    start = c.outer[start_idx]
    order: dict[int, int] = {start: 0}
    queue = [start]
    qi = 0
    while qi < len(queue):
        d = queue[qi]
        qi += 1
        for e in (d ^ 1, phi[d]):
            if e not in order:
                order[e] = len(order)
                queue.append(e)
    if len(order) != c.num_darts:
        raise DomainError("cannot encode: complex is disconnected")

    walk = c.outer[start_idx:] + c.outer[:start_idx]
    if dart_labels is not None:
        reading = tuple(dart_labels[d] for d in walk)
    else:
        reading = tuple(
            next(((len(cycle), sign) for cycle, ((_, sign), _) in zip(c.faces, face_infos)
                  if d ^ 1 in cycle), (0, 0))
            for d in walk)

    alpha_part = tuple(order[queue[i] ^ 1] for i in range(len(queue)))

    faces_part = []
    for cycle, (label, period) in zip(c.faces, face_infos):
        best = min(tuple(order[d] for d in cycle[off:] + cycle[:off])
                   for off in range(0, len(cycle), period))
        faces_part.append((best, label))
    faces_part.sort()
    if relabel_first_use:
        rename: dict[int, int] = {}
        renamed = []
        for best, label in faces_part:
            idx, sign = label
            if idx not in rename:
                rename[idx] = len(rename) + 1
            renamed.append((best, (rename[idx], sign)))
        faces_part = renamed

    n = len(c.outer)
    outer_part = tuple(order[c.outer[(start_idx + i) % n]] for i in range(n))

    label_part = None
    if dart_labels is not None:
        label_part = tuple(dart_labels[queue[i]] for i in range(len(queue)))

    return (c.num_darts, reading, alpha_part, tuple(faces_part), outer_part,
            label_part)


def full_canonical_map_code(c: PlanarComplex,
                            face_infos: Sequence[tuple],
                            dart_labels: Sequence[int] | None = None,
                            relabel_first_use: bool = False,
                            use_mirror: bool = True):
    """``complexes.canonical_map_code`` by encoding every root in full, which
    the minimum over the least-reading roots must match tuple for tuple.

    Minimum code over outer roots and (optionally) the mirror map, whose
    faces carry the signs of ``face_infos`` flipped."""
    variants = [(c, face_infos)]
    if use_mirror:
        variants.append((mirror_complex(c), [((idx, -sign), period)
                                             for (idx, sign), period in face_infos]))
    return min(full_map_code(cc, infos, start_idx, dart_labels, relabel_first_use)
               for cc, infos in variants for start_idx in range(len(cc.outer)))


def disk_glue_candidates(d, relators):
    """Every diagram obtained by gluing one face along an arc of the
    boundary, each built, in the enumeration's order (index, sign, arc
    start, arc length, face start): the arc word is read afresh for each
    oriented relator and matched against every rotation of it."""
    from freiheit.diagrams import _glue_word

    outer = d.complex.outer
    n = len(outer)
    for idx in range(1, len(relators.relators) + 1):
        rel = relators.relators[idx - 1]
        for sign in (1, -1):
            word = rel.letters if sign > 0 else rel.inverse().letters
            L = len(word)
            doubled_word = word + word
            for a in range(n):
                for s in range(1, min(L - 1, n) + 1):
                    arc_word = tuple(d.dart_labels[outer[(a + i) % n]] for i in range(s))
                    for omega in range(L):
                        if doubled_word[omega:omega + s] == arc_word:
                            yield _glue_word(d, idx, sign, word, a, s, omega)


def reference_disk_enumeration(relators, max_faces: int) -> list:
    """``diagrams.enumerate_reduced_disk_diagrams`` by building every gluing
    and keeping those ``is_reduced`` passes on the whole child."""
    from freiheit.complexes import level_search
    from freiheit.diagrams import diagram_canonical_key, is_reduced, one_face_diagram

    def candidates(d):
        return (cand for cand in disk_glue_candidates(d, relators)
                if is_reduced(cand, relators))

    seeds = (one_face_diagram(relators, idx, sign)
             for idx in range(1, len(relators.relators) + 1) for sign in (1, -1))
    return list(level_search(seeds, candidates,
                             lambda d: diagram_canonical_key(d, relators), max_faces))


def abstract_glue_candidates(ad, maxlen: int):
    """Every abstract diagram obtained by gluing one face of length <=
    maxlen onto ``ad``, each built, in the enumeration's order (length, arc
    start, arc length, face start, label)."""
    from freiheit.abstract_diagrams import AbstractDiagram
    from freiheit.complexes import glue_face

    n = len(ad.complex.outer)
    lengths = ad.lengths()
    k = len(lengths)
    for length in range(1, maxlen + 1):
        label_choices = [(idx, sign) for idx in lengths if lengths[idx] == length
                         for sign in (1, -1)]
        label_choices += [(k + 1, 1), (k + 1, -1)]
        for a in range(n):
            for s in range(1, min(length - 1, n) + 1):
                for omega in range(length):
                    glued = glue_face(ad.complex, a, s, length, omega)
                    for label in label_choices:
                        yield AbstractDiagram(glued, ad.face_labels + (label,))


def abstract_fillable_shaped(ad) -> bool:
    """The shape check on the whole diagram: every edge decorated, and no
    edge with a pattern no filling can write."""
    from freiheit.abstract_diagrams import _checked_decorations

    try:
        _checked_decorations(ad)
        return True
    except DomainError:
        return False


def labelled_abstract_enumeration(max_faces: int, maxlen: int):
    """``enumerate_abstract_diagrams`` by the labelled search: the level
    search keyed by the code without the mirror (a class per outer
    re-rooting), so that every labelled class it reaches is counted one by
    one, and each of them then keyed by isomorphism (mirror and first-use
    renaming) to pick the representatives. Both keys are full minimums over
    every root. Returns ``(representatives, iso_count, labeled_count)``."""
    from freiheit.abstract_diagrams import _one_face_abstract
    from freiheit.complexes import level_search

    def infos(ad):
        return [(label, len(cycle)) for label, cycle in zip(ad.face_labels, ad.complex.faces)]

    def labelled_key(ad):
        return full_canonical_map_code(ad.complex, infos(ad), use_mirror=False)

    def candidates(ad):
        return (cand for cand in abstract_glue_candidates(ad, maxlen)
                if abstract_fillable_shaped(cand))

    seeds = (_one_face_abstract(length, sign)
             for length in range(1, maxlen + 1) for sign in (1, -1))
    reps = []
    iso_seen = set()
    labeled_count = 0
    for ad in level_search(seeds, candidates, labelled_key, max_faces):
        labeled_count += 1
        iso = full_canonical_map_code(ad.complex, infos(ad), relabel_first_use=True)
        if iso not in iso_seen:
            iso_seen.add(iso)
            reps.append(ad)
    return reps, len(iso_seen), labeled_count
