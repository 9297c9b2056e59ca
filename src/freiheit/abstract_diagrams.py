"""Abstract (distortion) van Kampen diagrams.

Faces carry signed integer placeholders instead of relators; faces sharing
one placeholder must have equal boundary length.  Every undirected edge is
decorated by the abstract letters (i, j) of its adjacent face occurrences,
with a direction.  In a reduced, fillable diagram all decorations on one
edge are distinct letters, the lexicographically least of them names the
edge's preferred face, and each abstract letter is classified as
free-to-fill, semi-free-to-fill (it decorates an edge of the boundary
subpath p) or not free-to-fill.

Elementary segments cut the cyclic letter sequence of each abstract relator
at positions whose diagram vertices are distinguished (degree >= 3, a face
starting point, or an endpoint of p); letters inside one segment share one
class, which is what makes segment-by-segment filling counts multiply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math
from operator import itemgetter
from typing import Iterator, Sequence

from .complexes import (DistortionDiagram as AbstractDistortionDiagram,
                        FaceLabelledMap, PlanarComplex, glue_face, has_mirror_pair,
                        least_reading_codes, level_search, map_from_json,
                        map_to_data, polygon)
from .diagrams import VanKampenDiagram
from .errors import DomainError, FeasibilityError, NotFillableError
from .stallings import LabeledGraph, is_readable
from .words import Word, count_cyclically_reduced_exact, cyclically_reduced_words

MAX_ABSTRACT_FACES = 2
MAX_ABSTRACT_LENGTH = 6
FILLING_PRODUCT_LIMIT = 2_000_000


@dataclass(frozen=True)
class AbstractDiagram(FaceLabelledMap):
    """face_labels[i] = (abstract index >= 1, sign)."""

    complex: PlanarComplex
    face_labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lengths: dict[int, int] = {}
        for (idx, sign), cycle in zip(self.face_labels, self.complex.faces):
            if idx < 1 or sign not in (1, -1):
                raise DomainError(f"bad abstract face label ({idx}, {sign})")
            if idx in lengths and lengths[idx] != len(cycle):
                raise DomainError(
                    f"faces labeled {idx} have unequal boundary lengths")
            lengths.setdefault(idx, len(cycle))

    def indices(self) -> list[int]:
        return sorted({idx for idx, _ in self.face_labels})

    def lengths(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (idx, _), cycle in zip(self.face_labels, self.complex.faces):
            out[idx] = len(cycle)
        return out

    def max_length(self) -> int:
        return max(self.lengths().values())

    @cached_property
    def letter_table(self) -> LetterTable:
        """The facts about the letters that no choice of p changes, built
        once per diagram; an unfillable shape raises on every access, since
        nothing is stored when the build raises."""
        return _letter_table(self)


@dataclass(frozen=True)
class DecorationEntry:
    letter: tuple[int, int]
    dart: int
    face_pos: int


def decorate(ad: AbstractDiagram) -> dict[int, list[DecorationEntry]]:
    """Per undirected edge, one decoration per adjacent face occurrence.

    An edge with no decoration is isolated, which is rejected; the total
    number of decorations is the sum of face boundary lengths.
    """
    decorations: dict[int, list[DecorationEntry]] = {
        e: [] for e in range(ad.complex.num_edges)}
    for fpos, (idx, _) in enumerate(ad.face_labels):
        for j, dart in enumerate(ad.positive_boundary(fpos), start=1):
            decorations[dart >> 1].append(DecorationEntry((idx, j), dart, fpos))
    for e, entries in decorations.items():
        if not entries:
            raise DomainError(f"isolated edge {e}")
        entries.sort(key=lambda rec: rec.letter)
    return decorations


FREE = "free-to-fill"
SEMI = "semi-free-to-fill"
NOT = "not-free-to-fill"


@dataclass(frozen=True)
class LetterClassification:
    classes: dict[tuple[int, int], str]
    alpha: dict[int, int]
    eta: dict[int, int]
    eta_prime: dict[int, int]
    lengths: dict[int, int]

    def not_free(self) -> set[tuple[int, int]]:
        return {letter for letter, cls in self.classes.items() if cls == NOT}


@dataclass(frozen=True)
class LetterTable:
    """The decorations of a fillable-shaped diagram, and per abstract letter
    (in relator-then-position order) the edges it decorates and whether it
    is the least decoration on every one of them."""

    decorations: dict[int, list[DecorationEntry]]
    letters: tuple[tuple[tuple[int, int], frozenset[int], bool], ...]
    alpha: dict[int, int]
    lengths: dict[int, int]


def _edge_refusal(first: tuple, second: tuple, length: int) -> str | None:
    """Why no filling writes an edge decorated by ``first`` and ``second``,
    ``(letter, dart)`` pairs in letter order, or None when one may;
    ``length`` is the length of the first letter's relator.  These are
    the two patterns of ``check_fillable_shape``."""
    (i, j), dart = first
    (i2, j2), dart2 = second
    if (i, j) == (i2, j2):
        return f"decorated twice by abstract letter {(i, j)}"
    if i == i2 and dart != dart2 and j2 in (j + 1, j + length - 1):
        cut = j if j2 == j + 1 else j2
        return f"forces letter {cut}+1 of relator {i} to cancel letter {cut}"
    return None


def _checked_decorations(ad: AbstractDiagram) -> dict[int, list[DecorationEntry]]:
    """``decorate``, then ``_edge_refusal`` on every edge with two
    decorations."""
    decorations = decorate(ad)
    lengths = ad.lengths()
    for e, entries in decorations.items():
        if len(entries) == 1:
            continue
        first, second = entries
        refusal = _edge_refusal((first.letter, first.dart), (second.letter, second.dart),
                                lengths[first.letter[0]])
        if refusal:
            raise NotFillableError(f"edge {e} {refusal}")
    return decorations


def _letter_table(ad: AbstractDiagram) -> LetterTable:
    decorations = _checked_decorations(ad)
    letter_edges: dict[tuple[int, int], list[int]] = {}
    not_least: set[tuple[int, int]] = set()
    for e, entries in decorations.items():
        for rec in entries:
            letter_edges.setdefault(rec.letter, []).append(e)
        not_least.update(rec.letter for rec in entries[1:])
    lengths = ad.lengths()
    letters = tuple(((idx, j), frozenset(letter_edges[(idx, j)]), (idx, j) not in not_least)
                    for idx, li in lengths.items() for j in range(1, li + 1))
    alpha = dict.fromkeys(lengths, 0)
    for idx, _ in ad.face_labels:
        alpha[idx] += 1
    return LetterTable(decorations, letters, alpha, lengths)


def check_fillable_shape(ad: AbstractDiagram) -> dict[int, list[DecorationEntry]]:
    """Reject single-edge certificates of unfillability; returns the
    decoration table, which is the diagram's own and is not to be changed.

    Two patterns force a contradiction on any filling word: an edge
    decorated twice by one abstract letter (same direction is a reducible
    pair, opposite directions force a letter equal to its own inverse), and
    an edge decorated by cyclically consecutive letters (i, j), (i, j+1) of
    one relator with opposite directions, which forces the filling word to
    cancel at position j and so never be (cyclically) reduced.
    """
    return ad.letter_table.decorations


def classify(add: AbstractDistortionDiagram) -> LetterClassification:
    """A letter least on all its edges is semi-free-to-fill when one of them
    lies on p and free-to-fill otherwise; only p is read here, the rest is
    the diagram's ``letter_table``."""
    table = add.base.letter_table
    p_edges = add.p_edges()
    classes: dict[tuple[int, int], str] = {}
    eta = dict.fromkeys(table.lengths, 0)
    eta_prime = dict.fromkeys(table.lengths, 0)
    for letter, edges, minimal in table.letters:
        if not minimal:
            classes[letter] = NOT
        elif edges.isdisjoint(p_edges):
            classes[letter] = FREE
            eta[letter[0]] += 1
        else:
            classes[letter] = SEMI
            eta_prime[letter[0]] += 1
    return LetterClassification(classes, dict(table.alpha), eta, eta_prime,
                                dict(table.lengths))


def edge_partition(ad: AbstractDiagram) -> dict[int, set[int]]:
    """E_f: undirected edges preferring each face occurrence; a partition."""
    decorations = check_fillable_shape(ad)
    parts: dict[int, set[int]] = {fpos: set() for fpos in range(ad.num_faces)}
    for e, entries in decorations.items():
        parts[entries[0].face_pos].add(e)
    return parts


@dataclass(frozen=True)
class ElementarySegment:
    relator: int
    start: int  # 1-based position of the first letter
    letters: tuple[tuple[int, int], ...]
    cls: str | None  # uniform class, or None if mixed (an invariant failure)


def distinguished_vertices(add: AbstractDistortionDiagram) -> set[int]:
    c = add.base.complex
    degs = [0] * c.num_vertices
    for v in c.dart_vertex:
        degs[v] += 1
    out = {v for v in range(c.num_vertices) if degs[v] >= 3}
    for fpos in range(add.base.num_faces):
        out.add(c.tail(add.base.positive_boundary(fpos)[0]))
    out |= add.p_endpoints()
    return out


def elementary_segments(add: AbstractDistortionDiagram,
                        relator: int) -> list[ElementarySegment]:
    """Cut positions 1..l_i cyclically at marked vertices.

    The vertex before position j is marked when some face occurrence labeled
    i has a distinguished diagram vertex there; the face starting point
    always marks position 1.
    """
    ad = add.base
    lengths = ad.lengths()
    if relator not in lengths:
        raise DomainError(f"no abstract relator {relator}")
    classification = classify(add)
    special = distinguished_vertices(add)
    li = lengths[relator]
    c = ad.complex

    marked: set[int] = set()
    for fpos, (idx, _) in enumerate(ad.face_labels):
        if idx != relator:
            continue
        boundary = ad.positive_boundary(fpos)
        for j in range(1, li + 1):
            if c.tail(boundary[j - 1]) in special:
                marked.add(j)
    marks = sorted(marked)
    segments = []
    for a, start in enumerate(marks):
        end = marks[(a + 1) % len(marks)]
        span = (end - start) % li or li
        letters = tuple((relator, (start - 1 + t) % li + 1) for t in range(span))
        kinds = {classification.classes[letter] for letter in letters}
        segments.append(ElementarySegment(
            relator, start, letters, kinds.pop() if len(kinds) == 1 else None))
    return segments


@dataclass(frozen=True)
class CountReport:
    """Both sides of the counting inequalities.

    ``per_face_ok`` and ``global_ok`` are the literal forms: for every face
    f labeled i, eta'_i <= |E_f ∩ p| and eta_i <= |E_f \\ p|, and the
    alpha-weighted global sums.  Their eta halves always hold: a free letter
    owns, in every face bearing it, a distinct preferred edge off p.  Their
    eta' halves can fail when one abstract relator labels several faces
    that share an edge: a letter minimal on all its edges may take its
    p-certificate from one face while another face of the same relator
    contributes nothing (two bigons over one relator glued along an edge
    already do this).  When each abstract relator labels one face, both
    halves hold.  The occurrence-summed forms
    (``per_relator_ok``: eta'_i bounded by the sum of |E_f ∩ p| over all
    faces labeled i, and the unweighted global sums) are always valid and
    reported alongside.
    """

    sum_alpha_eta_prime: int
    sum_alpha_eta: int
    p_edges: int
    total_edges: int
    per_face_ok: bool
    global_ok: bool
    per_relator_ok: bool
    global_unweighted_ok: bool


def count_inequalities(add: AbstractDistortionDiagram) -> CountReport:
    ad = add.base
    cl = classify(add)
    parts = edge_partition(ad)
    p_edges = add.p_edges()

    per_face_ok = True
    in_p_by_relator: dict[int, int] = {i: 0 for i in cl.alpha}
    off_p_by_relator: dict[int, int] = {i: 0 for i in cl.alpha}
    for fpos, (idx, _) in enumerate(ad.face_labels):
        ef = parts[fpos]
        in_p = len(ef & p_edges)
        in_p_by_relator[idx] += in_p
        off_p_by_relator[idx] += len(ef) - in_p
        if cl.eta_prime[idx] > in_p or cl.eta[idx] > len(ef) - in_p:
            per_face_ok = False

    per_relator_ok = all(
        cl.eta_prime[i] <= in_p_by_relator[i]
        and cl.eta[i] <= off_p_by_relator[i] for i in cl.alpha)

    s1 = sum(cl.alpha[i] * cl.eta_prime[i] for i in cl.alpha)
    s2 = sum(cl.alpha[i] * cl.eta[i] for i in cl.alpha)
    total = ad.complex.num_edges
    global_ok = s1 <= len(p_edges) and s2 <= total - len(p_edges)
    unweighted_ok = (sum(cl.eta_prime.values()) <= len(p_edges)
                     and sum(cl.eta.values()) <= total - len(p_edges))
    return CountReport(s1, s2, len(p_edges), total, per_face_ok, global_ok,
                       per_relator_ok, unweighted_ok)


# ---------------------------------------------------------------------------
# Between concrete and abstract diagrams.


def underlying_abstract(d: VanKampenDiagram) -> tuple[AbstractDiagram, list[int]]:
    """Relators renamed 1..k in first-use order; returns the diagram and the
    relator indices (1-based, into the original set) in that order."""
    rename: dict[int, int] = {}
    order: list[int] = []
    labels = []
    for idx, sign in d.face_labels:
        if idx not in rename:
            rename[idx] = len(rename) + 1
            order.append(idx)
        labels.append((rename[idx], sign))
    return AbstractDiagram(d.complex, tuple(labels)), order


def fill(ad: AbstractDiagram, relator_words: Sequence[Word]) -> VanKampenDiagram:
    """Fill abstract relator i with relator_words[i-1], each decoration (i, j)
    writing letter j on its dart and the inverse on the reversed dart; raises
    DomainError if the words are inconsistent with the shared edges.

    Each face is named by the 1-based place of its word among the distinct
    nonempty words, by length and then letters: its index in
    ``make_relator_set`` of the same words."""
    lengths = ad.lengths()
    for idx, li in lengths.items():
        if idx > len(relator_words):
            raise DomainError(f"no word supplied for abstract relator {idx}")
        if len(relator_words[idx - 1]) != li:
            raise DomainError(
                f"abstract relator {idx} has length {li}, word has "
                f"{len(relator_words[idx - 1])}")
    labels = [0] * ad.complex.num_darts
    for entries in decorate(ad).values():
        for rec in entries:
            idx, j = rec.letter
            x = relator_words[idx - 1].letters[j - 1]
            for dart, val in ((rec.dart, x), (rec.dart ^ 1, -x)):
                if labels[dart] not in (0, val):
                    raise DomainError("words do not fill this diagram")
                labels[dart] = val
    place = {w: k for k, (_, w) in enumerate(
        sorted({(len(w), w.letters) for w in relator_words if len(w)}), start=1)}
    return VanKampenDiagram(ad.complex, tuple(labels), tuple(
        (place[relator_words[idx - 1].letters], sign) for idx, sign in ad.face_labels))


# ---------------------------------------------------------------------------
# Fillings enumeration.


def fillings_with_boundary(ad: AbstractDiagram, m: int
                           ) -> list[tuple[tuple[Word, ...], tuple[int, ...]]]:
    """All tuples of distinct cyclically reduced words consistent with the
    diagram, paired with the outer-walk labels they induce, in the order of
    the product of the word pools.

    An edge with two decorations (a, j_a) < (b, j_b) gives one equation
    w_a[j_a] = s w_b[j_b], with s = +1 when both read the same dart and -1
    otherwise. A face with sign -1 is read reversed, so both letters may
    read the edge the same way. An outer dart reads the one decoration of
    its edge, inverted unless that decoration reads this dart. A pool
    keeps the words that meet the equations inside it; the words of a later
    relator are indexed by their letters at the positions an earlier word
    fixes, and each partial tuple looks up the words that extend it.
    """
    if ad.num_faces > MAX_ABSTRACT_FACES:
        raise FeasibilityError(
            f"filling enumeration capped at {MAX_ABSTRACT_FACES} faces")
    lengths = ad.lengths()
    if any(li > MAX_ABSTRACT_LENGTH for li in lengths.values()):
        raise FeasibilityError(
            f"filling enumeration capped at face length {MAX_ABSTRACT_LENGTH}")
    indices = ad.indices()
    if indices != list(range(1, len(indices) + 1)):
        raise DomainError("abstract indices must be 1..k")
    decorations = decorate(ad)
    # The product of the pools bounds the list the join returns, not just
    # its work, so the guard sizes it by the closed-form counts.
    estimate = math.prod(count_cyclically_reduced_exact(m, lengths[i]) for i in indices)
    if estimate > FILLING_PRODUCT_LIMIT:
        raise FeasibilityError(
            f"filling search space {estimate} exceeds limit {FILLING_PRODUCT_LIMIT}",
            estimate=estimate)

    # own[i]: (j, j', s) with w_i[j] = s w_i[j']; cross[i]: (j, a, j', s)
    # with w_i[j] = s w_a[j'] for an earlier relator a < i; 0-based j.
    own: dict[int, list[tuple[int, int, int]]] = {idx: [] for idx in indices}
    cross: dict[int, list[tuple[int, int, int, int]]] = {idx: [] for idx in indices}
    for entries in decorations.values():
        if len(entries) == 1:
            continue
        first, second = entries
        (a, ja), (b, jb) = first.letter, second.letter
        s = 1 if first.dart == second.dart else -1
        if a == b:
            own[a].append((ja - 1, jb - 1, s))
        else:
            cross[b].append((jb - 1, a, ja - 1, s))

    partial: list[tuple[Word, ...]] = [()]
    for idx in indices:
        eqs = cross[idx]
        buckets: dict[tuple[int, ...], list[Word]] = {}
        for w in cyclically_reduced_words(m, lengths[idx]):
            x = w.letters
            if all(x[j] == s * x[jj] for j, jj, s in own[idx]):
                buckets.setdefault(tuple(x[j] for j, _, _, _ in eqs), []).append(w)
        partial = [combo + (w,) for combo in partial
                   for w in buckets.get(tuple(s * combo[a - 1].letters[jj]
                                              for _, a, jj, s in eqs), ())]

    outer = [(*rec.letter, 1 if rec.dart == dart else -1)
             for dart in ad.complex.outer for rec in decorations[dart >> 1]]
    return [(combo, tuple(s * combo[idx - 1].letters[j - 1] for idx, j, s in outer))
            for combo in partial if len({w.letters for w in combo}) == len(combo)]


def enumerate_fillings(add: AbstractDistortionDiagram, m: int, maxlen: int,
                       graph: LabeledGraph) -> list[tuple[Word, ...]]:
    """Fillings of (D, p) by (B_maxlen, graph): distinct cyclically reduced
    relators inducing consistent edge labels with the label of p readable on
    the graph."""
    if add.base.max_length() > maxlen:
        raise DomainError("face length exceeds maxlen")
    n = len(add.base.complex.outer)
    out = []
    for combo, boundary in fillings_with_boundary(add.base, m):
        p_word = tuple(boundary[(add.p_start + i) % n] for i in range(add.p_length))
        if is_readable(graph, Word(p_word)):
            out.append(combo)
    return out


def filling_bound_exact(add: AbstractDistortionDiagram, m: int, r: int,
                        gamma_size: int) -> Fraction:
    """(2m/(2m-1))^k (2|G|)^(3|D|^2 k) (2m-1)^(sum eta) (2r-1)^(sum eta'),
    one fraction of integer powers."""
    cl = classify(add)
    k = len(cl.alpha)
    size = add.base.num_faces
    q = 2 * m - 1
    return Fraction((2 * m) ** k * (2 * gamma_size) ** (3 * size * size * k)
                    * q ** sum(cl.eta.values()) * (2 * r - 1) ** sum(cl.eta_prime.values()),
                    q ** k)


def filling_bound(add: AbstractDistortionDiagram, m: int, r: int,
                  gamma_size: int) -> float:
    """Natural log of the filling-count bound ``filling_bound_exact``."""
    exact = filling_bound_exact(add, m, r, gamma_size)
    return math.log(exact.numerator) - math.log(exact.denominator)


# ---------------------------------------------------------------------------
# Enumeration of abstract diagrams (arc gluings) and distortion diagrams.


def _one_face_abstract(length: int, sign: int = 1) -> AbstractDiagram:
    return AbstractDiagram(polygon(length), ((1, sign),))


def abstract_is_reduced(ad: AbstractDiagram) -> bool:
    """No mirror pair, positions compared whole: an abstract relator has no
    period shorter than its length."""
    return not has_mirror_pair(ad, ad.lengths().__getitem__)


def _face_infos(ad: AbstractDiagram) -> list:
    return [(label, len(cycle)) for label, cycle in zip(ad.face_labels, ad.complex.faces)]


def _canonical(ad: AbstractDiagram) -> tuple[AbstractDiagram, tuple, list]:
    """The one canonical pass over a diagram: the diagram, its key under
    outer re-rooting and mirror (the least code, indices as they are), and
    the ``(variant, code)`` of every least-reading root."""
    codes = least_reading_codes(ad.complex, _face_infos(ad))
    return ad, min(code for _, code in codes), codes


def _first_use_renamed(code: tuple) -> tuple:
    """A code with its face indices renamed 1..k in order of first use. The
    outer reading holds no index, and the faces are sorted by their dart
    numbers, which are distinct, so only the labels change."""
    rename: dict[int, int] = {}
    darts, reading, alpha, faces, outer, letters = code
    faces = tuple((numbers, (rename.setdefault(idx, len(rename) + 1), sign))
                  for numbers, (idx, sign) in faces)
    return darts, reading, alpha, faces, outer, letters


def _class_of(entry: tuple) -> tuple[tuple, int]:
    """From a diagram's canonical pass: its isomorphism key (the least code
    after first-use renaming) and the number of labelled classes its
    mirror class holds, 1 when the map and its mirror both attain the
    least code (achiral) and 2 when only one does."""
    _, least, codes = entry
    attained = {variant for variant, code in codes if code == least}
    return (min(_first_use_renamed(code) for _, code in codes),
            1 if attained == {0, 1} else 2)


def _abstract_gluings(ad: AbstractDiagram, maxlen: int) -> Iterator[tuple]:
    """Every way ``(length, a, s, omega, label)`` to glue one face onto a
    diagram, in that order: a ``length``-gon, length <= maxlen, along the
    ``s`` outer darts from outer position ``a`` on, the arc beginning at
    position ``omega`` of its cycle, labelled by an index of that length
    or the next new index, with either sign."""
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
                    for label in label_choices:
                        yield length, a, s, omega, label


def _fillable_shaped_children(ad: AbstractDiagram, maxlen: int
                              ) -> Iterator[AbstractDiagram]:
    """The gluings onto a fillable-shaped diagram that keep it
    fillable-shaped, in the order of ``_abstract_gluings``, each built
    only once it passes.

    Only the arc's edges gain a decoration, so only they can fail: each
    holds one decoration of the parent, read off its ``letter_table``, and
    the new face's letter, and the pair must pass ``_edge_refusal``.  A
    mirror pair decorates an edge twice with one letter, so it fails too.
    The children of one arc and start share their map."""
    decorations = ad.letter_table.decorations
    outer = ad.complex.outer
    n = len(outer)
    place = glued = None
    for gluing in _abstract_gluings(ad, maxlen):
        length, a, s, omega, (idx, sign) = gluing
        for i in range(s):
            x = outer[(a + i) % n]
            there = decorations[x >> 1][0]
            # The new face holds x at position omega + i of its cycle.
            j = (omega + i) % length
            here = ((idx, j + 1), x) if sign > 0 else ((idx, length - j), x ^ 1)
            if _edge_refusal(*sorted(((there.letter, there.dart), here)), length):
                break
        else:
            if place != gluing[:4]:
                place = gluing[:4]
                glued = glue_face(ad.complex, a, s, length, omega)
            yield AbstractDiagram(glued, ad.face_labels + ((idx, sign),))


@dataclass(frozen=True)
class AbstractEnumeration:
    representatives: tuple[AbstractDiagram, ...]
    iso_count: int
    labeled_count: int


def _mirror_classes(max_faces: int, maxlen: int
                    ) -> Iterator[tuple[AbstractDiagram, tuple, int]]:
    """The level search keyed by outer re-rooting and mirror: each new class
    as its first diagram, its isomorphism key and its number of labelled
    classes (``_class_of``). Only the fillable-shaped children of each
    parent are built (``_fillable_shaped_children``), and each of them is
    canonicalized once."""
    seeds = (_canonical(_one_face_abstract(length, sign))
             for length in range(1, maxlen + 1) for sign in (1, -1))

    def candidates(entry: tuple) -> Iterator[tuple]:
        return map(_canonical, _fillable_shaped_children(entry[0], maxlen))

    for entry in level_search(seeds, candidates, itemgetter(1), max_faces):
        yield (entry[0], *_class_of(entry))


def enumerate_abstract_diagrams(max_faces: int, maxlen: int) -> AbstractEnumeration:
    """All reduced, fillable-shaped disk-like abstract diagrams with at most
    max_faces faces and face lengths <= maxlen, built by arc gluings.

    Representatives are one per isomorphism class (outer re-rooting, mirror,
    first-use index renaming), each the first of its class the search
    reaches. ``labeled_count`` counts the labelled classes (outer re-rooting
    only) that the first-use gluing reaches: gluing commutes with
    mirroring, so they come in mirror pairs, and an achiral class counts
    once. It is not every labelled class of the representatives (786
    against 926 at (2, 4)): a face is glued along at most length - 1 of its
    darts, so a face that shares its whole boundary with another (a monogon,
    or a bigon inside a triangle) is only reached as the first face, and a
    labelling that gives it the later index is never reached.
    """
    if max_faces > MAX_ABSTRACT_FACES:
        raise FeasibilityError(
            f"abstract enumeration capped at {MAX_ABSTRACT_FACES} faces")
    if maxlen > MAX_ABSTRACT_LENGTH:
        raise FeasibilityError(
            f"abstract enumeration capped at face length {MAX_ABSTRACT_LENGTH}")
    reps: list[AbstractDiagram] = []
    iso_seen: set = set()
    labeled_count = 0
    for ad, iso, labelled in _mirror_classes(max_faces, maxlen):
        labeled_count += labelled
        if iso not in iso_seen:
            iso_seen.add(iso)
            reps.append(ad)
    return AbstractEnumeration(tuple(reps), len(iso_seen), labeled_count)


def enumerate_abstract_distortion_diagrams(max_faces: int, maxlen: int
                                           ) -> Iterator[AbstractDistortionDiagram]:
    """Each representative abstract diagram with every boundary subpath
    choice: the empty p once, then every (start, length) pair."""
    enum = enumerate_abstract_diagrams(max_faces, maxlen)
    for ad in enum.representatives:
        n = ad.boundary_length()
        yield AbstractDistortionDiagram(ad, 0, 0)
        for plen in range(1, n + 1):
            for start in range(n):
                yield AbstractDistortionDiagram(ad, start, plen)


# ---------------------------------------------------------------------------
# JSON.


def abstract_to_json(add: AbstractDistortionDiagram) -> str:
    data = map_to_data("abstract_diagram", add.base.complex, add.base.face_labels)
    data["p"] = {"start": add.p_start, "length": add.p_length}
    return json.dumps(data, indent=1)


def _build_distortion(c: PlanarComplex, face_labels, data, _darts
                      ) -> AbstractDistortionDiagram:
    p = data.get("p", {"start": 0, "length": 0})
    if type(p["start"]) is not int or type(p["length"]) is not int:
        raise DomainError("p start and length must be integers")
    return AbstractDistortionDiagram(AbstractDiagram(c, face_labels),
                                     p["start"], p["length"])


def abstract_from_json(text: str) -> AbstractDistortionDiagram:
    """Raises DomainError unless the text holds a well-formed abstract
    distortion diagram on a planar complex."""
    return map_from_json(text, _build_distortion)
