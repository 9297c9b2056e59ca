"""Van Kampen diagrams over a presentation.

A diagram is a planar complex whose darts carry letters and whose inner
faces carry signed relator indices: a face stored with sign +1 reads its
relator verbatim around its stored cycle, and with sign -1 reads the
inverse word (its positive boundary is the reversed cycle of inverse
darts).  Faces come in inverse pairs in the underlying theory; the stored
orientation is the one compatible with the global face permutation.

Reducibility: two distinct faces with the same relator form a reducible
(mirror) pair when some shared dart sits at the same position of both
positive boundaries; positions are compared as whole-word rotations so the
test is insensitive to re-rooting a face along a periodic relator.

Diagram isomorphism identifies re-rootings of the outer walk, reflections,
and face re-rootings along relator periods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .complexes import (ComplexReport, FaceLabelledMap, PlanarComplex,
                        canonical_map_code, check_complex, glue_face,
                        has_mirror_pair, level_search, map_from_json,
                        map_to_data, polygon)
from .density import RelatorSet
from .errors import DomainError, FeasibilityError
from .stallings import LabeledGraph
from .words import Word, as_word, canonical_cyclic, cyclic_reduce_letters
from .words import letter_to_char, char_to_letter, min_cyclic_rotation

MAX_DIAGRAM_FACES = 3
DEFAULT_CANDIDATE_LIMIT = 2_000_000


@dataclass(frozen=True)
class VanKampenDiagram(FaceLabelledMap):
    """face_labels[i] = (relator_index, sign); relator_index is 1-based."""

    complex: PlanarComplex
    dart_labels: tuple[int, ...]
    face_labels: tuple[tuple[int, int], ...]

    def dart_word(self, darts: Sequence[int]) -> Word:
        return Word(tuple(self.dart_labels[d] for d in darts))


@dataclass(frozen=True)
class DistortionDiagram:
    """A diagram with a boundary subpath p = outer[start : start+length]."""

    diagram: VanKampenDiagram
    p_start: int
    p_length: int

    def p_darts(self) -> tuple[int, ...]:
        outer = self.diagram.complex.outer
        n = len(outer)
        return tuple(outer[(self.p_start + i) % n] for i in range(self.p_length))

    def p_word(self) -> Word:
        return self.diagram.dart_word(self.p_darts())


def validate(d: VanKampenDiagram, relators: RelatorSet) -> ComplexReport:
    """Planarity (Euler), connectivity, involution consistency and
    face/relator label agreement; reports the first violation found."""
    c = d.complex
    if len(d.dart_labels) != c.num_darts:
        return ComplexReport(False, "involution", "label array length mismatch")
    for e in range(c.num_edges):
        if d.dart_labels[2 * e] != -d.dart_labels[2 * e + 1]:
            return ComplexReport(False, "involution",
                                 f"edge {e} labels are not mutually inverse")
    rep = check_complex(c)
    if not rep.ok:
        return rep
    if len(d.face_labels) != len(c.faces):
        return ComplexReport(False, "face-label", "face label count mismatch")
    for i, cycle in enumerate(c.faces):
        idx, sign = d.face_labels[i]
        if not 1 <= idx <= len(relators.relators) or sign not in (1, -1):
            return ComplexReport(False, "face-label", f"face {i}: bad label {d.face_labels[i]}")
        rel = relators.relators[idx - 1]
        want = rel.letters if sign > 0 else rel.inverse().letters
        got = tuple(d.dart_labels[x] for x in cycle)
        if got != want:
            return ComplexReport(False, "face-label",
                                 f"face {i} reads {got}, expected {want}")
    return ComplexReport(True)


def boundary_word(d: VanKampenDiagram) -> Word:
    """Outer walk label, canonicalized over cyclic rotations and inversion."""
    return canonical_cyclic(d.dart_word(d.complex.outer))


def _word_period(letters: tuple[int, ...]) -> int:
    n = len(letters)
    for p in range(1, n + 1):
        if n % p == 0 and letters[p:] + letters[:p] == letters:
            return p
    return n


def is_reduced(d: VanKampenDiagram, relators: RelatorSet) -> bool:
    """True iff no two faces with one relator are glued mirror-wise along an
    edge at the same boundary position, up to the relator's period."""
    return not has_mirror_pair(
        d, lambda idx: _word_period(relators.relators[idx - 1].letters))


def isoperimetric_ratio(d: VanKampenDiagram, maxlen: int) -> float:
    """|boundary| / (maxlen * |faces|), the quantity compared to 1 - 2d - s."""
    if d.num_faces < 1:
        raise DomainError("isoperimetric ratio needs at least one face")
    return d.boundary_length() / (maxlen * d.num_faces)


# ---------------------------------------------------------------------------
# Construction and enumeration.


def one_face_diagram(relators: RelatorSet, relator_index: int, sign: int = 1) -> VanKampenDiagram:
    rel = relators.relators[relator_index - 1]
    word = rel.letters if sign > 0 else rel.inverse().letters
    labels = []
    for x in word:
        labels += [x, -x]
    return VanKampenDiagram(polygon(len(word)), tuple(labels),
                            ((relator_index, sign),))


def diagram_canonical_key(d: VanKampenDiagram, relators: RelatorSet):
    # A word and its inverse have one period.
    infos = [((idx, sign), _word_period(relators.relators[idx - 1].letters))
             for idx, sign in d.face_labels]
    return canonical_map_code(d.complex, infos, dart_labels=d.dart_labels)


def _glue_candidates(d: VanKampenDiagram, relators: RelatorSet) -> Iterator[VanKampenDiagram]:
    """All diagrams obtained by gluing one face along an arc of the boundary."""
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


def _glue_word(d: VanKampenDiagram, idx: int, sign: int, word: tuple[int, ...],
               a: int, s: int, omega: int) -> VanKampenDiagram:
    """``glue_face`` with the face reading ``word`` from position omega on;
    its fresh darts read the rest of the word."""
    L = len(word)
    labels = list(d.dart_labels)
    for j in range(s, L):
        x = word[(omega + j) % L]
        labels += [x, -x]
    return VanKampenDiagram(glue_face(d.complex, a, s, L, omega), tuple(labels),
                            d.face_labels + ((idx, sign),))


def enumerate_reduced_disk_diagrams(relators: RelatorSet, max_faces: int
                                    ) -> Iterator[VanKampenDiagram]:
    """Every reduced disk diagram with <= max_faces faces built by successive
    arc gluings, one per isomorphism class.

    A new face is glued along a contiguous arc of the current boundary; the
    fresh part of its boundary is embedded without self-identifications.
    """
    if max_faces > MAX_DIAGRAM_FACES:
        raise FeasibilityError(
            f"disk diagram enumeration capped at {MAX_DIAGRAM_FACES} faces, "
            f"got {max_faces}", estimate=max_faces)
    if max_faces < 1:
        return
    total = sum(len(r) for r in relators.relators)
    lmax = max((len(r) for r in relators.relators), default=1)
    estimate = (2 * total) * (2 * total * (max_faces * lmax) ** 2) ** (max_faces - 1)
    built = count(1)

    def reduced_candidates(diag: VanKampenDiagram) -> Iterator[VanKampenDiagram]:
        for cand in _glue_candidates(diag, relators):
            if next(built) > DEFAULT_CANDIDATE_LIMIT:
                raise FeasibilityError(
                    f"disk diagram enumeration exceeded {DEFAULT_CANDIDATE_LIMIT} "
                    f"candidates (upfront estimate {estimate:.3g})",
                    estimate=estimate)
            if is_reduced(cand, relators):
                yield cand

    seeds = (one_face_diagram(relators, idx, sign)
             for idx in range(1, len(relators.relators) + 1) for sign in (1, -1))
    yield from level_search(seeds, reduced_candidates,
                            lambda diag: diagram_canonical_key(diag, relators),
                            max_faces)


# ---------------------------------------------------------------------------
# Bounded word problem by relator rewriting on cyclic words.


@dataclass(frozen=True)
class RewriteStep:
    before: tuple[int, ...]
    after: tuple[int, ...]
    relator_index: int
    inverted: bool
    rotation: int
    position: int
    overlap: int


@dataclass(frozen=True)
class TrivialityVerdict:
    status: str  # "trivial" | "unknown"
    witness: tuple[RewriteStep, ...] | None
    steps_used: int
    budget_exhausted: bool


def _rewrite_rules(relators: RelatorSet) -> list:
    """The rewrite rules of a relator set, built at its first search and
    kept in the instance's ``__dict__`` (outside its fields, so equality,
    hash and repr do not see them).

    One rule per rotation of each relator and of its inverse, in the
    search's order: ``(relator index, inverted, rotation, first letter,
    rotated word, its inverse)``. A match of the first ``overlap`` letters
    is replaced by ``inverse[:len - overlap]``, the inverse of the rest."""
    rules = vars(relators).get("_rewrite_rules")
    if rules is None:
        rules = []
        for ridx, rel in enumerate(relators.relators, start=1):
            for inverted, word in ((False, rel.letters), (True, rel.inverse().letters)):
                doubled = word + word
                for rot in range(len(word)):
                    rotated = doubled[rot:rot + len(word)]
                    rules.append((ridx, inverted, rot, rotated[0], rotated,
                                  tuple(-x for x in reversed(rotated))))
        vars(relators)["_rewrite_rules"] = rules
    return rules


def bounded_triviality(relators: RelatorSet, w: Word | Iterable[int],
                       budget: dict | None = None) -> TrivialityVerdict:
    """Breadth-first search for a rewrite path from w to the empty word.

    States are cyclic words (canonical rotation of the cyclically reduced
    form).  A rewrite replaces a match u of a rotation prefix of a relator
    (or inverse relator) by the inverse of the remainder.  ``trivial`` comes
    with a replayable witness; ``unknown`` is never a proof of nontriviality.

    The rewrite rules (``_rewrite_rules``) are built once per relator set.
    A state maps each letter to its positions in increasing order, so a
    rule visits only the positions that hold its first letter; successors
    come in rule, position order.  A match of q letters is a successor for
    each overlap 1..q, but all of them reduce to one cyclic word, so only
    overlap 1 is built and the match counts q successors against
    ``max_states``.  The kept part of the state and
    the replacement are both reduced, so a successor cancels only at their
    junction and around the wrap.  Budgets: ``max_steps`` states expanded
    (10,000 by default), ``max_states`` successors built (by default
    ``max(2000, 10 * max_steps)``), ``max_length`` letters per state.
    ``budget_exhausted`` is set when a cap stops the search or a successor
    is clipped for its length, so ``unknown`` without it means the search
    ran out of states within the budget.
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

    start = min_cyclic_rotation(word.letters)
    if not start:
        return TrivialityVerdict("trivial", (), 0, False)
    rules = _rewrite_rules(relators)

    # parents[state] is (before, relator index, inverted, rotation,
    # position, overlap) of the step that first built it.
    parents: dict[tuple[int, ...], tuple | None] = {start: None}
    queue = [start]
    qi = 0
    steps = 0
    built = 0
    clipped = False
    while qi < len(queue):
        state = queue[qi]
        qi += 1
        steps += 1
        if steps > max_steps or built > max_states:
            return TrivialityVerdict("unknown", None, steps - 1, True)
        k = len(state)
        doubled = state + state
        where: dict[int, list[int]] = {}
        for pos, x in enumerate(state):
            where.setdefault(x, []).append(pos)
        for ridx, invflag, rot, first, rotated, inverse in rules:
            positions = where.get(first)
            if positions is None:
                continue
            Lr = len(rotated)
            limit = min(Lr, k)
            for pos in positions:
                q = 1
                while q < limit and rotated[q] == doubled[pos + q]:
                    q += 1
                # The kept part ends with the letter before the match and the
                # replacement starts with the inverse of the rotated word's
                # last letter: they cancel when those two letters are equal.
                junction = state[pos - 1] == rotated[-1]
                kept = doubled[pos + 1: pos + k]
                replacement = inverse[:Lr - 1]
                if junction and kept and replacement:
                    i, j = len(kept) - 1, 1
                    while i and j < len(replacement) and kept[i - 1] == -replacement[j]:
                        i -= 1
                        j += 1
                    linear = kept[:i] + replacement[j:]
                else:
                    linear = kept + replacement
                if linear and linear[0] == -linear[-1]:
                    i, j = 1, len(linear) - 1
                    while j - i >= 2 and linear[i] == -linear[j - 1]:
                        i += 1
                        j -= 1
                    linear = linear[i:j]
                new_state = min_cyclic_rotation(linear)
                if len(new_state) > max_length:
                    clipped = True
                elif new_state not in parents:
                    parents[new_state] = (state, ridx, invflag, rot, pos, 1)
                    if not new_state:
                        witness = []
                        cur: tuple[int, ...] = new_state
                        while parents[cur] is not None:
                            before, *step = parents[cur]
                            witness.append(RewriteStep(before, cur, *step))
                            cur = before
                        return TrivialityVerdict(
                            "trivial", tuple(reversed(witness)), steps, False)
                    queue.append(new_state)
                # Overlaps 2..q build the same cyclic word: each conjugates
                # overlap 1's by one more matched letter. They are counted,
                # not built.
                built += q
                if built > max_states:
                    # The rest of the state goes unexpanded: a cut search.
                    return TrivialityVerdict("unknown", None, steps, True)
    return TrivialityVerdict("unknown", None, steps, clipped)


def replay_witness(relators: RelatorSet, w: Word, witness: Sequence[RewriteStep]) -> bool:
    """Re-derive each step of a triviality witness; True iff it reaches ()."""
    state = min_cyclic_rotation(cyclic_reduce_letters(as_word(w).letters))
    for step in witness:
        if step.before != state:
            return False
        rel = relators.relators[step.relator_index - 1]
        rword = rel.inverse().letters if step.inverted else rel.letters
        rdoubled = rword + rword
        doubled = state + state
        if rdoubled[step.rotation: step.rotation + step.overlap] != \
                doubled[step.position: step.position + step.overlap]:
            return False
        remainder = doubled[step.position + step.overlap: step.position + len(state)]
        tail = rdoubled[step.rotation + step.overlap: step.rotation + len(rword)]
        new_linear = remainder + tuple(-x for x in reversed(tail))
        state = min_cyclic_rotation(cyclic_reduce_letters(new_linear))
        if state != step.after:
            return False
    return state == ()


# ---------------------------------------------------------------------------
# Distortion certification.


@dataclass(frozen=True)
class BilipschitzReport:
    holds: bool
    lam: float
    threshold: float
    max_ratio: float
    worst: DistortionDiagram | None
    diagrams_checked: int


def longest_readable_subpaths(d: VanKampenDiagram, graph: LabeledGraph) -> list[int]:
    """For each outer start position, the longest boundary subpath whose
    label is readable on the graph (capped at the boundary length)."""
    outer = d.complex.outer
    n = len(outer)
    out = graph.out_map()
    if out is None:
        raise DomainError("certification requires a label-deterministic graph")
    result = []
    for start in range(n):
        best = 0
        for v0 in range(graph.num_vertices):
            v = v0
            t = 0
            while t < n:
                nv = out.get((v, d.dart_labels[outer[(start + t) % n]]))
                if nv is None:
                    break
                v = nv
                t += 1
            best = max(best, t)
        result.append(best)
    return result


def certify_bilipschitz(relators: RelatorSet, graph: LabeledGraph, max_faces: int,
                        lam: float) -> BilipschitzReport:
    """Check |p| <= lam/(1+lam) * |dD| over all reduced disk distortion
    diagrams with at most max_faces faces; vacuously true with no diagrams."""
    threshold = lam / (1.0 + lam)
    max_ratio = 0.0
    worst = None
    checked = 0
    for diag in enumerate_reduced_disk_diagrams(relators, max_faces):
        checked += 1
        n = diag.boundary_length()
        longest = longest_readable_subpaths(diag, graph)
        for start, plen in enumerate(longest):
            if plen == 0:
                continue
            ratio = plen / n
            if ratio > max_ratio:
                max_ratio = ratio
                worst = DistortionDiagram(diag, start, plen)
    return BilipschitzReport(max_ratio <= threshold, lam, threshold, max_ratio,
                             worst, checked)


# ---------------------------------------------------------------------------
# JSON serialization.


def diagram_to_json(d: VanKampenDiagram) -> str:
    data = map_to_data("diagram", d.complex, d.face_labels)
    for rec, x in zip(data["darts"], d.dart_labels):
        rec["label"] = letter_to_char(x)
    return json.dumps(data, indent=1)


def diagram_from_json(text: str) -> VanKampenDiagram:
    """Raises DomainError unless the text holds a well-formed diagram on a
    planar complex; the labels are checked against relators by ``validate``."""
    return map_from_json(text, lambda c, face_labels, _data, darts: VanKampenDiagram(
        c, tuple(char_to_letter(rec["label"]) for rec in darts), face_labels))
