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
import math
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .complexes import (ComplexReport, DistortionDiagram, FaceLabelledMap,
                        PlanarComplex, canonical_map_code, check_complex,
                        glue_face, has_mirror_pair, level_search,
                        map_from_json, map_to_data, polygon)
from .density import RelatorSet
from .errors import DomainError, FeasibilityError
from .stallings import LabeledGraph, longest_readable_prefix
from .words import Word, as_word, canonical_cyclic, cyclic_reduce_letters
from .words import letter_to_char, char_to_letter, min_cyclic_rotation

MAX_DIAGRAM_FACES = 3
DEFAULT_CANDIDATE_LIMIT = 2_000_000
_BUDGET_KEYS = frozenset({"max_length", "max_steps", "max_states"})


@dataclass(frozen=True)
class VanKampenDiagram(FaceLabelledMap):
    """face_labels[i] = (relator_index, sign); relator_index is 1-based."""

    complex: PlanarComplex
    dart_labels: tuple[int, ...]
    face_labels: tuple[tuple[int, int], ...]

    def dart_word(self, darts: Sequence[int]) -> Word:
        return Word(tuple(self.dart_labels[d] for d in darts))


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


def _canonical_key(d: VanKampenDiagram, periods: dict[int, int]):
    """The canonical code, given the period of each relator index the faces
    use; a word and its inverse have one period."""
    infos = [(label, periods[label[0]]) for label in d.face_labels]
    return canonical_map_code(d.complex, infos, dart_labels=d.dart_labels)


def diagram_canonical_key(d: VanKampenDiagram, relators: RelatorSet):
    return _canonical_key(d, {idx: _word_period(relators.relators[idx - 1].letters)
                              for idx, _ in d.face_labels})


def _window_table(relators: RelatorSet) -> list[tuple]:
    """Per oriented relator, in index then sign order, ``(index, sign,
    word, windows)``, where ``windows[s]`` maps every cyclic subword of
    ``s`` letters, 1 <= s < len(word), to its starts in ascending order."""
    table = []
    for idx, rel in enumerate(relators.relators, start=1):
        for sign in (1, -1):
            word = rel.letters if sign > 0 else rel.inverse().letters
            L = len(word)
            doubled = word + word
            windows: list[dict] = [{}]
            for s in range(1, L):
                starts: dict[tuple[int, ...], list[int]] = {}
                for omega in range(L):
                    starts.setdefault(doubled[omega:omega + s], []).append(omega)
                windows.append(starts)
            table.append((idx, sign, word, windows))
    return table


def _gluings(d: VanKampenDiagram, table: list[tuple]) -> Iterator[tuple]:
    """Every way ``(index, sign, word, a, s, omega)`` to glue one face along
    an arc of the boundary, in that order: the ``s`` outer darts from outer
    position ``a`` on read the face's word from position ``omega`` on."""
    outer = d.complex.outer
    n = len(outer)
    labels = tuple([d.dart_labels[x] for x in outer]) * 2
    longest = max((len(windows) for *_, windows in table), default=1)
    arcs = [[labels[a:a + s] for s in range(min(longest, n + 1))] for a in range(n)]
    for idx, sign, word, windows in table:
        top = min(len(word) - 1, n) + 1
        for a in range(n):
            arc_words = arcs[a]
            for s in range(1, top):
                for omega in windows[s].get(arc_words[s], ()):
                    yield idx, sign, word, a, s, omega


def _faces_across(d: VanKampenDiagram) -> list[tuple]:
    """For each outer position, the label of the inner face across its dart
    and the position of the dart's inverse in that face's stored cycle."""
    where: list = [None] * d.complex.num_darts
    for cycle, label in zip(d.complex.faces, d.face_labels):
        for q, x in enumerate(cycle):
            where[x] = (label, q)
    return [where[x ^ 1] for x in d.complex.outer]


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
    arc gluings, one per isomorphism class, each the first of its class in
    the order of ``_gluings``.

    A new face is glued along a contiguous arc of the current boundary; the
    fresh part of its boundary is embedded without self-identifications.
    The arcs are matched through ``_window_table``, built once per call,
    each arc's word read once per parent.  Every match counts against
    ``DEFAULT_CANDIDATE_LIMIT``, and only the reduced children are built:
    a parent has no mirror pair and the new face's fresh darts border the
    outer face, so the child is reduced unless the new face and a face
    across its arc have one relator, opposite signs and one position
    modulo the relator's period (``is_reduced`` on the child, read off the
    parent's faces).
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
    periods = {idx: _word_period(rel.letters)
               for idx, rel in enumerate(relators.relators, start=1)}
    table = _window_table(relators)

    def reduced_children(diag: VanKampenDiagram) -> Iterator[VanKampenDiagram]:
        across = _faces_across(diag)
        n = len(across)
        for gluing in _gluings(diag, table):
            if next(built) > DEFAULT_CANDIDATE_LIMIT:
                raise FeasibilityError(
                    f"disk diagram enumeration exceeded {DEFAULT_CANDIDATE_LIMIT} "
                    f"candidates (upfront estimate {estimate:.3g})",
                    estimate=estimate)
            idx, sign, _, a, s, omega = gluing
            p = periods[idx]
            # The new face holds arc dart i at position omega + i and the face
            # across holds its inverse at q: with one relator and opposite
            # signs, their positive boundaries meet at positions that agree
            # modulo p exactly when omega + i + q + 1 is a multiple of p.
            for i in range(s):
                (face_idx, face_sign), q = across[(a + i) % n]
                if face_idx == idx and face_sign != sign and (omega + i + q + 1) % p == 0:
                    break
            else:
                yield _glue_word(diag, *gluing)

    seeds = (one_face_diagram(relators, idx, sign)
             for idx in range(1, len(relators.relators) + 1) for sign in (1, -1))
    yield from level_search(seeds, reduced_children,
                            lambda diag: _canonical_key(diag, periods), max_faces)


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


def _rewrite_rules(relators: RelatorSet) -> tuple[list, dict, frozenset]:
    """The rewrite rules of a relator set, the number of rules per first
    letter and the set of the oriented relators' canonical rotations, built
    at its first search and kept in the instance's ``__dict__`` (outside its
    fields, so equality, hash and repr do not see them).

    One rule per rotation of each relator and of its inverse, in the
    search's order: ``(relator index, inverted, rotation, first letter,
    word, inverse)``, where ``word`` is the oriented relator written twice,
    so that rotation ``rot`` reads ``word[rot:rot + len]``, and ``inverse``
    is its inverse written twice. Every rule of one relator holds the same
    two doubled words, the two orientations in swapped roles, so the rules
    take space linear in the letters.

    A state matches a whole rotated relator only when it is a rotation of
    an oriented relator; states are canonical, so the set of canonical
    rotations tells which."""
    entry = vars(relators).get("_rewrite_rules")
    if entry is None:
        rules = []
        firsts: dict[int, int] = {}
        canonical = set()
        for ridx, rel in enumerate(relators.relators, start=1):
            oriented = (rel.letters, rel.inverse().letters)
            doubled = (oriented[0] * 2, oriented[1] * 2)
            for inverted in (False, True):
                canonical.add(min_cyclic_rotation(oriented[inverted]))
                for rot, x in enumerate(oriented[inverted]):
                    rules.append((ridx, inverted, rot, x, doubled[inverted],
                                  doubled[not inverted]))
                    firsts[x] = firsts.get(x, 0) + 1
        entry = (rules, firsts, frozenset(canonical))
        vars(relators)["_rewrite_rules"] = entry
    return entry


def _matches(rules: list, state: tuple[int, ...]) -> Iterator[tuple]:
    """The matches ``(state, rule, position)`` of the rules in a state, in
    rule, position order: each rule at each position that holds its first
    letter."""
    where: dict[int, list[int]] = {}
    for pos, x in enumerate(state):
        where.setdefault(x, []).append(pos)
    for rule in rules:
        for pos in where.get(rule[3], ()):
            yield state, rule, pos


def check_triviality_budget(budget: dict) -> None:
    """Raise DomainError naming each budget key bounded_triviality does not read."""
    if not _BUDGET_KEYS.issuperset(budget):
        unknown = ", ".join(sorted(map(str, budget.keys() - _BUDGET_KEYS)))
        raise DomainError(f"unknown budget keys: {unknown}")


def bounded_triviality(relators: RelatorSet, w: Word | Iterable[int],
                       budget: dict | None = None) -> TrivialityVerdict:
    """Breadth-first search for a rewrite path from w to the empty word.

    States are cyclic words (canonical rotation of the cyclically reduced
    form).  A rewrite replaces a match u of a rotation prefix of a relator
    (or inverse relator) by the inverse of the remainder.  ``trivial`` comes
    with a replayable witness; ``unknown`` is never a proof of nontriviality.

    The rewrite rules (``_rewrite_rules``) are built once per relator set,
    one per rotation of each oriented relator, in space linear in the
    letters.  A rule matches at each position of a state that holds its
    first letter; the matches come in rule, position order (``_matches``).
    A match of q letters gives the same cyclic word at every overlap 1..q,
    each conjugating the next by one matched letter, so it is one
    successor, built at overlap 1 and counted once against ``max_states``.

    Expanding a state only counts its matches: the number of rules that
    start with each of its letters, summed over the state, so the cap
    either trips somewhere in the expansion or not at all.  The matches
    are enumerated, and each successor built, reduced, canonicalized and
    deduplicated, only when the search dequeues it (delayed duplicate
    detection), since most searches stop at a cap with nearly all of their
    queue unread.  States are expanded first in, first out, so a dequeued
    successor meets exactly the states built before it, as if it had been
    checked when it was found.  The one event inside an expansion that
    depends on the order is the empty word, which a match of the whole
    state against a whole rotated relator gives: such a state is a rotation
    of an oriented relator, and only there are the matches counted one by
    one, in order, up to that match or the cap.  The kept part of the state and
    the replacement are both reduced, so a successor cancels only at their
    junction and around the wrap.

    Budgets: ``max_steps`` states expanded (10,000 by default),
    ``max_states`` matches counted as states are expanded (by default
    ``max(2000, 10 * max_steps)``), ``max_length`` letters per state; any
    other key raises DomainError.  ``budget_exhausted`` is set when a cap
    stops the search or a dequeued successor is clipped for its length, so
    ``unknown`` without it means the search ran out of states within the budget.
    """
    word = as_word(w)
    if not word.is_cyclically_reduced():
        raise DomainError("bounded_triviality expects a cyclically reduced word")
    budget = budget or {}
    check_triviality_budget(budget)
    max_length = budget.get("max_length", 3 * relators.maxlen)
    max_steps = budget.get("max_steps", 10_000)
    max_states = budget.get("max_states", max(2000, 10 * max_steps))

    start = min_cyclic_rotation(word.letters)
    if not start:
        return TrivialityVerdict("trivial", (), 0, False)
    rules, firsts, whole_relators = _rewrite_rules(relators)

    # parents[state] is (before, relator index, inverted, rotation,
    # position, overlap) of the step that first built it.
    parents: dict[tuple[int, ...], tuple | None] = {start: None}
    expanded: deque[tuple[int, ...]] = deque()

    def queued() -> Iterator[tuple]:
        # The matches of the expanded states, first in, first out; the
        # deque grows while it is read.
        while expanded:
            yield from _matches(rules, expanded.popleft())

    successors = queued()
    state = start
    steps = 0
    built = 0
    clipped = False
    while True:
        steps += 1
        if steps > max_steps or built > max_states:
            return TrivialityVerdict("unknown", None, steps - 1, True)
        if state in whole_relators and max_length >= 0:
            # The empty word is a successor (clipped only by a negative
            # max_length): the search ends at its match or at the cap.
            k = len(state)
            doubled = state + state
            for _, rule, pos in _matches(rules, state):
                word, rot = rule[4], rule[2]
                if len(word) == 2 * k and word[rot:rot + k] == doubled[pos:pos + k]:
                    parents[()] = (state, *rule[:3], pos, 1)
                    witness = []
                    cur: tuple[int, ...] = ()
                    while parents[cur] is not None:
                        before, *step = parents[cur]
                        witness.append(RewriteStep(before, cur, *step))
                        cur = before
                    return TrivialityVerdict(
                        "trivial", tuple(reversed(witness)), steps, False)
                built += 1
                if built > max_states:
                    return TrivialityVerdict("unknown", None, steps, True)
        else:
            built += sum(firsts.get(x, 0) for x in state)
            if built > max_states:
                # The rest of the state goes unexpanded: a cut search.
                return TrivialityVerdict("unknown", None, steps, True)
        expanded.append(state)
        for before, rule, pos in successors:
            ridx, invflag, rot, _, word, inverse = rule
            L = len(word) // 2
            # The kept part ends with the letter before the match and the
            # replacement starts with the inverse of the rotated word's last
            # letter: they cancel when those two letters are equal. The
            # replacement is the inverse of the rotated word's last L - 1
            # letters, which the doubled inverse holds from L - rot on.
            junction = before[pos - 1] == word[rot + L - 1]
            kept = before[pos + 1:] + before[:pos]
            replacement = inverse[L - rot:2 * L - rot - 1]
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
            state = min_cyclic_rotation(linear)
            if len(state) > max_length:
                clipped = True
                continue
            if state in parents:
                continue
            parents[state] = (before, ridx, invflag, rot, pos, 1)
            break
        else:
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
    labels = [d.dart_labels[x] for x in d.complex.outer]
    n = len(labels)
    doubled = labels + labels
    return [longest_readable_prefix(graph, doubled[start:start + n]) for start in range(n)]


def certify_bilipschitz(relators: RelatorSet, graph: LabeledGraph, max_faces: int,
                        lam: float) -> BilipschitzReport:
    """Check |p| <= lam/(1+lam) * |dD| over all reduced disk distortion
    diagrams with at most max_faces faces; vacuously true with no diagrams,
    but a graph that is not label-deterministic, a lam that is not a finite
    number > 0, or a face bound below 1 is refused at once."""
    if not 0 < lam < math.inf:
        raise DomainError(f"lambda must be a finite number > 0, got {lam!r}")
    if max_faces < 1:
        raise DomainError(f"need K >= 1, got K={max_faces}")
    if graph.out_map() is None:
        raise DomainError("reading words requires a label-deterministic graph")
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
