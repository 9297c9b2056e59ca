"""Planar 2-complexes as combinatorial maps.

A complex stores its inner face boundaries as dart cycles and the designated
outer face walk; darts (directed edge sides) are paired by the involution
alpha: 2i <-> 2i+1.  Every dart belongs to exactly one stored cycle; the
cycles are the orbits of the face permutation phi, and the vertices are the
orbits of sigma = phi o alpha, so the vertex of every dart is derived rather
than stored.

For a connected map the stored cycles describe a planar, simply connected
complex exactly when Euler's formula V - E + F = 2 holds with the outer face
counted.

Concrete and abstract van Kampen diagrams are labelling layers over this
module: both give every inner face a signed index (index >= 1, sign +-1;
a face with sign -1 is read along its mirrored cycle), and concrete
diagrams add a letter per dart.  The planar-map machinery they share lives
here: a diagram with a boundary subpath, the one-face polygon, gluing a
face along a boundary arc, the level-by-level search with canonical-key
deduplication, the mirror-pair test, canonical codes and the map half of
the JSON codec.

A canonical code is the least rooted code over the outer roots of the map
and of its mirror.  Its fields are, in order: the dart count; the outer
reading, the outer boundary read from the root (dart letters for a
concrete diagram, and for a map without letters the (length, sign) of the
face across each outer dart); the involution in breadth-first order; the
inner faces; the outer walk; and the dart letters.  No field holds the vertices:
they are the orbits of phi o alpha, which the involution, the faces and
the outer walk fix.
The reading is read off the outer cycle alone, so only the roots whose
reading is the least rotation are serialized at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class PlanarComplex:
    faces: tuple[tuple[int, ...], ...]
    outer: tuple[int, ...]

    @cached_property
    def num_darts(self) -> int:
        return sum(len(cycle) for cycle in self.all_cycles())

    @property
    def num_edges(self) -> int:
        return self.num_darts // 2

    @cached_property
    def dart_vertex(self) -> tuple[int, ...]:
        """The tail vertex of every dart: the orbits of sigma, numbered in
        order of their least dart."""
        sigma = rotation_next(self)
        vertex = [-1] * self.num_darts
        count = 0
        for d in range(self.num_darts):
            if vertex[d] == -1:
                while vertex[d] == -1:
                    vertex[d] = count
                    d = sigma[d]
                count += 1
        return tuple(vertex)

    @cached_property
    def num_vertices(self) -> int:
        return max(self.dart_vertex, default=-1) + 1

    def head(self, d: int) -> int:
        return self.dart_vertex[d ^ 1]

    def tail(self, d: int) -> int:
        return self.dart_vertex[d]

    def all_cycles(self) -> tuple[tuple[int, ...], ...]:
        return self.faces + (self.outer,)

    @cached_property
    def phi(self) -> list[int] | None:
        """The face permutation, built once per map."""
        return face_permutation(self)


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    violation: str | None = None
    detail: str = ""


def face_permutation(c: PlanarComplex) -> list[int] | None:
    """phi: dart -> next dart in its cycle; None if darts are not partitioned.

    The cycles list ``num_darts`` darts in all, so they partition
    0..num_darts-1 exactly when every id is in range and every slot is
    written: a repeated dart leaves a slot at -1, and a negative id, which
    Python wraps onto a slot, is written as its predecessor's successor, so
    one test for a negative entry covers both."""
    phi = [-1] * c.num_darts
    try:
        for cycle in c.all_cycles():
            for d, e in zip(cycle, cycle[1:] + cycle[:1]):
                phi[d] = e
    except IndexError:
        return None
    if min(phi, default=0) < 0:
        return None
    return phi


def check_complex(c: PlanarComplex) -> ComplexReport:
    if c.num_darts % 2 != 0:
        return ComplexReport(False, "involution", "odd number of darts")
    if any(len(cycle) == 0 for cycle in c.all_cycles()):
        return ComplexReport(False, "involution", "empty face cycle")
    phi = c.phi
    if phi is None:
        return ComplexReport(False, "involution",
                             "darts are not partitioned by the face cycles")
    # Connectivity over alpha and phi.
    if c.num_darts:
        stack = [0]
        reach = {0}
        while stack:
            d = stack.pop()
            for e in (d ^ 1, phi[d]):
                if e not in reach:
                    reach.add(e)
                    stack.append(e)
        if len(reach) != c.num_darts:
            return ComplexReport(False, "connectivity", "complex is disconnected")
    euler = c.num_vertices - c.num_edges + len(c.faces) + 1
    if euler != 2:
        return ComplexReport(False, "euler", f"V - E + F = {euler} != 2")
    return ComplexReport(True)


def mirror_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    return tuple((d ^ 1) for d in reversed(cycle))


def mirror_complex(c: PlanarComplex) -> PlanarComplex:
    """The reflected map: every cycle reversed through the involution.

    Its face permutation is the parent's read backwards: where phi takes
    e to phi[e], the mirror takes phi[e] ^ 1 to e ^ 1."""
    mirror = PlanarComplex(tuple(mirror_cycle(f) for f in c.faces), mirror_cycle(c.outer))
    phi = c.phi
    if phi is not None:
        mirror_phi = [0] * len(phi)
        for e, f in enumerate(phi):
            mirror_phi[f ^ 1] = e ^ 1
        vars(mirror)["phi"] = mirror_phi  # where cached_property keeps its value
    return mirror


def rotation_next(c: PlanarComplex) -> list[int]:
    """sigma = phi o alpha: the next dart counterclockwise at each tail vertex."""
    phi = c.phi
    if phi is None:
        raise DomainError("complex darts are not partitioned by face cycles")
    return [phi[d ^ 1] for d in range(c.num_darts)]


class FaceLabelledMap:
    """The reading shared by concrete and abstract diagrams: a ``complex``
    whose inner faces carry ``face_labels``, one (index >= 1, sign) each."""

    @property
    def num_faces(self) -> int:
        return len(self.face_labels)

    def boundary_length(self) -> int:
        return len(self.complex.outer)

    def positive_boundary(self, face_pos: int) -> tuple[int, ...]:
        """The face's darts in reading order: a face with sign -1 is read
        along its mirrored cycle."""
        cycle = self.complex.faces[face_pos]
        return cycle if self.face_labels[face_pos][1] > 0 else mirror_cycle(cycle)


@dataclass(frozen=True)
class DistortionDiagram:
    """A diagram D, concrete or abstract, with a boundary subpath p: the
    ``p_length`` outer darts from outer position ``p_start`` on."""

    base: FaceLabelledMap
    p_start: int = 0
    p_length: int = 0

    def __post_init__(self):
        n = self.base.boundary_length()
        if not 0 <= self.p_length <= n:
            raise DomainError(f"p length {self.p_length} out of range 0..{n}")
        if not 0 <= self.p_start < max(n, 1):
            raise DomainError(f"p start {self.p_start} out of range")

    def p_darts(self) -> tuple[int, ...]:
        outer = self.base.complex.outer
        n = len(outer)
        return tuple(outer[(self.p_start + i) % n] for i in range(self.p_length))

    def p_edges(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.p_darts())

    def p_endpoints(self) -> frozenset[int]:
        if self.p_length == 0:
            return frozenset()
        darts = self.p_darts()
        c = self.base.complex
        return frozenset({c.tail(darts[0]), c.head(darts[-1])})


# ---------------------------------------------------------------------------
# Construction: the one-face polygon and gluing a face along a boundary arc.


def polygon(length: int) -> PlanarComplex:
    """One face bounded by ``length`` edges; dart 2i is its i-th side and
    the outer walk runs the other way round."""
    cycle = tuple(2 * i for i in range(length))
    outer = tuple((2 * i) ^ 1 for i in reversed(range(length)))
    return PlanarComplex((cycle,), outer)


def glue_face(c: PlanarComplex, start: int, arc_length: int, length: int,
              omega: int) -> PlanarComplex:
    """Glue a new ``length``-gon along the outer arc of ``arc_length`` darts
    from outer position ``start``.

    The new face reads the arc and then ``length - arc_length`` fresh darts
    (the j-th appended as dart ``num_darts + 2j``), stored rotated so that
    the arc begins at position ``omega`` of its cycle; the fresh part is
    embedded without self-identifications and replaces the arc in the outer
    walk.

    The child's face permutation is the parent's, relinked where the
    cycles changed: the new face, and the outer walk from the dart before
    the fresh part to the dart after it; its length is the child's dart
    count.
    """
    outer = c.outer
    n = len(outer)
    arc = tuple(outer[(start + i) % n] for i in range(arc_length))
    fresh = tuple(range(c.num_darts, c.num_darts + 2 * (length - arc_length), 2))
    glued_cycle = arc + fresh
    k = (length - omega) % length
    rest = tuple(outer[(start + arc_length + i) % n] for i in range(n - arc_length))
    new_outer = tuple((f ^ 1) for f in reversed(fresh)) + rest
    child = PlanarComplex(c.faces + (glued_cycle[k:] + glued_cycle[:k],), new_outer)
    phi = c.phi + [0] * (2 * len(fresh))
    for i in range(length):
        phi[glued_cycle[i - 1]] = glued_cycle[i]
    for i in range(-1, len(fresh)):
        phi[new_outer[i]] = new_outer[(i + 1) % len(new_outer)]
    vars(child)["phi"] = phi  # where cached_property keeps its values
    vars(child)["num_darts"] = len(phi)
    return child


def level_search(seeds: Iterable, candidates: Callable[[object], Iterable],
                 key: Callable[[object], object], max_faces: int) -> Iterator:
    """Grow one-face seeds a face per level up to ``max_faces`` faces.

    Yields every seed and every candidate, taken from ``candidates(x)`` for
    each ``x`` of the previous level, whose ``key`` has not been seen; the
    new ones form the next level, and those of the last level are not kept.
    """
    seen = set()
    frontier = []
    for x in seeds:
        k = key(x)
        if k not in seen:
            seen.add(k)
            frontier.append(x)
            yield x
    for level in range(2, max_faces + 1):
        nxt = []
        for x in frontier:
            for cand in candidates(x):
                k = key(cand)
                if k not in seen:
                    seen.add(k)
                    if level < max_faces:
                        nxt.append(cand)
                    yield cand
        frontier = nxt


def has_mirror_pair(d: FaceLabelledMap, period: Callable[[int], int]) -> bool:
    """True iff two faces with one index share a dart at the same position
    of their positive boundaries, positions compared modulo
    ``period(index)``: the faces are glued mirror-wise and cancel.

    The test over the whole map. The enumerations do not run it on the
    maps they build: a parent has no mirror pair, so a child can only
    gain one between its new face and the faces across its arc, and that
    is screened before the child is glued."""
    by_index: dict[int, list[int]] = {}
    for i, (idx, _) in enumerate(d.face_labels):
        by_index.setdefault(idx, []).append(i)
    for idx, members in by_index.items():
        if len(members) < 2:
            continue
        p = period(idx)
        positions = [{dart: j for j, dart in enumerate(d.positive_boundary(i))}
                     for i in members]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                for dart, ja in positions[a].items():
                    jb = positions[b].get(dart)
                    if jb is not None and (ja - jb) % p == 0:
                        return True
    return False


# ---------------------------------------------------------------------------
# Traversal codes.  A code is a renumbering-invariant serialization rooted at
# one outer position; canonical forms minimize over the roots of the map and
# its mirror, and over face-root rotations where the caller grants that
# freedom.


def _rooted_code(c: PlanarComplex, face_infos: Sequence[tuple], start_idx: int,
                 reading: tuple, dart_labels: Sequence[int] | None):
    """Serialize the map rooted at outer position ``start_idx``, given its
    outer reading from there.  The darts are numbered in breadth-first
    order from the root dart, over the involution and then the face
    permutation; a root that does not reach every dart raises DomainError.

    ``face_infos`` holds one (label, period) pair per inner face: ``label``
    is the face's signed index (index, sign) and ``period`` the rotation
    step under which the face cycle may be re-rooted without changing the
    object.  Each face is written from its allowed offset with the least
    number; the numbers are distinct, so that is its least rotation.
    """
    phi = c.phi
    start = c.outer[start_idx]
    order = [-1] * c.num_darts
    order[start] = 0
    queue = [start]
    for d in queue:
        e = d ^ 1
        if order[e] < 0:
            order[e] = len(queue)
            queue.append(e)
        e = phi[d]
        if order[e] < 0:
            order[e] = len(queue)
            queue.append(e)
    if len(queue) != c.num_darts:
        raise DomainError("cannot encode: complex is disconnected")
    number = order.__getitem__
    alpha_part = tuple([order[d ^ 1] for d in queue])

    faces_part = []
    for cycle, (label, period) in zip(c.faces, face_infos):
        numbers = list(map(number, cycle))
        off = numbers.index(min(numbers[::period]))
        faces_part.append((tuple(numbers[off:] + numbers[:off]), label))
    faces_part.sort()

    outer_part = tuple(map(number, c.outer[start_idx:] + c.outer[:start_idx]))

    label_part = None
    if dart_labels is not None:
        label_part = tuple(map(dart_labels.__getitem__, queue))

    return (c.num_darts, reading, alpha_part, tuple(faces_part), outer_part,
            label_part)


def _outer_readings(c: PlanarComplex, face_infos: Sequence[tuple],
                    dart_labels: Sequence[int] | None) -> tuple[list, list]:
    """The outer reading from outer position 0 of the map and of its mirror.

    With ``dart_labels`` it is the letters along the outer cycle.  Without,
    it is the (length, sign) of the inner face across each outer dart, or
    (0, 0) where the face across is the outer face again; it holds no face
    index, so renaming the indices leaves it alone.  The mirror's outer
    cycle is this one reversed through the involution, and each face keeps
    its length and flips its sign."""
    outer = c.outer
    if dart_labels is not None:
        return ([dart_labels[d] for d in outer],
                [dart_labels[d ^ 1] for d in reversed(outer)])
    across = [(0, 0)] * c.num_darts
    for cycle, ((_, sign), _) in zip(c.faces, face_infos):
        mark = (len(cycle), sign)
        for d in cycle:
            across[d ^ 1] = mark
    reading = [across[d] for d in outer]
    return reading, [(length, -sign) for length, sign in reversed(reading)]


def least_reading_codes(c: PlanarComplex, face_infos: Sequence[tuple],
                        dart_labels: Sequence[int] | None = None
                        ) -> list[tuple[int, tuple]]:
    """``(variant, code)`` for every root whose outer reading is the least
    rotation of the readings of the map (variant 0) and of its mirror
    (variant 1), whose faces carry the signs of ``face_infos`` flipped.

    The code's fields are the dart count, the outer reading from the root
    (``_outer_readings``), the involution, the faces, the outer walk and
    the dart letters; vertices are the orbits of phi o alpha, so the
    involution, the faces and the outer walk already fix them.  Every
    root's code starts with the same dart count, so only these roots can
    give the least code, and only they are serialized (``_rooted_code``);
    the mirror map is built only if one of its roots is among them.  The
    least reading starts with the least element of the two readings, so
    only the rotations that start there are compared, as in
    ``words.min_cyclic_rotation``.  A map the cycles do not partition, or
    with an empty outer walk, raises DomainError before any root is
    serialized, a disconnected one on the first root."""
    if c.phi is None:
        raise DomainError("cannot encode: darts not partitioned")
    n = len(c.outer)
    if not n:
        raise DomainError("cannot encode: empty outer walk")
    readings = _outer_readings(c, face_infos, dart_labels)
    first = min(min(readings[0]), min(readings[1]))
    least = None
    starts: list[tuple[int, int]] = []  # (variant, outer position) reading ``least``
    for variant in (0, 1):
        values = readings[variant]
        doubled = values * 2
        start_idx = -1
        for _ in range(values.count(first)):
            start_idx = values.index(first, start_idx + 1)
            rotated = doubled[start_idx:start_idx + n]
            if least is None or rotated < least:
                least = rotated
                starts = [(variant, start_idx)]
            elif rotated == least:
                starts.append((variant, start_idx))
    reading = tuple(least)

    variants = [(c, face_infos)]
    if starts[-1][0]:  # the mirror's starts come last
        variants.append((mirror_complex(c), [((idx, -sign), period)
                                             for (idx, sign), period in face_infos]))
    return [(variant, _rooted_code(*variants[variant], start_idx, reading, dart_labels))
            for variant, start_idx in starts]


def canonical_map_code(c: PlanarComplex, face_infos: Sequence[tuple],
                       dart_labels: Sequence[int] | None = None):
    """The least code over the outer roots of the map and of its mirror:
    the least of ``least_reading_codes``."""
    return min(code for _, code in least_reading_codes(c, face_infos, dart_labels))


# ---------------------------------------------------------------------------
# JSON: the map half of the diagram formats.


def map_to_data(kind: str, c: PlanarComplex,
                face_labels: Sequence[tuple[int, int]]) -> dict:
    """The JSON object of a map with signed face indices; layers add their
    own fields (dart letters, a boundary subpath) before dumping it."""
    nxt = rotation_next(c)
    return {
        "type": kind,
        "num_vertices": c.num_vertices,
        "darts": [
            {"id": i, "inverse": i ^ 1, "vertex": c.dart_vertex[i],
             "next_at_vertex": nxt[i]}
            for i in range(c.num_darts)
        ],
        "faces": [
            {"id": i, "darts": list(cycle), "relator": idx, "sign": sign}
            for i, (cycle, (idx, sign)) in enumerate(zip(c.faces, face_labels))
        ],
        "outer_face": {"id": len(c.faces), "darts": list(c.outer)},
    }


def map_from_json(text: str, build: Callable):
    """Decode a map written by ``map_to_data`` and return
    ``build(complex, face_labels, data, darts)``, ``darts`` being the dart
    records in id order.

    Files are a trust boundary: the map must pass ``check_complex``, its
    stored rotation must be the one the faces derive, and its vertex ids
    0..V-1 must name the rotation orbits one-to-one.  The map keeps the
    derived numbering, in order of each orbit's least dart.  A malformed
    document, a missing key, a wrong type or a value ``build`` rejects all
    raise DomainError.
    """
    try:
        data = json.loads(text)
        darts = sorted(data["darts"], key=lambda rec: rec["id"])
        if [rec["id"] for rec in darts] != list(range(len(darts))):
            raise DomainError("dart ids must be 0..2E-1")
        if any(rec["inverse"] != rec["id"] ^ 1 for rec in darts):
            raise DomainError("dart pairing must be 2i <-> 2i+1")
        faces = sorted(data["faces"], key=lambda f: f["id"])
        face_labels = tuple((f["relator"], f["sign"]) for f in faces)
        c = PlanarComplex(tuple(tuple(f["darts"]) for f in faces),
                          tuple(data["outer_face"]["darts"]))
        vertices = [rec["vertex"] for rec in darts]
        numbers = [data["num_vertices"], *vertices,
                   *(d for cycle in c.all_cycles() for d in cycle),
                   *(x for label in face_labels for x in label)]
        if any(type(x) is not int for x in numbers):
            raise DomainError("vertices, darts and face labels must be integers")
        if any(idx < 1 or sign not in (1, -1) for idx, sign in face_labels):
            raise DomainError("face labels must be (index >= 1, sign +-1)")
        report = check_complex(c)
        if not report.ok:
            raise DomainError(f"not a planar complex ({report.violation}): "
                              f"{report.detail}")
        if [rec["next_at_vertex"] for rec in darts] != rotation_next(c):
            raise DomainError("next_at_vertex disagrees with the face cycles")
        # Now one record per dart: ids and orbits pair off one-to-one exactly
        # when the ids, the orbits and the (id, orbit) pairs each number V.
        v = c.num_vertices
        if (data["num_vertices"] != v or sorted(set(vertices)) != list(range(v))
                or len(set(zip(vertices, c.dart_vertex))) != v):
            raise DomainError(f"num_vertices and the vertex ids must name the {v} "
                              f"rotation orbits one-to-one as 0..{v - 1}")
        return build(c, face_labels, data, darts)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed diagram JSON: {exc!r}") from exc
