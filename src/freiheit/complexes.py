"""Planar 2-complexes as combinatorial maps.

A complex stores darts (directed edge sides) with the involution given by
pairing dart 2i with 2i+1, the tail vertex of every dart, the inner face
boundaries as dart cycles, and the designated outer face walk.  Every dart
belongs to exactly one stored cycle; the cycles are the orbits of the face
permutation, so the vertex rotation system is derived rather than stored.

For a connected map the stored data describes a planar, simply connected
complex exactly when Euler's formula V - E + F = 2 holds with the outer face
counted and the derived rotation orbits match the declared vertices.

Concrete and abstract van Kampen diagrams are labelling layers over this
module: both give every inner face a signed index (index >= 1, sign +-1;
a face with sign -1 is read along its mirrored cycle), and concrete
diagrams add a letter per dart.  The planar-map machinery they share lives
here: the one-face polygon, gluing a face along a boundary arc, the
level-by-level search with canonical-key deduplication, the mirror-pair
test, canonical codes and the map half of the JSON codec.

A canonical code is the least rooted code over the outer roots (and the
mirror's).  Its first fields are the dart count and the vertex ids in
breadth-first order, one per dart for every root, so a root is dropped at
the first vertex id larger than the least sequence so far, and only the
roots that tie the least sequence are serialized in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class PlanarComplex:
    num_vertices: int
    dart_vertex: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]
    outer: tuple[int, ...]

    @property
    def num_darts(self) -> int:
        return len(self.dart_vertex)

    @property
    def num_edges(self) -> int:
        return len(self.dart_vertex) // 2

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
    """phi: dart -> next dart in its cycle; None if darts are not partitioned."""
    phi = [-1] * c.num_darts
    for cycle in c.all_cycles():
        for i, d in enumerate(cycle):
            if not 0 <= d < c.num_darts or phi[d] != -1:
                return None
            phi[d] = cycle[(i + 1) % len(cycle)]
    if any(x == -1 for x in phi):
        return None
    return phi


def check_complex(c: PlanarComplex) -> ComplexReport:
    if c.num_darts % 2 != 0:
        return ComplexReport(False, "involution", "odd number of darts")
    if any(not 0 <= v < c.num_vertices for v in c.dart_vertex):
        return ComplexReport(False, "involution", "dart tail out of range")
    if any(len(cycle) == 0 for cycle in c.all_cycles()):
        return ComplexReport(False, "involution", "empty face cycle")
    phi = c.phi
    if phi is None:
        return ComplexReport(False, "involution",
                             "darts are not partitioned by the face cycles")
    # Walk consistency: the head of each dart is the tail of its successor.
    for cycle in c.all_cycles():
        for i, d in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            if c.head(d) != c.tail(nxt):
                return ComplexReport(False, "involution",
                                     f"cycle breaks at dart {d} -> {nxt}")
    # Derived rotation orbits must match the declared vertex set.
    sigma = [phi[d ^ 1] for d in range(c.num_darts)]
    seen = [False] * c.num_darts
    orbits = 0
    for d in range(c.num_darts):
        if not seen[d]:
            orbits += 1
            x = d
            while not seen[x]:
                seen[x] = True
                x = sigma[x]
    if orbits != c.num_vertices:
        return ComplexReport(False, "euler",
                             f"rotation orbits {orbits} != vertices {c.num_vertices}")
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
    """The reflected map: every cycle reversed through the involution."""
    return PlanarComplex(
        c.num_vertices,
        c.dart_vertex,
        tuple(mirror_cycle(f) for f in c.faces),
        mirror_cycle(c.outer),
    )


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


# ---------------------------------------------------------------------------
# Construction: the one-face polygon and gluing a face along a boundary arc.


def polygon(length: int) -> PlanarComplex:
    """One face bounded by ``length`` edges; dart 2i is its i-th side and
    the outer walk runs the other way round."""
    dart_vertex = []
    for i in range(length):
        dart_vertex += [i, (i + 1) % length]
    cycle = tuple(2 * i for i in range(length))
    outer = tuple((2 * i) ^ 1 for i in reversed(range(length)))
    return PlanarComplex(length, tuple(dart_vertex), (cycle,), outer)


def glue_face(c: PlanarComplex, start: int, arc_length: int, length: int,
              omega: int) -> PlanarComplex:
    """Glue a new ``length``-gon along the outer arc of ``arc_length`` darts
    from outer position ``start``.

    The new face reads the arc and then ``length - arc_length`` fresh darts
    (the j-th appended as dart ``num_darts + 2j``), stored rotated so that
    the arc begins at position ``omega`` of its cycle; the fresh part is
    embedded without self-identifications and replaces the arc in the outer
    walk.
    """
    outer = c.outer
    n = len(outer)
    arc = tuple(outer[(start + i) % n] for i in range(arc_length))
    fresh_count = length - arc_length
    nd = c.num_darts
    nv = c.num_vertices
    dart_vertex = list(c.dart_vertex)
    prev = c.head(arc[-1])
    fresh = []
    for j in range(fresh_count):
        if j == fresh_count - 1:
            head = c.tail(arc[0])
        else:
            head = nv
            nv += 1
        dart_vertex += [prev, head]
        fresh.append(nd + 2 * j)
        prev = head
    glued_cycle = arc + tuple(fresh)
    k = (length - omega) % length
    rest = tuple(outer[(start + arc_length + i) % n] for i in range(n - arc_length))
    return PlanarComplex(nv, tuple(dart_vertex),
                         c.faces + (glued_cycle[k:] + glued_cycle[:k],),
                         tuple((f ^ 1) for f in reversed(fresh)) + rest)


def level_search(seeds: Iterable, candidates: Callable[[object], Iterable],
                 key: Callable[[object], object], max_faces: int) -> Iterator:
    """Grow one-face seeds a face per level up to ``max_faces`` faces.

    Yields every seed and every candidate, taken from ``candidates(x)`` for
    each ``x`` of the previous level, whose ``key`` has not been seen; the
    new ones form the next level.
    """
    seen = set()
    frontier = []
    for x in seeds:
        k = key(x)
        if k not in seen:
            seen.add(k)
            frontier.append(x)
            yield x
    for _level in range(2, max_faces + 1):
        nxt = []
        for x in frontier:
            for cand in candidates(x):
                k = key(cand)
                if k not in seen:
                    seen.add(k)
                    nxt.append(cand)
                    yield cand
        frontier = nxt


def has_mirror_pair(d: FaceLabelledMap, period: Callable[[int], int]) -> bool:
    """True iff two faces with one index share a dart at the same position
    of their positive boundaries, positions compared modulo
    ``period(index)``: the faces are glued mirror-wise and cancel."""
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
# one outer position; canonical forms minimize over roots (and mirrors, and
# face-root rotations where the caller grants that freedom).


def _root_order(phi: list[int], dart_vertex: Sequence[int], start: int,
                best: list[int] | None):
    """The darts in breadth-first order from dart ``start`` (over the
    involution, then the face permutation) and the vertex part of the code:
    each dart's tail vertex, vertices numbered by first appearance.

    The vertex part is compared id by id with ``best``, the least vertex part
    of the roots before.  Returns None at the first id larger than
    ``best``'s: no code of this root can be the minimum.  Otherwise returns
    the order, the vertex part and whether it ties ``best`` (True when there
    is no ``best``)."""
    placed = {start}
    queue = [start]
    vert_id = {dart_vertex[start]: 0}
    part = [0]
    tied = True
    for d in queue:
        for e in (d ^ 1, phi[d]):
            if e not in placed:
                placed.add(e)
                queue.append(e)
                v = vert_id.setdefault(dart_vertex[e], len(vert_id))
                if tied and best is not None:
                    b = best[len(part)]
                    if v > b:
                        return None
                    tied = v == b
                part.append(v)
    return queue, part, tied


def _rooted_code(c: PlanarComplex, face_infos: Sequence[tuple], start_idx: int,
                 queue: list[int], vert_part: list[int],
                 dart_labels: Sequence[int] | None, relabel_first_use: bool):
    """Serialize the map rooted at outer position ``start_idx``, given its
    breadth-first dart order ``queue`` and vertex part.

    ``face_infos`` holds one (label, period) pair per inner face: ``label``
    is the face's signed index (index, sign) and ``period`` the rotation
    step under which the face cycle may be re-rooted without changing the
    object.  With ``relabel_first_use`` the indices are renamed 1..k in
    order of first appearance (abstract-diagram isomorphism).
    """
    order = {d: i for i, d in enumerate(queue)}
    alpha_part = tuple(order[d ^ 1] for d in queue)

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
        label_part = tuple(dart_labels[d] for d in queue)

    return (c.num_darts, tuple(vert_part), alpha_part, tuple(faces_part),
            outer_part, label_part)


def canonical_map_code(c: PlanarComplex,
                       face_infos: Sequence[tuple],
                       dart_labels: Sequence[int] | None = None,
                       relabel_first_use: bool = False,
                       use_mirror: bool = True):
    """Minimum code over outer roots and (optionally) the mirror map, whose
    faces carry the signs of ``face_infos`` flipped.

    Every root's code starts with the same dart count and a vertex part of
    the same length, so only the roots with the least vertex part can give
    the minimum.  Each root's vertex part is built against the least one so
    far and the root is dropped at its first larger id (``_root_order``);
    only the roots that tie the least part are serialized
    (``_rooted_code``), and the minimum is taken over those.  A map the
    cycles do not partition raises DomainError before any root is built, a
    disconnected one on the first root, which is never dropped."""
    variants = [(c, face_infos)]
    if use_mirror:
        variants.append((mirror_complex(c), [((idx, -sign), period)
                                             for (idx, sign), period in face_infos]))
    best = None
    roots: list[tuple] = []  # the roots whose vertex part is ``best``
    for cc, infos in variants:
        phi = cc.phi
        if phi is None:
            raise DomainError("cannot encode: darts not partitioned")
        for start_idx, start in enumerate(cc.outer):
            found = _root_order(phi, cc.dart_vertex, start, best)
            if found is None:
                continue
            queue, part, tied = found
            if best is None:
                if len(queue) != cc.num_darts:
                    raise DomainError("cannot encode: complex is disconnected")
            elif tied:
                roots.append((cc, infos, start_idx, queue))
                continue
            best = part
            roots = [(cc, infos, start_idx, queue)]
    return min(_rooted_code(cc, infos, start_idx, queue, best, dart_labels,
                            relabel_first_use)
               for cc, infos, start_idx, queue in roots)


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

    Files are a trust boundary: the map must pass ``check_complex`` and its
    stored rotation must be the one the faces derive; a malformed document,
    a missing key, a wrong type or a value ``build`` rejects all raise
    DomainError.
    """
    try:
        data = json.loads(text)
        darts = sorted(data["darts"], key=lambda rec: rec["id"])
        if [rec["id"] for rec in darts] != list(range(len(darts))):
            raise DomainError("dart ids must be 0..2E-1")
        if any(rec["inverse"] != rec["id"] ^ 1 for rec in darts):
            raise DomainError("dart pairing must be 2i <-> 2i+1")
        faces = sorted(data["faces"], key=lambda f: f["id"])
        cycles = tuple(tuple(f["darts"]) for f in faces)
        face_labels = tuple((f["relator"], f["sign"]) for f in faces)
        c = PlanarComplex(data["num_vertices"],
                          tuple(rec["vertex"] for rec in darts), cycles,
                          tuple(data["outer_face"]["darts"]))
        numbers = [c.num_vertices, *c.dart_vertex,
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
        return build(c, face_labels, data, darts)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed diagram JSON: {exc!r}") from exc
