"""Computations the benchmark checks the program's outputs against.

None of this imports freiheit. Words are tuples of nonzero ints (+i is the
generator x_i, -i its inverse), as in the program's data formats. The
algorithms differ from the program's on purpose: closed forms instead of
transfer matrices, a stack reducer, rotation by brute force instead of
Booth's algorithm, exact binomial tails instead of normal approximations.
"""

from __future__ import annotations

import math
from itertools import product


def inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def cyclic_core(word) -> tuple[int, ...]:
    """Free reduction by a stack, then the mutually inverse ends stripped."""
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    while len(stack) >= 2 and stack[0] == -stack[-1]:
        stack = stack[1:-1]
    return tuple(stack)


def least_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min((word[i:] + word[:i] for i in range(len(word))), default=())


def is_cyclically_reduced(word: tuple[int, ...]) -> bool:
    """Nonempty, and no letter is followed, cyclically, by its inverse."""
    n = len(word)
    if n < 2:
        return n == 1
    return all(word[i] != -word[(i + 1) % n] for i in range(n))


# ---------------------------------------------------------------------------
# Closed forms.


def cyclically_reduced_count(m: int, length: int) -> int:
    """Cyclically reduced words of one length L >= 1 over m generators:
    (2m-1)^L + 1 + (m-1)(1 + (-1)^L), the trace of the letter transfer matrix."""
    return (2 * m - 1) ** length + 1 + (m - 1) * (1 + (-1) ** length)


def ball_size(m: int, maxlen: int) -> int:
    """|B_l|: nonempty cyclically reduced words of length at most l."""
    return sum(cyclically_reduced_count(m, length) for length in range(1, maxlen + 1))


def collapse_class_size(m: int, r: int, maxlen: int) -> int:
    """Cyclically reduced words of length <= l with exactly one letter x_m^+-1
    and all others over the first r generators, for (m, r) = (2, 1), (3, 2).

    A word of length L >= 2 is the big letter (L positions, 2 signs) followed
    by a reduced word of length L - 1 over the first r generators: 2 of them
    for r = 1 (a power of x_1), 4 * 3^(L-2) for r = 2. Length 1 gives 2.
    """
    if (m, r) == (2, 1):
        per_length = lambda L: 4 * L
    elif (m, r) == (3, 2):
        per_length = lambda L: 8 * L * 3 ** (L - 2)
    else:
        raise ValueError(f"no closed form for m={m}, r={r}")
    return 2 + sum(per_length(L) for L in range(2, maxlen + 1))


def collapse_probability(m: int, r: int, maxlen: int, d: float) -> float:
    """P(a Bernoulli(|B_l|^(d-1)) relator set holds a collapse relator for
    x_m) = 1 - (1 - p)^C; with m = r + 1 that is the whole collapse event."""
    p = math.exp((d - 1.0) * math.log(ball_size(m, maxlen)))
    return -math.expm1(collapse_class_size(m, r, maxlen) * math.log1p(-p))


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail: min(P[X <= k], P[X >= k]) for X ~ Bin(n, p)."""
    pmf = [math.comb(n, i) * p ** i * (1.0 - p) ** (n - i) for i in range(n + 1)]
    return min(sum(pmf[:k + 1]), sum(pmf[k:]))


def rotation_classes(r: int, max_length: int) -> int:
    """Rotation classes of nonempty cyclically reduced words over the first r
    generators, of length at most max_length, by brute force."""
    letters = [x for x in range(-r, r + 1) if x]
    classes = set()
    for length in range(1, max_length + 1):
        for word in product(letters, repeat=length):
            if is_cyclically_reduced(word):
                classes.add(least_rotation(word))
    return len(classes)


# ---------------------------------------------------------------------------
# Output checks.


def replay_rewrites(relators: list[tuple[int, ...]], word, steps) -> bool:
    """True iff ``steps`` rewrite the cyclic word ``word`` to the empty word.

    Each step names a relator (1-based, optionally inverted), a rotation of
    it, a rotation of the current state and an overlap: the first ``overlap``
    letters u of both agree, and u (a prefix u v of a relator, so u = v^-1)
    is replaced by v^-1. States are compared as least rotations of cyclic
    cores.
    """
    state = least_rotation(cyclic_core(word))
    for st in steps:
        if tuple(st.before) != state or not 1 <= st.relator_index <= len(relators):
            return False
        rel = relators[st.relator_index - 1]
        if st.inverted:
            rel = inverse(rel)
        if not 1 <= st.overlap <= min(len(rel), len(state)):
            return False
        rel = rel[st.rotation:] + rel[:st.rotation]
        here = state[st.position:] + state[:st.position]
        if here[:st.overlap] != rel[:st.overlap]:
            return False
        state = least_rotation(cyclic_core(here[st.overlap:] + inverse(rel[st.overlap:])))
        if tuple(st.after) != state:
            return False
    return state == ()


def disk_diagram_fault(num_vertices: int, dart_vertex, faces, outer, dart_labels,
                       face_labels, relators: list[tuple[int, ...]]) -> str | None:
    """The first way a concrete diagram fails to be a reduced disk diagram
    over ``relators``, or None.

    Darts 2e and 2e+1 are the two sides of edge e; ``faces`` are dart cycles
    with (1-based relator, sign) labels, a sign -1 face reading the inverse
    relator; ``outer`` is the outer walk.
    """
    nd = len(dart_vertex)
    nxt = {}
    for cycle in list(faces) + [outer]:
        for i, d in enumerate(cycle):
            if d in nxt or not 0 <= d < nd:
                return f"dart {d} is not on exactly one cycle"
            nxt[d] = cycle[(i + 1) % len(cycle)]
            if dart_vertex[d ^ 1] != dart_vertex[nxt[d]]:
                return f"cycle breaks after dart {d}"
    if len(nxt) != nd:
        return "some dart lies on no cycle"
    seen, corners = set(), 0
    for d in range(nd):
        if d not in seen:
            corners += 1
            while d not in seen:
                seen.add(d)
                d = nxt[d ^ 1]
    if corners != num_vertices or set(dart_vertex) != set(range(num_vertices)):
        return f"{corners} vertex orbits for {num_vertices} vertices"
    if num_vertices - nd // 2 + len(faces) != 1:
        return f"Euler characteristic {num_vertices - nd // 2 + len(faces)} != 1"
    if any(dart_labels[d ^ 1] != -dart_labels[d] for d in range(nd)):
        return "an edge's two darts are not mutually inverse"
    positive = []
    for cycle, (idx, sign) in zip(faces, face_labels):
        rel = relators[idx - 1]
        read = tuple(dart_labels[d] for d in cycle)
        if sign < 0:
            read = inverse(read)
        if least_rotation(read) != least_rotation(rel):
            return f"a face reads {read}, not a rotation of relator {idx}"
        positive.append(cycle if sign > 0 else tuple(d ^ 1 for d in reversed(cycle)))
    # A mirror pair: two faces of one relator whose positive boundaries pass
    # one dart and read the same word from it, so they cancel.
    def read_from(f: int, d: int) -> list[int]:
        i = positive[f].index(d)
        return [dart_labels[x] for x in positive[f][i:] + positive[f][:i]]

    at_dart: dict[int, list[int]] = {}
    for f, bound in enumerate(positive):
        for d in bound:
            at_dart.setdefault(d, []).append(f)
    for d, fs in at_dart.items():
        for a in fs:
            for b in fs:
                if a < b and face_labels[a][0] == face_labels[b][0] \
                        and read_from(a, d) == read_from(b, d):
                    return f"faces {a} and {b} are a mirror pair at dart {d}"
    return None
