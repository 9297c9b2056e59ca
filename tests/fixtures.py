"""Shared hand-built diagram fixtures."""

from __future__ import annotations

from freiheit.abstract_diagrams import (AbstractDiagram, AbstractDistortionDiagram,
                                        _one_face_abstract)
from freiheit.complexes import PlanarComplex, check_complex, glue_face


def three_face_example() -> AbstractDistortionDiagram:
    """Two hexagons labeled 1 sharing a vertical edge, plus a hexagon
    labeled 2 attached below along one edge of each.

    The right-hand face is stored with sign -1: its positive boundary runs
    clockwise in the drawing, so the shared vertical edge is decorated
    (1, 4) upward by the left face and (1, 3) upward by the right one.
    Expected classification: not-free-to-fill = {(1,4), (2,1), (2,2)}.
    """
    face_left = (0, 2, 4, 6, 8, 10)
    face_right = (21, 19, 17, 7, 15, 13)
    face_bottom = (14, 5, 22, 24, 26, 28)
    outer = (11, 9, 16, 18, 20, 12, 29, 27, 25, 23, 3, 1)
    c = PlanarComplex((face_left, face_right, face_bottom), outer)
    assert check_complex(c).ok
    ad = AbstractDiagram(c, ((1, 1), (1, -1), (2, 1)))
    return AbstractDistortionDiagram(ad, 0, 0)


def two_square_pair(sign: int, arc_pos: int, rotation: int) -> AbstractDiagram:
    """Two squares with abstract index 1 sharing one edge.

    Built by gluing a second length-4 face onto a 4-gon along a single
    boundary edge.  With ``sign=-1`` the faces are mirror images: the pair
    is reducible exactly when ``rotation == arc_pos``.  With ``sign=+1``
    the positive boundaries traverse the shared edge by opposite darts:
    the shared edge carries one abstract letter twice (the unfillable
    pattern) exactly when ``rotation == 3 - arc_pos``.
    """
    base = _one_face_abstract(4)
    ad = AbstractDiagram(glue_face(base.complex, arc_pos, 1, 4, rotation),
                         base.face_labels + ((1, sign),))
    assert check_complex(ad.complex).ok
    return ad


def reducible_pair() -> AbstractDiagram:
    return two_square_pair(sign=-1, arc_pos=0, rotation=0)


def irreducible_mirror_pair() -> AbstractDiagram:
    return two_square_pair(sign=-1, arc_pos=0, rotation=2)


def unfillable_pair() -> AbstractDiagram:
    return two_square_pair(sign=1, arc_pos=0, rotation=3)


def fillable_aligned_pair() -> AbstractDiagram:
    return two_square_pair(sign=1, arc_pos=0, rotation=1)
