"""Vertex reconstruction from zero-dimensional diagram queries.

The oracle's dimension-0 births in a direction are exactly the vertex
heights there.  Tilting the sweep axis towards each remaining coordinate
axis keeps the vertex order fixed, so sorted birth lists can be matched
index by index and solved for one coordinate at a time.  The first
diagram, in e1, decides the basis: the standard run uses 2d - 1 queries,
and when first-axis heights collide a tilted basis is built from the e1 and
e2 births at the cost of 2 extra queries.  One coordinate loop serves both
bases, and every diagram asked, the sweep first, is returned for the later
stages.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import GeneralPositionViolated, InvalidInput, OracleInconsistency
from .geometry import (
    Direction,
    SweepFrame,
    Vector,
    basis_vector,
    standard_frame,
    tilt,
    tilt_weight,
)
from .oracle import AugmentedDiagram, Oracle


def find_coordinate(
    i: int,
    base_heights: List[Fraction],
    oracle: Oracle,
    base_direction: Optional[Direction] = None,
    target_births: Optional[List[Fraction]] = None,
) -> Tuple[List[Fraction], List[AugmentedDiagram]]:
    """Recover coordinate i of every vertex, aligned with the base order.

    ``base_heights`` are the strictly increasing vertex heights in the base
    direction (e1 unless a tilted basis is in play).  The tilt s_t towards
    e_i preserves that order, so the j-th sorted birth of Dgm0(s_t) belongs
    to the j-th vertex and, writing s_t = (1-eps) * base + eps * e_i with
    eps the ``tilt_weight`` of the base and e_i heights,

        x_i[j] = (H_t[j] - (1-eps) * base_heights[j]) / eps.

    Returns the coordinates and the diagrams asked, in order: two logged
    queries, e_i and s_t, or s_t alone when the e_i births are passed in.
    Raises InvalidInput unless 1 <= i <= d.
    """
    d = oracle.ambient_dim
    if not 1 <= i <= d:
        raise InvalidInput(f"coordinate index {i} out of range 1..{d}")
    e_i = basis_vector(d, i - 1)
    if base_direction is None:
        base_direction = basis_vector(d, 0)
    asked = []
    if target_births is None:
        asked.append(oracle.query(e_i))
        target_births = asked[0].births(0)
    if len(target_births) != len(base_heights):
        raise OracleInconsistency("birth counts differ between directions")

    eps = tilt_weight(base_heights, target_births)
    s_t = tuple((1 - eps) * a + eps * b for a, b in zip(base_direction, e_i))
    asked.append(oracle.query(s_t))
    tilted_births = asked[-1].births(0)
    if len(tilted_births) != len(base_heights):
        raise OracleInconsistency("birth counts differ between directions")
    column = [
        (ht - (1 - eps) * hb) / eps for ht, hb in zip(tilted_births, base_heights)
    ]
    return column, asked


def create_unique_height_basis(
    births1: List[Fraction], births2: List[Fraction], d: int
) -> SweepFrame:
    """Sweep frame (b1, b2) whose first vector separates all vertices.

    ``births1`` and ``births2`` are the dimension-0 births in e1 and e2.  b1
    is the tilt of e1 towards e2 built from them, so e1 ties are broken by
    e2 heights (distinct projected vertices); b2 is the exact -90 degree
    rotation of b1 inside the (e1, e2) plane.  Pure: it issues no query.
    """
    b1 = tilt(births1, births2, basis_vector(d, 0), basis_vector(d, 1))
    b2 = (b1[1], -b1[0]) + tuple(Fraction(0) for _ in range(d - 2))
    return SweepFrame(b1, b2)


def vertex_stage(
    oracle: Oracle,
) -> Tuple[List[Vector], SweepFrame, List[AugmentedDiagram]]:
    """Recover all vertex locations plus the sweep frame for later stages.

    The e1 births decide the basis: the standard frame when they are
    distinct, otherwise the tilted frame of create_unique_height_basis,
    which costs the e2 and b1 diagrams.  Returns the points sorted by
    increasing sweep height, the frame, and every diagram asked, the sweep
    diagram (the one in ``frame.u1``: e1, or b1 on a tie) first; the higher
    stage checks the simplices it finds against them.  Two vertices with the
    same projection onto the (e1, e2) plane raise GeneralPositionViolated.
    Issues 2d - 1 logged queries, plus 2 on a tie, all in a "vertices" span
    of the log.
    """
    oracle.log.open("vertices")
    d = oracle.ambient_dim
    asked = [oracle.query(basis_vector(d, 0))]
    births1 = asked[0].births(0)
    known = {1: births1}
    if len(set(births1)) == len(births1):
        frame = standard_frame(d)
    else:
        asked.append(oracle.query(basis_vector(d, 1)))
        known[2] = asked[-1].births(0)
        frame = create_unique_height_basis(births1, known[2], d)
        asked.insert(0, oracle.query(frame.u1))
    base = asked[0].births(0)
    if len(set(base)) != len(base):
        raise GeneralPositionViolated(
            "two vertices share a projection onto the (e1, e2) plane"
        )

    columns = []
    for i in range(1, d + 1):
        if frame.u1 == basis_vector(d, i - 1):
            columns.append(base)
        else:
            column, diagrams = find_coordinate(i, base, oracle, frame.u1, known.get(i))
            columns.append(column)
            asked += diagrams
    points = [tuple(col[j] for col in columns) for j in range(len(base))]
    return points, frame, asked
