"""Vertex reconstruction from zero-dimensional diagram queries.

The oracle's dimension-0 births in a direction are exactly the vertex
heights there.  Tilting the sweep axis towards each remaining coordinate
axis keeps the vertex order fixed, so sorted birth lists can be matched
index by index and solved for one coordinate at a time.  The first
diagram, in e1, decides the basis: the standard run uses 2d - 1 queries,
and when first-axis heights collide a tilted basis is built from the e1 and
e2 births at the cost of 2 extra queries.  One coordinate loop serves both
bases.

Every diagram asked, the sweep first, goes into the reconstruction's
``CountLedger``, which the later stages read instead of the diagrams: by
the simplex-count correspondence every k-simplex is one event at the level
of its highest vertex, so a diagram's k-count at a vertex's level is the
number of k-simplices that vertex tops in its direction.  The ledger
locates each recovered vertex in each diagram once.

The stage reads the births of the axis and tilted diagrams as their integer
vertex heights over each diagram's denominator
(``AugmentedDiagram.vertex_heights``), and solves on those ints; the
ledger reads its levels through ``AugmentedDiagram.levels_of``.  Its only
Fractions are the directions it asks (the tilts s_t and b1, whose values
the query log records) and one per recovered coordinate.  Both tilts are
``geometry.tilt`` of their ``tilt_weight`` (n, q), divided by q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, List, Optional, Sequence, Tuple

from .errors import GeneralPositionViolated, InvalidInput, OracleInconsistency
from .geometry import (
    Direction,
    SweepFrame,
    Vector,
    basis_vector,
    dot,
    scale_to_integers,
    standard_frame,
    tilt,
    tilt_weight,
)
from .oracle import AugmentedDiagram, Oracle


def find_coordinate(
    i: int,
    base: AugmentedDiagram,
    oracle: Oracle,
    base_direction: Optional[Direction] = None,
    target: Optional[AugmentedDiagram] = None,
) -> Tuple[List[Fraction], List[AugmentedDiagram]]:
    """Recover coordinate i of every vertex, aligned with the base order.

    ``base`` is the diagram in the base direction (e1 unless a tilted basis
    is in play), whose vertex heights must be strictly increasing.  The
    tilt s_t towards e_i preserves their order, so the j-th sorted birth of
    Dgm0(s_t) belongs to the j-th vertex and, writing s_t = (1-eps) * base
    + eps * e_i with eps = n / q the ``tilt_weight`` of the base and e_i
    heights (s_t is ``tilt((n, q), base, e_i)`` divided by q),

        x_i[j] = (q * H_t[j] - (q - n) * H_b[j]) / n.

    Every diagram's vertex heights are read as ints over its
    denominator, B[j] / D_b for the base and T[j] / D_t for s_t, so the
    weight and the column are solved on ints: x_i[j] is ``(q * D_b * T[j] -
    (q - n) * D_t * B[j]) / (n * D_t * D_b)``, one Fraction each.

    Returns the coordinates and the diagrams asked, in order: two logged
    queries, e_i and s_t, or s_t alone when the e_i diagram is passed in as
    ``target``.  Raises InvalidInput unless 1 <= i <= d, and
    ParallelDirections when e_i is parallel to the base direction (i = 1 on
    the standard basis, whose first coordinates the vertex stage reads off
    the base diagram instead).

    The paper's find-coord algorithm; its direction step is the tilt s_t.
    """
    d = oracle.ambient_dim
    if not 1 <= i <= d:
        raise InvalidInput(f"coordinate index {i} out of range 1..{d}")
    e_i = basis_vector(d, i - 1)
    if base_direction is None:
        base_direction = basis_vector(d, 0)
    asked = []
    if target is None:
        target = oracle.query(e_i)
        asked.append(target)
    base_den, target_den = base.denominator, target.denominator
    heights = base.vertex_heights()
    target_heights = target.vertex_heights()
    if len(target_heights) != len(heights):
        raise OracleInconsistency("birth counts differ between directions")

    # the two lists on the one scale base_den * target_den
    n, q = tilt_weight(
        [b * target_den for b in heights], [t * base_den for t in target_heights]
    )
    s_t = tuple(Fraction(x, q) for x in tilt((n, q), base_direction, e_i))
    asked.append(oracle.query(s_t))
    tilted, tilted_den = asked[-1].vertex_heights(), asked[-1].denominator
    if len(tilted) != len(heights):
        raise OracleInconsistency("birth counts differ between directions")
    up, down = q * base_den, (q - n) * tilted_den
    den = n * tilted_den * base_den
    column = [Fraction(up * t - down * h, den) for t, h in zip(tilted, heights)]
    return column, asked


def create_unique_height_basis(
    births1: List[int], births2: List[int], d: int
) -> SweepFrame:
    """Sweep frame (b1, b2) whose first vector separates all vertices.

    ``births1`` and ``births2`` are the dimension-0 births in e1 and e2, on
    one common scale (the rational heights, or the integer heights of the
    two diagrams, whose denominators agree).  b1 is the tilt ``(1 - eps) * e1
    + eps * e2`` with eps = n / q their ``tilt_weight``, ``tilt((n, q), e1,
    e2)`` divided by q, so e1 ties are broken by e2 heights (distinct
    projected vertices); b2 is the exact -90 degree rotation of b1 inside
    the (e1, e2) plane.  Pure: it issues no query.
    """
    n, q = tilt_weight(births1, births2)
    e1, e2 = basis_vector(d, 0), basis_vector(d, 1)
    b1 = tuple(Fraction(x, q) for x in tilt((n, q), e1, e2))
    return SweepFrame(b1, (b1[1], -b1[0]) + b1[2:])


class CountLedger:
    """Where each recovered vertex sits in every diagram of a reconstruction.

    It holds the points scaled to ints once, ``scaled`` = L times each point
    for ``scale`` = L, the common denominator of their coordinates, and each
    diagram added, in order, with the level of every vertex in it, read
    with one ``AugmentedDiagram.levels_of`` call.  A vertex off a diagram's
    grid raises OracleInconsistency as the diagram is added: the diagram
    cannot be of the complex whose vertices were recovered.  The stages
    read every vertex count through it, and it checks the simplices they
    find.
    """

    def __init__(self, points: Sequence[Vector], diagrams: Sequence[AugmentedDiagram]):
        self.scaled, self.scale = scale_to_integers(points)
        self.diagrams: List[AugmentedDiagram] = []
        self.levels: List[List[int]] = []
        for dgm in diagrams:
            self.add(dgm)

    def add(self, dgm: AugmentedDiagram) -> None:
        """Locate every vertex in the diagram and keep both."""
        (s,), factor = scale_to_integers([dgm.direction])
        unit = self.scale * factor
        levels = dgm.levels_of([dot(s, p) for p in self.scaled], unit)
        if None in levels:
            raise OracleInconsistency(
                f"vertex {levels.index(None)} is off the grid in {dgm.direction}"
            )
        self.diagrams.append(dgm)
        self.levels.append(levels)

    def counts(self, k: int, i: int) -> List[int]:
        """Each vertex's k-count in diagram i: the number of k-simplices
        whose highest vertex it is in that diagram's direction."""
        row = self.diagrams[i].histogram.get(k)
        return [row[level] if row else 0 for level in self.levels[i]]

    def check(self, found: Collection[Tuple[int, ...]], k: int) -> None:
        """Raise OracleInconsistency unless every diagram counts exactly the
        found k-simplices at each level.

        Every k-simplex is one event at the level of its highest vertex, so
        row k of the histogram rebuilt from the found ones must be the
        diagram's.  It makes no query.
        """
        for dgm, levels in zip(self.diagrams, self.levels):
            row = [0] * len(dgm.heights)
            for simplex in found:
                row[max([levels[v] for v in simplex])] += 1
            if row != (dgm.histogram.get(k) or [0] * len(row)):
                raise OracleInconsistency(
                    f"the {k}-simplices found do not meet the diagram "
                    f"in {dgm.direction}"
                )


def vertex_stage(oracle: Oracle) -> Tuple[List[Vector], SweepFrame, CountLedger]:
    """Recover all vertex locations plus the sweep frame for later stages.

    The e1 births decide the basis: the standard frame when they are
    distinct, otherwise the tilted frame of create_unique_height_basis,
    which costs the e2 and b1 diagrams.  Returns the points sorted by
    increasing sweep height, the frame, and the ``CountLedger`` of the
    points and every diagram asked, the sweep diagram (the one in
    ``frame.u1``: e1, or b1 on a tie) first.  Two vertices with the same
    projection onto the (e1, e2) plane raise GeneralPositionViolated.
    Issues 2d - 1 logged queries, plus 2 on a tie, all in a "vertices" span
    of the log.
    """
    oracle.log.open("vertices")
    d = oracle.ambient_dim
    asked = [oracle.query(basis_vector(d, 0))]
    births1 = asked[0].vertex_heights()
    known = {1: asked[0]}
    if len(set(births1)) == len(births1):
        frame = standard_frame(d)
    else:
        known[2] = oracle.query(basis_vector(d, 1))
        asked.append(known[2])
        frame = create_unique_height_basis(births1, known[2].vertex_heights(), d)
        asked.insert(0, oracle.query(frame.u1))
    base = asked[0]
    heights = base.vertex_heights()
    if len(set(heights)) != len(heights):
        raise GeneralPositionViolated(
            "two vertices share a projection onto the (e1, e2) plane"
        )

    columns = []
    for i in range(1, d + 1):
        if frame.u1 == basis_vector(d, i - 1):
            columns.append(base.births(0))
        else:
            column, diagrams = find_coordinate(i, base, oracle, frame.u1, known.get(i))
            columns.append(column)
            asked += diagrams
    points = [tuple(col[j] for col in columns) for j in range(len(heights))]
    return points, frame, CountLedger(points, asked)
