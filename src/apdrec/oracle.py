"""Directional augmented persistence diagrams and the query oracle.

The augmented diagram keeps every zero-persistence pair, so each simplex of
the complex shows up as exactly one birth or death event.  Pairing is plain
left-to-right boundary-matrix reduction over Z/2 on a compatible index
filtration; columns are bitmask integers.

The oracle answers every query from scratch and logs it once.  The log is
the one accounting object of a reconstruction: each stage opens a labelled
span, and every answered query counts in the latest span.  The lifted oracle
of the codimension-zero pass shares the log of the oracle it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .complexes import Simplex, SimplicialComplex, facets
from .errors import InvalidInput
from .geometry import Direction, Vector, dot, format_rational, is_zero

INF = math.inf


class DiagramPoint(NamedTuple):
    dim: int
    birth: Fraction
    death: object  # Fraction, or INF for essential classes

    @property
    def essential(self) -> bool:
        return self.death == INF

    @property
    def zero_persistence(self) -> bool:
        return self.death == self.birth


@dataclass(frozen=True)
class AugmentedDiagram:
    """Multiset of (dim, birth, death) points for one query direction."""

    direction: Direction
    points: Tuple[DiagramPoint, ...]

    def restrict(self, dim: int) -> "AugmentedDiagram":
        return AugmentedDiagram(
            self.direction, tuple(p for p in self.points if p.dim == dim)
        )

    def in_dim(self, dim: int) -> List[DiagramPoint]:
        return [p for p in self.points if p.dim == dim]

    def births(self, dim: int) -> List[Fraction]:
        return sorted(p.birth for p in self.points if p.dim == dim)

    def births_at(self, dim: int, height: Fraction) -> int:
        return sum(1 for p in self.points if p.dim == dim and p.birth == height)

    def deaths_at(self, dim: int, height: Fraction) -> int:
        return sum(
            1 for p in self.points if p.dim == dim and not p.essential and p.death == height
        )

    def count_at(self, k: int, height: Fraction) -> int:
        """Deaths at the height in dimension k-1 plus births there in dimension k.

        By the simplex-count correspondence this equals the number of
        k-simplices whose lower-star height is exactly the given value.
        """
        return self.deaths_at(k - 1, height) + self.births_at(k, height)

    def simplex_count(self, k: int) -> int:
        """Number of k-simplices: the height-free form of count_at."""
        finite_deaths = sum(1 for p in self.in_dim(k - 1) if not p.essential)
        return len(self.in_dim(k)) + finite_deaths

    def multiset(self) -> Dict[DiagramPoint, int]:
        out: Dict[DiagramPoint, int] = {}
        for p in self.points:
            out[p] = out.get(p, 0) + 1
        return out


# ---------------------------------------------------------------------------
# filtration and reduction


def lower_star_heights(
    complex_: SimplicialComplex, direction: Direction
) -> Dict[Simplex, Fraction]:
    """Height of each simplex: the maximum vertex height in the direction.

    Raises InvalidInput for a zero direction or one whose length is not the
    ambient dimension of the complex.
    """
    if is_zero(direction):
        raise InvalidInput("query direction must be nonzero")
    if len(direction) != complex_.ambient_dim:
        raise InvalidInput("direction has wrong ambient dimension")
    vh = {v: dot(direction, p) for v, p in complex_.vertices.items()}
    return {s: max(vh[v] for v in s) for s in complex_.simplices}


def index_filtration(heights: Dict[Simplex, Fraction]) -> List[Simplex]:
    """Total order compatible with the lower-star filtration of the heights.

    Sorted by (height, dimension, vertex tuple); the dimension tie-break puts
    faces before cofaces within one height class.  Any other compatible
    choice yields the same augmented diagram.
    """
    return sorted(heights, key=lambda s: (heights[s], len(s), s))


def _reduce_pairs(
    order: Sequence[Simplex],
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Z/2 column reduction; returns (birth, death) index pairs and essentials."""
    index_of = {s: i for i, s in enumerate(order)}
    pairs: List[Tuple[int, int]] = []
    pivot: Dict[int, int] = {}
    reduced: List[int] = [0] * len(order)
    paired = set()
    for j, simplex in enumerate(order):
        col = 0
        if len(simplex) > 1:
            for f in facets(simplex):
                col ^= 1 << index_of[f]
        while col:
            low = col.bit_length() - 1
            k = pivot.get(low)
            if k is None:
                break
            col ^= reduced[k]
        if col:
            low = col.bit_length() - 1
            pivot[low] = j
            reduced[j] = col
            pairs.append((low, j))
            paired.add(low)
            paired.add(j)
    essentials = [i for i in range(len(order)) if i not in paired]
    return pairs, essentials


def _emit_points(
    order: Sequence[Simplex],
    pairs: Iterable[Tuple[int, int]],
    essentials: Iterable[int],
    heights: Dict[Simplex, Fraction],
) -> Tuple[DiagramPoint, ...]:
    pts = []
    for i, j in pairs:
        si, sj = order[i], order[j]
        pts.append(DiagramPoint(len(si) - 1, heights[si], heights[sj]))
    for i in essentials:
        si = order[i]
        pts.append(DiagramPoint(len(si) - 1, heights[si], INF))
    pts.sort(key=lambda p: (p.dim, p.birth, p.death))
    return tuple(pts)


def compute_apd(
    complex_: SimplicialComplex,
    direction: Direction,
    order: Optional[Sequence[Simplex]] = None,
) -> AugmentedDiagram:
    """Augmented persistence diagram of the lower-star filtration.

    ``order`` replaces the default index filtration by another compatible
    one; any face-respecting permutation of equal-height simplices gives the
    identical multiset, which is what the tie-break tests check.
    """
    direction = tuple(Fraction(x) for x in direction)
    heights = lower_star_heights(complex_, direction)
    if order is None:
        order = index_filtration(heights)
    elif len(order) != complex_.n or set(order) != set(complex_.simplices):
        raise InvalidInput("order is not a permutation of the complex")
    pairs, essentials = _reduce_pairs(order)
    return AugmentedDiagram(direction, _emit_points(order, pairs, essentials, heights))


# ---------------------------------------------------------------------------
# parabolic lift


def lift(complex_: SimplicialComplex) -> SimplicialComplex:
    """Map each vertex v to (v, v.v); combinatorics unchanged."""
    lifted = {v: p + (dot(p, p),) for v, p in complex_.vertices.items()}
    return SimplicialComplex(complex_.ambient_dim + 1, lifted, complex_.simplices)


def lift_point(point: Vector) -> Vector:
    return tuple(point) + (dot(point, point),)


# ---------------------------------------------------------------------------
# oracle with query accounting


@dataclass
class QueryLog:
    """Every answered query, in order, attributed to the span open at the time.

    ``spans`` is the ordered list of [label, queries] pairs.  ``open`` starts
    a span, and each later query counts in it until the next one opens.  The
    vertex and edge stages open "vertices" and "edges"; each simplex
    predicate call opens one span labelled with its k.

    Diagram computation itself is pure; concurrent querying is safe exactly
    when the records are serialized (default use is single-threaded).
    """

    directions: List[Direction] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.directions)

    def open(self, label) -> None:
        self.spans.append([label, 0])

    def record(self, direction: Direction) -> None:
        self.directions.append(tuple(direction))
        if self.spans:
            self.spans[-1][1] += 1

    def queries(self, label) -> int:
        """Queries answered in all spans with the given label."""
        return sum(q for span_label, q in self.spans if span_label == label)

    @property
    def predicate_calls(self) -> List[Tuple[int, int]]:
        """(k, queries) of each simplex predicate call, in call order."""
        return [(k, q) for k, q in self.spans if isinstance(k, int)]


class Oracle:
    """Black box answering directional APD queries for a fixed complex.

    Reconstruction code only ever sees this interface.  Every answered query
    is logged once; an invalid direction raises before it is logged.
    """

    def __init__(self, complex_: SimplicialComplex):
        self._complex = complex_
        self.log = QueryLog()

    @property
    def ambient_dim(self) -> int:
        return self._complex.ambient_dim

    def query(self, direction) -> AugmentedDiagram:
        dgm = compute_apd(self._complex, direction)
        self.log.record(dgm.direction)
        return dgm

    def lifted(self) -> "Oracle":
        """Oracle answering for the parabolic lift; it shares this log."""
        lifted = Oracle(lift(self._complex))
        lifted.log = self.log
        return lifted


# ---------------------------------------------------------------------------
# diagram text format


def format_diagram(dgm: AugmentedDiagram) -> str:
    lines = ["direction " + " ".join(format_rational(x) for x in dgm.direction)]
    for p in dgm.points:
        death = "inf" if p.essential else format_rational(p.death)
        lines.append(f"{p.dim} {format_rational(p.birth)} {death}")
    return "\n".join(lines) + "\n"
