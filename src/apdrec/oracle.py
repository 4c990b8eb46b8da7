"""Directional augmented persistence diagrams and the query oracle.

The augmented diagram keeps every zero-persistence pair, so each simplex of
the complex shows up as exactly one birth or death event.  Pairing is plain
left-to-right boundary-matrix reduction over Z/2 on a compatible index
filtration; columns are bitmask integers.

The kernel runs on integers.  A BoundaryTable, built once per complex,
holds the coordinates scaled by their common denominator, the simplices in
(dimension, vertex tuple) order and each simplex's facets as indices into
that order.  A query scales its direction to integers too, so every height
is an exact integer multiple of one positive rational.  Only the order and
the equality of heights decide the filtration and the pairing, and a
positive scale keeps both, so the integer run gives the same pairs; the
emitted heights are divided back exactly, one Fraction per distinct height.

The oracle answers every query from scratch and logs it once.  The log is
the one accounting object of a reconstruction: each stage opens a labelled
span, and every answered query counts in the latest span.  The lifted oracle
of the codimension-zero pass shares the log of the oracle it came from.
"""

from __future__ import annotations

import math
import operator
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

    The definition, in rationals; the kernel computes the same heights as
    integers.  Raises InvalidInput for a zero direction or one whose length
    is not the ambient dimension of the complex.
    """
    _check_direction(direction, complex_.ambient_dim)
    vh = {v: dot(direction, p) for v, p in complex_.vertices.items()}
    return {s: max(vh[v] for v in s) for s in complex_.simplices}


def index_filtration(heights: Dict[Simplex, Fraction]) -> List[Simplex]:
    """Total order compatible with the lower-star filtration of the heights.

    Sorted by (height, dimension, vertex tuple); the dimension tie-break puts
    faces before cofaces within one height class.  Any other compatible
    choice yields the same augmented diagram.  The kernel sorts in this
    order too, by (integer height, static index).
    """
    return sorted(heights, key=lambda s: (heights[s], len(s), s))


def _check_direction(direction: Direction, ambient_dim: int) -> None:
    if is_zero(direction):
        raise InvalidInput("query direction must be nonzero")
    if len(direction) != ambient_dim:
        raise InvalidInput("direction has wrong ambient dimension")


class BoundaryTable:
    """The static part of the kernel for one complex, built once.

    ``simplices`` lists the simplices in (dimension, vertex tuple) order, the
    vertices first; a simplex's position there is its static index.
    ``facets[j]`` holds the static indices of the facets of simplex j (empty
    for a vertex), and ``dims[j]`` its dimension.  ``coords`` holds each
    vertex's coordinates times ``scale``, the common denominator L of all
    coordinates, so every entry is an int.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.ambient_dim = complex_.ambient_dim
        self.simplices = sorted(complex_.simplices, key=lambda s: (len(s), s))
        index = {s: i for i, s in enumerate(self.simplices)}
        self.facets = [
            tuple(index[f] for f in facets(s)) if len(s) > 1 else ()
            for s in self.simplices
        ]
        self.dims = [len(s) - 1 for s in self.simplices]
        rows = [complex_.vertices[s[0]] for s in self.simplices if len(s) == 1]
        self.scale = math.lcm(*(x.denominator for row in rows for x in row))
        self.coords = [
            tuple(x.numerator * (self.scale // x.denominator) for x in row)
            for row in rows
        ]


def _heights(table: BoundaryTable, direction: Sequence[int]) -> List[int]:
    """Integer lower-star height of every simplex, in static order.

    A vertex's height is its dot product with the direction.  The vertex of
    largest height in a simplex of two or more vertices lies in at least one
    of any two of its facets, so the maximum over the first two facets
    is the simplex's height; the facets come earlier in static order.
    """
    heights = [sum(map(operator.mul, direction, row)) for row in table.coords]
    for f in table.facets[len(heights) :]:
        a, b = heights[f[0]], heights[f[1]]
        heights.append(a if a > b else b)
    return heights


def _reduce_pairs(
    order: Sequence[int], table: BoundaryTable
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Z/2 column reduction over the filtration ``order`` of static indices.

    Columns are bitmask integers over filtration positions, built from the
    table's facet indices.  Returns (birth, death) position pairs and the
    essential positions.
    """
    position = [0] * len(order)
    for i, s in enumerate(order):
        position[s] = i
    facet_table = table.facets
    pairs: List[Tuple[int, int]] = []
    reduced_by_low: Dict[int, int] = {}
    paired = bytearray(len(order))
    for j, s in enumerate(order):
        col = 0
        for f in facet_table[s]:
            col ^= 1 << position[f]
        while col:
            low = col.bit_length() - 1
            other = reduced_by_low.get(low)
            if other is None:
                reduced_by_low[low] = col
                pairs.append((low, j))
                paired[low] = paired[j] = 1
                break
            col ^= other
    essentials = [i for i in range(len(order)) if not paired[i]]
    return pairs, essentials


def _emit_points(
    order: Sequence[int],
    pairs: Iterable[Tuple[int, int]],
    essentials: Iterable[int],
    heights: Sequence[int],
    table: BoundaryTable,
    denominator: int,
) -> Tuple[DiagramPoint, ...]:
    """Diagram points sorted by (dim, birth, death), from integer heights.

    The points are sorted by integer keys, an essential class keyed by a
    death above every height, and each distinct height becomes one
    ``Fraction(h, denominator)``.
    """
    dims = table.dims
    top = max(heights, default=0) + 1
    keys = [
        (dims[order[i]], heights[order[i]], heights[order[j]]) for i, j in pairs
    ]
    keys.extend((dims[order[i]], heights[order[i]], top) for i in essentials)
    keys.sort()
    value = {h: Fraction(h, denominator) for h in set(heights)}
    value[top] = INF
    return tuple(DiagramPoint(k, value[b], value[d]) for k, b, d in keys)


def compute_apd(
    complex_: SimplicialComplex,
    direction: Direction,
    order: Optional[Sequence[Simplex]] = None,
) -> AugmentedDiagram:
    """Augmented persistence diagram of the lower-star filtration.

    ``order`` replaces the default index filtration by another compatible
    one; any face-respecting permutation of equal-height simplices gives the
    identical multiset, which is what the tie-break tests check.

    The kernel works in integers.  With L the common denominator of the
    coordinates and D that of the direction, every height is an integer
    divided by D * L.  Multiplying all heights by the positive D * L keeps
    their order and their ties, and the filtration order and the reduction
    depend on nothing else, so the integer run pairs the same simplices as
    a run on the rational heights.  Each emitted height is divided back by
    D * L exactly, so the diagram is the one of the rational heights.
    """
    return _apd(BoundaryTable(complex_), direction, order)


def _apd(
    table: BoundaryTable,
    direction: Direction,
    order: Optional[Sequence[Simplex]] = None,
) -> AugmentedDiagram:
    """compute_apd on a complex's BoundaryTable, which the Oracle keeps."""
    direction = tuple(Fraction(x) for x in direction)
    _check_direction(direction, table.ambient_dim)
    d_scale = math.lcm(*(x.denominator for x in direction))
    heights = _heights(
        table, [x.numerator * (d_scale // x.denominator) for x in direction]
    )
    if order is None:
        filtration = sorted(range(len(heights)), key=heights.__getitem__)
    elif len(order) != len(table.simplices) or set(order) != set(table.simplices):
        raise InvalidInput("order is not a permutation of the complex")
    else:
        index = {s: i for i, s in enumerate(table.simplices)}
        filtration = [index[s] for s in order]
    pairs, essentials = _reduce_pairs(filtration, table)
    points = _emit_points(
        filtration, pairs, essentials, heights, table, d_scale * table.scale
    )
    return AugmentedDiagram(direction, points)


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
        self._table = BoundaryTable(complex_)
        self.log = QueryLog()

    @property
    def ambient_dim(self) -> int:
        return self._complex.ambient_dim

    def query(self, direction) -> AugmentedDiagram:
        dgm = _apd(self._table, direction)
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
