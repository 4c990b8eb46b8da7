"""Directional augmented persistence diagrams and the query oracle.

The augmented diagram keeps every zero-persistence pair, so each simplex of
the complex shows up as exactly one birth or death event.  Pairing is
persistent cohomology over Z/2 on a compatible index filtration, with
clearing.  The edges are paired with the vertices by union-find with the
elder rule.  Then each dimension from one up to one below the top, lowest
first, reduces the coboundary columns of its simplices in decreasing
filtration position, skipping every simplex already paired as a death one
dimension down, since its column would reduce to zero.  Columns are bitmask
integers over the cofacets, the earliest cofacet the highest bit, and a
column's pivot is the death of its simplex.  Reducing coboundaries so is
the reduction of the anti-transposed boundary matrix, which has the same
pivot pairs (de Silva, Morozov and Vejdemo-Johansson, 2011), and the
pairing of a filtration is unique, so union-find, cohomology and clearing
leave the points as they are.  Cohomology is chosen for speed alone:
homology reduces the boundary column of every essential class to zero and
clearing cannot skip it, so a complex with many top-dimensional classes
pays for those zero columns on every query, while cohomology builds no
column of the top dimension at all.

A diagram's per-level simplex histogram is the only source of its counts:
by the simplex-count correspondence every k-simplex is exactly one event at
its lower-star height, so the k-simplices at each distinct height are what
``counts``, ``count_at``, ``simplex_count``, ``births(0)`` and the Euler
curve of ``descriptors`` read, and the histogram needs the heights alone.
Each query builds the diagram, histogram included, in ``_emit_points``, the
one place a diagram is made.  The pairing (the filtration sort,
``_reduce_pairs`` and the point keys and event rows) runs on first read of
``rows``, ``keys``, ``births(k)`` for k > 0 or ``points``, and its result
is kept.  The reconstruction stages read only the histogram, so they never
pair.

The kernel runs on integers.  A BoundaryTable, built once per complex,
holds the coordinates scaled by their common denominator, the simplices in
(dimension, vertex tuple) order and each simplex's facets as indices into
that order.  A query scales its direction to integers too, so every height
is an exact integer multiple of one positive rational.  Only the order and
the equality of heights decide the filtration and the pairing, and a
positive scale keeps both, so the integer run gives the same pairs.  The
diagram keeps the distinct integer heights with their denominator; a
height read from a diagram is scaled to that grid, every such read going
through ``AugmentedDiagram.levels_of``, and the heights are divided back
into Fractions only when levels or points are read.

The oracle answers every query from scratch and logs it once.  The log is
the one accounting object of a reconstruction: each stage opens a labelled
span, and every answered query counts in the latest span.  The lifted oracle
of the codimension-zero pass shares the log of the oracle it came from.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .complexes import Simplex, SimplicialComplex, facets
from .errors import InvalidInput
from .geometry import (
    Direction,
    Vector,
    dot,
    format_rational,
    is_zero,
    scale_to_integers,
)

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


class EventRow(NamedTuple):
    """One dimension's event counts, one entry per level."""

    births: List[int]
    deaths: List[int]  # finite deaths only
    zeros: List[int]  # zero-persistence pairs


# (dim, birth level, death level) of one point
Key = Tuple[int, int, int]
Pairing = Tuple[List[Key], Dict[int, EventRow]]


class AugmentedDiagram:
    """One direction's augmented persistence diagram, counted per height.

    ``heights`` are the distinct heights of the events as increasing ints
    over one positive ``denominator``.  ``histogram[k]`` counts the
    k-simplices at each level; it is the only source of the diagram's
    counts (``counts``, ``count_at``, ``simplex_count``, ``births(0)``), and
    a dimension without an entry has no simplices.

    ``keys`` and ``rows`` come from the pairing, which ``pairing`` runs with
    no argument on first read of either; both are kept.  ``keys`` holds one
    (dim, birth level, death level) triple per point, an essential class
    dying at level ``len(heights)``, and ``rows[k]`` counts the events of
    dimension k at each level; a dimension without a row has no events.  By
    the simplex-count correspondence ``histogram[k]`` is the deaths of
    ``rows[k-1]`` plus the births of ``rows[k]``.  ``points``, built from the
    keys on first read, sorted by (dim, birth, death), and kept, and
    ``births(k)`` for k > 0 pair the diagram; the reconstruction stages read
    only the histogram, so they never pair.

    ``levels``, the heights as Fractions, is built on first read and kept;
    ``level`` and ``levels_of`` find a height without it, and every reader
    of the integer grid goes through ``levels_of``.  Equality, hashing and
    the text form use the direction and the points.
    """

    __slots__ = (
        "direction",
        "heights",
        "denominator",
        "histogram",
        "_pairing",
        "_paired",
        "_levels",
        "_points",
    )

    def __init__(
        self,
        direction: Direction,
        heights: List[int],
        denominator: int,
        histogram: Dict[int, List[int]],
        pairing: Callable[[], Pairing],
    ):
        self.direction = direction
        self.heights = heights
        self.denominator = denominator
        self.histogram = histogram
        self._pairing: Optional[Callable[[], Pairing]] = pairing
        self._paired: Optional[Pairing] = None
        self._levels: Optional[List[Fraction]] = None
        self._points: Optional[Tuple[DiagramPoint, ...]] = None

    def _pair(self) -> Pairing:
        if self._paired is None:
            self._paired = self._pairing()
            self._pairing = None
        return self._paired

    @property
    def keys(self) -> List[Key]:
        return self._pair()[0]

    @property
    def rows(self) -> Dict[int, EventRow]:
        return self._pair()[1]

    @property
    def levels(self) -> List[Fraction]:
        if self._levels is None:
            self._levels = [Fraction(h, self.denominator) for h in self.heights]
        return self._levels

    @property
    def points(self) -> Tuple[DiagramPoint, ...]:
        if self._points is None:
            value = [*self.levels, INF]
            self._points = tuple(
                [DiagramPoint(k, value[b], value[d]) for k, b, d in sorted(self.keys)]
            )
        return self._points

    def __eq__(self, other):
        if not isinstance(other, AugmentedDiagram):
            return NotImplemented
        return self.direction == other.direction and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.direction, self.points))

    def __repr__(self) -> str:
        return f"AugmentedDiagram(direction={self.direction!r}, points={self.points!r})"

    def level(self, height) -> Optional[int]:
        """Index of the level equal to the height, or None off the grid.

        A finite float is read at its exact rational value, and INF or -INF
        is never on the grid.  Raises InvalidInput for a height that is not
        a number.
        """
        try:
            n, m = height.numerator, height.denominator
        except AttributeError:
            if not isinstance(height, float) or height != height:
                raise InvalidInput(f"height {height!r} is not a number") from None
            if math.isinf(height):
                return None
            n, m = height.as_integer_ratio()
        return self.levels_of([n], m)[0]

    def levels_of(
        self, numerators: Sequence[int], denominator: int
    ) -> List[Optional[int]]:
        """The index of the level equal to each numerator / denominator, for
        ints with denominator > 0, or None off the grid.

        A height x / denominator is the level h / ``self.denominator``
        exactly when x * n == h * m, for n / m the ratio
        ``self.denominator`` / denominator in lowest terms.  So the batch
        costs one gcd, then per numerator one floor division, giving the
        only h that can match, and one search of the integer levels for it;
        no Fraction is built.
        """
        g = math.gcd(self.denominator, denominator)
        n, m = self.denominator // g, denominator // g
        heights = self.heights
        top = len(heights)
        levels: List[Optional[int]] = []
        for x in numerators:
            x *= n
            i = bisect_left(heights, x // m)
            levels.append(i if i < top and heights[i] * m == x else None)
        return levels

    def vertex_heights(self) -> List[int]:
        """The vertex heights, increasing with multiplicity, as ints over
        ``denominator``: every vertex is one event at its own height."""
        counts = self.histogram.get(0, ())
        return list(chain.from_iterable(map(repeat, self.heights, counts)))

    def in_dim(self, dim: int) -> List[DiagramPoint]:
        return [p for p in self.points if p.dim == dim]

    def births(self, dim: int) -> List[Fraction]:
        """Birth heights of dimension dim, increasing, with multiplicity.

        Every vertex is a dimension-0 birth and nothing else is, so the
        dimension-0 births are the vertex heights and need no pairing.
        """
        if dim == 0:
            return [Fraction(h, self.denominator) for h in self.vertex_heights()]
        row = self.rows.get(dim)
        if row is None:
            return []
        return list(chain.from_iterable(map(repeat, self.levels, row.births)))

    def counts(self, k: int) -> List[int]:
        """Number of k-simplices at each level.

        By the simplex-count correspondence every k-simplex is exactly one
        event at its lower-star height, a death in dimension k-1 or a birth
        in dimension k, so this is the histogram's row k.
        """
        row = self.histogram.get(k)
        return list(row) if row else [0] * len(self.heights)

    def count_at(self, k: int, height: Fraction) -> int:
        """Number of k-simplices whose lower-star height is the given value:
        the entry of ``counts(k)`` at that level, read without the list."""
        level = self.level(height)
        row = self.histogram.get(k)
        return 0 if row is None or level is None else row[level]

    def simplex_count(self, k: int) -> int:
        """Number of k-simplices: the height-free form of count_at."""
        return sum(self.histogram.get(k, ()))

    def multiset(self) -> Dict[DiagramPoint, int]:
        out: Dict[DiagramPoint, int] = {}
        for p in self.points:
            out[p] = out.get(p, 0) + 1
        return out


# ---------------------------------------------------------------------------
# filtration and reduction


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
    for a vertex), and ``dims[j]`` its dimension; ``ranges[k]`` is the
    (start, end) of the static indices of dimension k.  ``coords`` holds each
    vertex's coordinates times ``scale``, the common denominator L of all
    coordinates, so every entry is an int.

    ``cofacets[j]``, the static indices of the cofacets of simplex j, serves
    the pairing alone; it is built on first read and kept, so a table that
    never pairs never builds it.
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
        self.ranges = [
            (bisect_left(self.dims, k), bisect_left(self.dims, k + 1))
            for k in range(self.dims[-1] + 1 if self.dims else 0)
        ]
        rows = [complex_.vertices[s[0]] for s in self.simplices if len(s) == 1]
        self.coords, self.scale = scale_to_integers(rows)
        self._cofacets: Optional[List[Tuple[int, ...]]] = None

    @property
    def cofacets(self) -> List[Tuple[int, ...]]:
        if self._cofacets is None:
            cofacets: List[List[int]] = [[] for _ in self.simplices]
            for j, fs in enumerate(self.facets):
                for f in fs:
                    cofacets[f].append(j)
            self._cofacets = [tuple(c) for c in cofacets]
        return self._cofacets


def _heights(
    table: BoundaryTable, direction: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Lower-star heights of every simplex: the distinct integer vertex
    heights, increasing, and each simplex's level among them, in static
    order.

    A vertex's height is its dot product with the direction.  The vertex of
    largest height in a simplex of two or more vertices lies in at least one
    of any two of its facets, so the larger level of the first two facets
    is the simplex's level; the facets come earlier in static order.  Levels
    order and tie the simplices as their heights do.
    """
    heights = [sum(map(operator.mul, direction, row)) for row in table.coords]
    distinct = sorted(set(heights))
    index = {h: i for i, h in enumerate(distinct)}
    level = list(map(index.__getitem__, heights))
    for f in table.facets[len(level) :]:
        a, b = level[f[0]], level[f[1]]
        level.append(a if a > b else b)
    return distinct, level


def _reduce_pairs(
    order: Sequence[int], table: BoundaryTable
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Z/2 persistent cohomology with clearing over the filtration ``order``.

    ``order`` lists static indices and must be a filtration: every facet
    before its cofaces.  The edges are paired first, by union-find over the
    vertices in filtration order.  A component's root is its oldest vertex
    (path halving keeps the trees flat); an edge joining two components
    kills the younger root and merges it into the elder, and an edge within
    one component is left to the cohomology below.  This is the elder rule.

    Then, for k from 1 up to one below the top dimension, the k-simplices
    not yet paired are taken in decreasing filtration position.  Each
    one's coboundary is a bitmask integer over the cofacets, bit
    ``len(order) - 1 - position`` for a cofacet, so the earliest cofacet is
    the highest bit, the pivot.  A column is only ever added to one of its
    own dimension taken before it, so this is the left-to-right reduction
    of the anti-transposed boundary matrix, whose pivots are the boundary
    matrix's pairs (de Silva, Morozov and Vejdemo-Johansson, 2011): a
    column with pivot p pairs its simplex, a birth, with the death at p.  A
    column that reduces to zero is an essential class.  Clearing: a
    k-simplex paired as a death one dimension down, by a pivot or by
    union-find, would reduce to zero and is skipped, which is why the
    dimensions run lowest first.  A top simplex that is never a pivot is
    essential.

    The pairing of a filtration is unique, so this pairs what the boundary
    column reduction would.  Returns (birth, death) position pairs and the
    essential positions, ascending.
    """
    n = len(order)
    last = n - 1
    position = [0] * n
    for i, s in enumerate(order):
        position[s] = i
    ranges = table.ranges
    facet_table = table.facets
    pairs: List[Tuple[int, int]] = []
    paired = bytearray(n)
    if len(ranges) > 1:
        # vertices are the static indices below lo, each its own root at first
        lo, hi = ranges[1]
        parent = list(range(lo))
        for j in sorted(position[lo:hi]):
            a, b = facet_table[order[j]]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if position[a] > position[b]:
                a, b = b, a
            parent[b] = a
            pairs.append((position[b], j))
            paired[position[b]] = paired[j] = 1
    if len(ranges) > 2:
        cofacets = table.cofacets
        for lo, hi in ranges[1:-1]:
            reduced_by_pivot: Dict[int, int] = {}
            for i in sorted(position[lo:hi], reverse=True):
                if paired[i]:
                    continue
                col = 0
                for c in cofacets[order[i]]:
                    col |= 1 << (last - position[c])
                while col:
                    pivot = col.bit_length() - 1
                    other = reduced_by_pivot.get(pivot)
                    if other is None:
                        reduced_by_pivot[pivot] = col
                        j = last - pivot
                        pairs.append((i, j))
                        paired[i] = paired[j] = 1
                        break
                    col ^= other
    essentials = [i for i in range(n) if not paired[i]]
    return pairs, essentials


def _emit_points(
    direction: Direction,
    level: List[int],
    distinct: List[int],
    table: BoundaryTable,
    denominator: int,
    order: Optional[List[int]],
) -> AugmentedDiagram:
    """The diagram: its simplex histogram now, its pairing on first read.

    Every simplex is one event at its own height, so the diagram's levels
    are the ``distinct`` heights, and since the simplices of one dimension
    are one range of static indices, one pass over the ``level`` of each
    simplex counts every dimension's simplices per level, with neither the
    filtration nor the pairing.  It makes no Fraction.  The diagram runs
    ``_pair_events`` on first read of its keys or rows.
    """
    top = len(distinct)
    histogram = {}
    for k, (lo, hi) in enumerate(table.ranges):
        row = [0] * top
        for i in level[lo:hi]:
            row[i] += 1
        histogram[k] = row
    return AugmentedDiagram(
        direction,
        distinct,
        denominator,
        histogram,
        lambda: _pair_events(level, top, table, order),
    )


def _pair_events(
    level: List[int],
    top: int,
    table: BoundaryTable,
    order: Optional[Sequence[int]],
) -> Pairing:
    """The diagram's point keys and event rows, from the pairing.

    ``order`` is the filtration; when it is None, the static indices sorted
    by level, a stable sort, so at one height every facet stays before its
    cofaces.  A point's key is (dim, birth level, death level), the death
    level of an essential class ``top``, one past the last.
    """
    if order is None:
        order = sorted(range(len(level)), key=level.__getitem__)
    pairs, essentials = _reduce_pairs(order, table)
    dims = table.dims
    at = list(map(level.__getitem__, order))
    keys = [(dims[order[i]], at[i], at[j]) for i, j in pairs]
    keys.extend([(dims[order[i]], at[i], top) for i in essentials])
    rows = {
        k: EventRow([0] * top, [0] * top, [0] * top)
        for k in range(max(keys)[0] + 1 if keys else 0)
    }
    for k, b, d in keys:
        births, deaths, zeros = rows[k]
        births[b] += 1
        if d != top:
            deaths[d] += 1
            if d == b:
                zeros[b] += 1
    return keys, rows


def compute_apd(
    complex_: SimplicialComplex,
    direction: Direction,
    order: Optional[Sequence[Simplex]] = None,
) -> AugmentedDiagram:
    """Augmented persistence diagram of the lower-star filtration.

    ``order`` replaces the default index filtration by another compatible
    one; any face-respecting permutation of equal-height simplices gives the
    identical multiset, which is what the tie-break tests check.  An order
    that is not a filtration (heights decreasing somewhere, or a coface
    before one of its facets) raises InvalidInput.

    The kernel works in integers.  With L the common denominator of the
    coordinates and D that of the direction, every height is an integer
    divided by D * L.  Multiplying all heights by the positive D * L keeps
    their order and their ties, and the filtration order and the reduction
    depend on nothing else, so the integer run pairs the same simplices as
    a run on the rational heights.  The diagram keeps D * L, and a
    height is divided back by it exactly when read, so the diagram is the
    one of the rational heights.
    """
    return _apd(BoundaryTable(complex_), direction, order)


def _apd(
    table: BoundaryTable,
    direction: Direction,
    order: Optional[Sequence[Simplex]] = None,
) -> AugmentedDiagram:
    """compute_apd on a complex's BoundaryTable, which the Oracle keeps.

    Int and Fraction entries are kept as they are; any other entry is read
    as a Fraction.
    """
    direction = tuple(
        x if type(x) is int or type(x) is Fraction else Fraction(x)
        for x in direction
    )
    _check_direction(direction, table.ambient_dim)
    (integer,), d_scale = scale_to_integers([direction])
    distinct, level = _heights(table, integer)
    filtration = None
    if order is not None:
        if len(order) != len(table.simplices) or set(order) != set(table.simplices):
            raise InvalidInput("order is not a permutation of the complex")
        index = {s: i for i, s in enumerate(table.simplices)}
        filtration = [index[s] for s in order]
        _check_filtration(filtration, level, table)
    return _emit_points(
        direction, level, distinct, table, d_scale * table.scale, filtration
    )


def _check_filtration(
    filtration: Sequence[int], level: Sequence[int], table: BoundaryTable
) -> None:
    """Raise InvalidInput unless heights, given by their levels, never
    decrease along the order and every facet comes before its cofaces."""
    ordered = [level[s] for s in filtration]
    if any(a > b for a, b in zip(ordered, ordered[1:])):
        raise InvalidInput("order is not a filtration: a height decreases")
    position = [0] * len(filtration)
    for i, s in enumerate(filtration):
        position[s] = i
    if any(
        position[f] > position[s] for s, fs in enumerate(table.facets) for f in fs
    ):
        raise InvalidInput("order is not a filtration: a coface precedes a facet")


# ---------------------------------------------------------------------------
# parabolic lift


def lift_point(point: Vector) -> Vector:
    return tuple(point) + (dot(point, point),)


def lift(complex_: SimplicialComplex) -> SimplicialComplex:
    """Map each vertex v to (v, v.v); combinatorics unchanged."""
    lifted = {v: lift_point(p) for v, p in complex_.vertices.items()}
    return SimplicialComplex(complex_.ambient_dim + 1, lifted, complex_.simplices)


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


def format_diagram(dgm: AugmentedDiagram, dim: Optional[int] = None) -> str:
    """The diagram as text: its direction, then one "dim birth death" line
    per point, or per point of dimension ``dim`` when it is given."""
    lines = ["direction " + " ".join(format_rational(x) for x in dgm.direction)]
    for p in dgm.points if dim is None else dgm.in_dim(dim):
        death = "inf" if p.essential else format_rational(p.death)
        lines.append(f"{p.dim} {format_rational(p.birth)} {death}")
    return "\n".join(lines) + "\n"
