"""Directional augmented persistence diagrams and the query oracle.

The augmented diagram keeps every zero-persistence pair, so each simplex of
the complex shows up as exactly one birth or death event.  Pairing is
persistent cohomology over Z/2 of the lower-star filtration, with clearing.
The reduction only ever compares simplices of one dimension, and the
filtration restricted to one dimension is (level, static index), so the
kernel reads each simplex's level and builds no order of the whole complex.
The edges are paired with the vertices by union-find with the elder rule.
Then each dimension from one up to one below the top, lowest first, reduces
the coboundary columns of its simplices in decreasing (level, static
index), skipping every simplex already paired as a death one dimension
down, since its column would reduce to zero.  Columns are given implicitly,
in the spirit of Ripser (Bauer, 2021): a column starts as its simplex's
static coboundary mask, built once per complex, and its pivot, the death of
its simplex, is found through per-level masks built once per query from
static vertex star masks.  Reducing coboundaries so is the reduction of the
anti-transposed boundary matrix, which has the same pivot pairs (de Silva,
Morozov and Vejdemo-Johansson, 2011), and the pairing of a filtration is
unique, so union-find, cohomology and clearing leave the points as they
are.  Cohomology is chosen for speed alone: homology reduces the boundary
column of every essential class to zero and clearing cannot skip it, so a
complex with many top-dimensional classes pays for those zero columns on
every query, while cohomology builds no column of the top dimension at all.

A diagram's per-level simplex histogram is the only source of its counts:
by the simplex-count correspondence every k-simplex is exactly one event at
its lower-star height, so the k-simplices at each distinct height are what
``counts``, ``count_at``, ``simplex_count``, ``births(0)`` and the Euler
curve of ``descriptors`` read, and the histogram needs the heights alone.
Each query builds the diagram, histogram included, in ``_emit_points``, the
one place a diagram is made.  The diagram keeps each simplex's level and
the BoundaryTable, and the pairing runs on them on first read of ``rows``,
``births(k)`` for k > 0 or ``points``; its result is kept.
``_reduce_pairs`` returns static index pairs and counts each dimension's
deaths per level as it finds them, so the event rows are those counts and
the histogram less them, and the Betti curves build no point; the points
are read off the kept pairs on first read.  The reconstruction stages read
only the histogram, so they never pair.

The kernel runs on integers.  A BoundaryTable, built once per complex,
holds the coordinates scaled by their common denominator, the simplices in
(dimension, vertex tuple) order, each simplex's facets as indices into that
order, and, from the first pairing on, the static masks.  A query scales
its direction to integers too, so every height is an exact integer multiple
of one positive rational.  Only the order and the equality of heights
decide the filtration and the pairing, and a positive scale keeps both, so
the integer run gives the same pairs.  The diagram keeps the distinct
integer heights with their denominator; a height read from a diagram is
scaled to that grid, every such read going through
``AugmentedDiagram.levels_of``, and the heights are divided back into
Fractions only when levels or points are read.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .complexes import Simplex, SimplicialComplex, facets
from .errors import InvalidInput
from .geometry import (
    Direction,
    Vector,
    as_vector,
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


class AugmentedDiagram:
    """One direction's augmented persistence diagram, counted per height.

    ``heights`` are the distinct heights of the events as increasing ints
    over one positive ``denominator``.  ``histogram[k]`` counts the
    k-simplices at each level; it is the only source of the diagram's
    counts (``counts``, ``count_at``, ``simplex_count``, ``births(0)``), and
    a dimension without an entry has no simplices.

    The diagram keeps the ``level`` of each simplex of its complex's
    ``BoundaryTable``, in static order, and the table; ``_reduce_pairs``
    runs on them once, on first read of rows, points or ``births(k)`` for k
    > 0, which builds the rows and keeps the static index pairs until the
    points are read off them; then the levels, the table and the pairs are
    let go (kept, they cost the ``apd-stream`` benchmark, which reads the
    points of every diagram, about 2.5% of its wall time).  ``rows[k]``
    counts the events of dimension k at each level, and a dimension without
    a row has no events.  The reduction counts the deaths, and by the
    simplex-count correspondence every k-simplex is a death of dimension
    k-1 or a birth of dimension k, so the births of ``rows[k]`` are
    ``histogram[k]`` less the deaths of ``rows[k-1]``; the top dimension has
    no deaths, and its row is kept only if it has a birth, so the rows run
    up to the highest dimension of a point.  ``points`` are read off the
    kept static index pairs, one (dim, birth level, death level) per pair
    and per essential class, the unpaired simplices, dying one past the
    last level, and sorted by (dim, birth, death); the Betti curves, which
    read the rows, never build them.  The reconstruction stages read only
    the histogram, so they never pair.  Rows and points are kept once
    built.

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
        "_level",
        "_table",
        "_pairs",
        "_rows",
        "_levels",
        "_points",
    )

    def __init__(
        self,
        direction: Direction,
        heights: List[int],
        denominator: int,
        histogram: Dict[int, List[int]],
        level: List[int],
        table: BoundaryTable,
    ):
        self.direction = direction
        self.heights = heights
        self.denominator = denominator
        self.histogram = histogram
        self._level = level
        self._table = table
        self._pairs: Optional[tuple] = None
        self._rows: Optional[Dict[int, EventRow]] = None
        self._levels: Optional[List[Fraction]] = None
        self._points: Optional[Tuple[DiagramPoint, ...]] = None

    def _pair(self) -> None:
        """Run ``_reduce_pairs``: build the rows, and keep the pairs until
        the points are read off them."""
        top = len(self.heights)
        pairs, paired, deaths, zeros = _reduce_pairs(self._level, top, self._table)
        rows: Dict[int, EventRow] = {}
        died = [0] * top
        for k, row in self.histogram.items():
            births = list(map(operator.sub, row, died))
            if k < len(deaths):
                died = deaths[k]
                rows[k] = EventRow(births, died, zeros[k])
            elif any(births):
                rows[k] = EventRow(births, [0] * top, [0] * top)
        self._rows, self._pairs = rows, (pairs, paired)

    @property
    def rows(self) -> Dict[int, EventRow]:
        if self._rows is None:
            self._pair()
        return self._rows

    @property
    def levels(self) -> List[Fraction]:
        if self._levels is None:
            self._levels = [Fraction(h, self.denominator) for h in self.heights]
        return self._levels

    @property
    def points(self) -> Tuple[DiagramPoint, ...]:
        if self._points is None:
            if self._rows is None:
                self._pair()
            (pairs, paired), level = self._pairs, self._level
            dims, top = self._table.dims, len(self.heights)
            keys = [(dims[i], level[i], level[j]) for i, j in pairs]
            keys.extend([(dims[i], level[i], top) for i, p in enumerate(paired) if not p])
            value = [*self.levels, INF]
            self._points = tuple(
                [DiagramPoint(k, value[b], value[d]) for k, b, d in sorted(keys)]
            )
            # the rows and the points now hold all the reduction tells
            self._pairs = self._level = self._table = None
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
        self, numerators: Sequence[Fraction], denominator: int
    ) -> List[Optional[int]]:
        """The index of the level equal to each numerator / denominator, for
        an int denominator > 0 and rational numerators, or None off the grid.

        A height x / denominator is the level h / ``self.denominator``
        exactly when x * n == h * m, for n / m the ratio
        ``self.denominator`` / denominator in lowest terms.  So the batch
        costs one gcd, then per numerator one floor division, giving the
        only h that can match, and one search of the integer levels for it.
        ``*``, ``//`` and ``==`` are exact on a Fraction numerator too, so
        it is located exactly; on int numerators, those of every
        reconstruction, no Fraction is built.
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


# ---------------------------------------------------------------------------
# filtration and reduction


def _read_direction(direction, ambient_dim: int) -> Direction:
    """The direction as ``as_vector`` reads it: int and Fraction entries
    kept as they are, any other entry read as a Fraction, and InvalidInput
    for an entry that is no rational (NaN, an infinity, None, a malformed
    string).  Raises InvalidInput too for a length other than
    ``ambient_dim`` and for the zero vector."""
    direction = as_vector(direction)
    if len(direction) != ambient_dim or is_zero(direction):
        raise InvalidInput(f"a direction is a nonzero vector of {ambient_dim} entries")
    return direction


class BoundaryTable:
    """The static part of the kernel for one complex, built once.

    ``simplices`` lists the simplices by dimension, the vertices first, and
    within a dimension in vertex tuple order; a simplex's position there is
    its static index.  An ``order`` of the complex's simplices, when given,
    sets each dimension's sequence instead.  No library path passes one: it
    is the tests' seam for running the kernel under any order compatible
    with a direction, since within one level the static order is the tie
    order of the pairing.  ``facets[j]`` holds the static indices of the
    facets of simplex j (empty for a vertex), and ``dims[j]`` its
    dimension; ``ranges[k]`` is the (start, end) of the static indices of
    dimension k.  ``coords`` holds each vertex's coordinates times
    ``scale``, the common denominator L of all coordinates, so every entry
    is an int.

    ``coboundary[j]`` and ``stars[k][v]`` serve the pairing alone, and both
    are None until ``masks`` builds them on first call; so a table that
    never pairs never builds them.  Both are bitmasks over one dimension's
    static range [start, end), a simplex c being bit c - start:
    ``coboundary[j]`` holds the cofacets of simplex j, and ``stars[k][v]``
    the k-simplices that have the vertex of static index v as a vertex.
    """

    def __init__(
        self, complex_: SimplicialComplex, order: Optional[Sequence[Simplex]] = None
    ):
        self.ambient_dim = complex_.ambient_dim
        self.simplices = sorted(
            sorted(complex_.simplices) if order is None else order, key=len
        )
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
        self.coboundary: Optional[List[int]] = None
        self.stars: Optional[List[List[int]]] = None

    def masks(self) -> Tuple[List[int], List[List[int]]]:
        """``coboundary`` and ``stars``, built on first call and kept."""
        if self.coboundary is None:
            vertex = {s[0]: i for i, s in enumerate(self.simplices) if len(s) == 1}
            coboundary = [0] * len(self.simplices)
            stars = [[0] * len(vertex) for _ in self.ranges]
            for (lo, hi), star in zip(self.ranges, stars):
                for c in range(lo, hi):
                    bit = 1 << (c - lo)
                    for f in self.facets[c]:
                        coboundary[f] |= bit
                    for v in self.simplices[c]:
                        star[vertex[v]] |= bit
            self.coboundary, self.stars = coboundary, stars
        return self.coboundary, self.stars


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
    level: List[int], top: int, table: BoundaryTable
) -> Tuple[List[Tuple[int, int]], bytearray, List[List[int]], List[List[int]]]:
    """Z/2 persistent cohomology with clearing of the lower-star filtration
    given by each simplex's ``level`` (of ``top`` levels), with no order.

    The reduction only ever compares simplices of one dimension, and the
    filtration restricted to one dimension is (level, static index), so
    each dimension is ordered so and no filtration of the whole complex is
    built.  The edges are paired first, by union-find over the vertices,
    taking the edges in that order.  A component's root is its oldest
    vertex, the least by (level, static index) (path halving keeps the
    trees flat); an edge joining two components kills the younger root and
    merges it into the elder, and an edge within one component is left to
    the cohomology below.  This is the elder rule.  Dimension 0 keeps
    union-find because pairing the vertices by the coboundary loop below
    took 17-31 ms per direction on a 1,500-vertex star or path, against
    about 0.6 ms, and was faster only on the dense benchmark complex, by
    about 4%.

    Then, for k from 1 up to one below the top dimension, the k-simplices
    not yet paired are taken in decreasing (level, static index).  A
    column starts as the simplex's static coboundary mask.  Per query,
    ``upto[l]`` masks the (k+1)-simplices of level at most l: a simplex's
    level is that of its highest vertex, so this is the whole range less
    the ``stars`` of the vertices above l, one operation per vertex and per
    level rather than one per simplex.  A column has no entry below its
    simplex's level, nor has any column added to it, which belongs to a
    simplex taken before it, so its pivot, the earliest cofacet, is the
    lowest bit of col & upto[l] for the first level l, from the simplex's
    own, where that is nonzero; every entry of col & upto[l] is then at
    level l, so l is the pivot's level.  Adding a column whose earliest
    entry is that pivot leaves none below l, so the search goes on from l.
    A column is only ever added to one of its own dimension taken before
    it, so this is the left-to-right reduction of the anti-transposed
    boundary matrix, whose pivots are the boundary matrix's pairs (de
    Silva, Morozov and Vejdemo-Johansson, 2011): a column with pivot p
    pairs its simplex, a birth, with the death at p.  A column that reduces
    to zero is an essential class.  Clearing: a k-simplex paired as a death
    one dimension down, by a pivot or by union-find, would reduce to zero
    and is skipped, which is why the dimensions run lowest first.  A top
    simplex that is never a pivot is essential.

    The pairing of a filtration is unique, so this pairs what the boundary
    column reduction would.  Returns the (birth, death) static index pairs;
    ``paired``, 1 at each paired static index, so the essential classes are
    its zeros; and, for each dimension k below the top, ``deaths[k]`` and
    ``zeros[k]``, the finite deaths and the zero-persistence pairs of
    dimension k at each level, counted as each pair is found.
    """
    ranges = table.ranges
    facet_table = table.facets
    by_level = level.__getitem__
    pairs: List[Tuple[int, int]] = []
    paired = bytearray(len(level))
    deaths = [[0] * top for _ in ranges[1:]]
    zeros = [[0] * top for _ in ranges[1:]]
    # the edges in (level, static index) order, sorted once: union-find walks
    # them ascending, the cohomology of dimension 1 descending
    edges = sorted(range(*ranges[1]), key=by_level) if len(ranges) > 1 else []
    if edges:
        # vertices are the static indices below the edges', each its own
        # root at first
        parent = list(range(ranges[1][0]))
        for e in edges:
            a, b = facet_table[e]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if level[a] > level[b] or level[a] == level[b] and a > b:
                a, b = b, a
            parent[b] = a
            pairs.append((b, e))
            paired[b] = paired[e] = 1
            deaths[0][level[e]] += 1
            if level[b] == level[e]:
                zeros[0][level[e]] += 1
    if len(ranges) > 2:
        coboundary, stars = table.masks()
        for k in range(1, len(ranges) - 1):
            lo, hi = ranges[k]
            start, end = ranges[k + 1]
            died, zero = deaths[k], zeros[k]
            # upto[l]: the (k+1)-simplices of level at most l, those with no
            # vertex above l
            upto = [0] * top
            for star, l in zip(stars[k + 1], level):
                upto[l] |= star
            mask = (1 << (end - start)) - 1
            for l in range(top - 1, -1, -1):
                upto[l], mask = mask, mask & ~upto[l]
            reduced_by_pivot: Dict[int, int] = {}
            ascending = edges if k == 1 else sorted(range(lo, hi), key=by_level)
            for i in reversed(ascending):
                if paired[i]:
                    continue
                col = coboundary[i]
                born = l = level[i]
                while col:
                    low = col & upto[l]
                    while not low:
                        l += 1
                        low = col & upto[l]
                    pivot = (low & -low).bit_length() - 1
                    other = reduced_by_pivot.get(pivot)
                    if other is None:
                        reduced_by_pivot[pivot] = col
                        j = start + pivot
                        pairs.append((i, j))
                        paired[i] = paired[j] = 1
                        died[l] += 1
                        if l == born:
                            zero[l] += 1
                        break
                    col ^= other
    return pairs, paired, deaths, zeros


def _emit_points(
    direction: Direction,
    level: List[int],
    distinct: List[int],
    table: BoundaryTable,
    denominator: int,
) -> AugmentedDiagram:
    """The diagram: its simplex histogram now, its pairing on first read.

    Every simplex is one event at its own height, so the diagram's levels
    are the ``distinct`` heights, and since the simplices of one dimension
    are one range of static indices, one pass over the ``level`` of each
    simplex counts every dimension's simplices per level, with no pairing.
    It makes no Fraction.  The diagram keeps ``level`` and the table, and
    runs ``_reduce_pairs`` on them on first read of its rows or points.
    """
    top = len(distinct)
    histogram = {}
    for k, (lo, hi) in enumerate(table.ranges):
        row = [0] * top
        for i in level[lo:hi]:
            row[i] += 1
        histogram[k] = row
    return AugmentedDiagram(direction, distinct, denominator, histogram, level, table)


def compute_apd(complex_: SimplicialComplex, direction: Direction) -> AugmentedDiagram:
    """Augmented persistence diagram of the lower-star filtration.

    The diagram does not depend on how simplices of equal height are
    ordered; the kernel breaks such ties by static index.  The kernel works
    in integers.  With L the common denominator of the coordinates and D
    that of the direction, every height is an integer divided by D * L.
    Multiplying all heights by the positive D * L keeps their order and
    their ties, and the pairing depends on nothing else, so the integer run
    pairs the same simplices as a run on the rational heights.  The diagram keeps D * L, and a height is divided back by it
    exactly when read, so the diagram is the one of the rational heights.
    """
    return _apd(BoundaryTable(complex_), direction)


def _apd(table: BoundaryTable, direction: Direction) -> AugmentedDiagram:
    """compute_apd on a complex's BoundaryTable, which the Oracle keeps,
    for the direction as ``_read_direction`` reads it."""
    direction = _read_direction(direction, table.ambient_dim)
    (integer,), d_scale = scale_to_integers([direction])
    distinct, level = _heights(table, integer)
    return _emit_points(direction, level, distinct, table, d_scale * table.scale)


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
