"""Edge reconstruction: sweep over vertices, binary search over prefix counts.

A sweep in the first frame direction visits vertices bottom to top, so when
it reaches a vertex v every edge from v down is already known.  The edges up
are found among v's *candidates*: the vertices above v in the clockwise
radial order about v, less those known not to be endpoints.  A *prefix
count* is the number of up-neighbours among the first ``end`` candidates.
It is 0 at 0, and at the last candidate it is v's number of edges up, read
off one shared diagram.

*The plane.*  Each vertex has integer coordinates in the sweep plane, its
heights in the two integer frame directions times one positive unit, the
count ledger's scale, and an offset is the difference of two vertices'
coordinates.  The radial orders, the slopes of the splits and the cuts all
work on these ints; the frame enters only when a split's integer slope (p,
q) becomes its integer direction p * u1 - q * u2, whose diagram is read at
each vertex at that same unit.  Every direction the stage asks is a tuple
of ints: the only Fractions of a reconstruction are the recovered
coordinates.

*Cuts.*  A diagram in the integer direction s = p * u1 - q * u2, for u1, u2
the frame and q > 0 (q times m * u1 - u2 for the slope m = p / q), puts a
vertex w whose offset from a vertex u is (x, y) below u exactly when
``p * x < q * y``.  So when u is alone at its height there, the diagram's
edge count at that height is the number of u's neighbours below the line
of slope m through u: a cut (p, q, count).  At u's turn every neighbour
below u in the sweep is known, and the candidates, which run in descending
slope, below the line are a prefix; the cut less the known neighbours below
its line is the prefix count at that prefix's length.  The known
neighbours run in ascending slope, so those below the line are a prefix
too, and one merge in slope order places all of a vertex's cuts at once
(``_place``).  A diagram in the negated direction counts the neighbours
above the line, so it is the cut (p, q, deg - count), for deg the vertex's
degree.  Each diagram in the sweep plane is located once, at every vertex:
its *reading* (p, q, counts) holds the cut count counts[u] of each vertex
u, None where u shares its height.  The count ledger already holds such
diagrams: every ledger diagram whose direction lies in span(u1, u2) but
not on the line of u1, such as e2 and its tilt in the standard frame, is
a reading, free, before the search starts (``plane_readings``).

*The search.*  v's radial order is one tuple: every other vertex with its
offset, in descending slope, so clockwise (``radial_order``).  A position in
it is the one index of the search: the candidates are the positions of the
vertices above v, less the excluded ones, and the known neighbours, below v,
are read off the tuple reversed.  Consecutive prefix counts bound pieces of
the candidates.  A piece whose count is 0 holds no endpoint and one whose
count is its size holds only endpoints.  While some piece decides nothing,
the leftmost such piece is split after its middle candidate's position:
``split_wedge`` asks the diagram in a direction whose line through v
separates the two halves, one query, and reads it at every vertex, one
``AugmentedDiagram.levels_of`` call.  Its count at v is one more cut, and the
stage keeps the reading: each later vertex takes its cut from it at its
turn, free, which seeds that vertex's search and only ever removes
splits.  Two prefix counts at one length that differ, or a piece whose count
is negative or above its size, raise OracleInconsistency, and so does a
split diagram with no level at some vertex.

*The check.*  The stage ends with the ledger's count check
(``CountLedger.check``): every diagram of the ledger, the vertex stage's
and the shared one in -u1, must count exactly the edges found at each of
its levels, or OracleInconsistency is raised.  It makes no query.
"""

from __future__ import annotations

import operator
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from .errors import InvalidInput, OracleInconsistency
from .geometry import (
    Offset,
    RadialOrder,
    SweepFrame,
    dot,
    primitive_direction,
    radial_order,
    separating_direction,
    separating_slope,
    vneg,
)
from .oracle import Oracle
from .vertices import CountLedger

# (p, q, count): count neighbours w of a vertex with p * x < q * y, for (x, y)
# the offset of w from the vertex and q > 0
Cut = Tuple[int, int, int]
# (p, q, counts): a diagram in the direction p * u1 - q * u2, or in its
# negation, read at every vertex v: counts[v] is the count of v's cut (p, q,
# count), and None where v shares its height in the diagram
Reading = Tuple[int, int, List[Optional[int]]]


def split_wedge(
    order: RadialOrder,
    after: int,
    oracle: Oracle,
    frame: SweepFrame,
    plane: Sequence[Tuple[int, int]],
    unit: int,
) -> Reading:
    """The reading of the diagram of a line through the center after
    position ``after`` of its radial order.

    The direction is the frame's integer p * u1 - q * u2 for the
    ``separating_slope`` p / q, q > 0, which puts the vertices above the
    center up to position ``after`` strictly below the center and the rest
    of those above it strictly above.  One logged query.  ``plane`` holds (a,
    b) for each vertex u, with u1 . u = a / unit and u2 . u = b / unit, unit
    > 0, so u's height there is (p * a - q * b) / unit, and one
    ``AugmentedDiagram.levels_of`` call locates every vertex, with no
    Fraction.  A vertex off the diagram's grid raises OracleInconsistency:
    every vertex is an event at its own height, so the answer does not fit
    the recovered vertices.
    """
    p, q = separating_slope(order, after)
    dgm = oracle.query(separating_direction((p, q), frame))
    # the rows as the diagram holds them, without the copies ``counts``
    # makes: this runs once per split, about 1,200 times over the 40 graphs
    # of the graph-sweep benchmark, where two copies a call cost about 0.5%
    top = len(dgm.heights)
    vertices = dgm.histogram.get(0) or [0] * top
    edges = dgm.histogram.get(1) or [0] * top
    levels = dgm.levels_of([p * a - q * b for a, b in plane], unit)
    if None in levels:
        raise OracleInconsistency("a vertex is off the grid of a split diagram")
    return p, q, [edges[i] if vertices[i] == 1 else None for i in levels]


def plane_readings(ledger: CountLedger, frame: SweepFrame) -> List[Reading]:
    """The readings of the ledger's diagrams in the sweep plane, but not in
    ±u1, in ledger order, at no query.

    A direction s in span(u1, u2) is a positive multiple of p * u1 - q * u2
    or of its negation, for coprime ints p and q > 0.  At a vertex alone at
    its height in s, the diagram's edge count is the number of its
    neighbours below it there: in p * u1 - q * u2 the cut (p, q, count),
    and in the negation the neighbours above the line, so the cut (p, q,
    deg - count), for deg the vertex's degree, its edges down and up read
    off the two sweep diagrams.  No vertex but u lies on the line through u
    when u is alone at its height.  The vertices are located by the levels
    the ledger holds (``CountLedger.counts``).  The ledger's last diagram
    must be the one in -u1.
    """
    degree = list(map(operator.add, ledger.counts(1, 0), ledger.counts(1, -1)))
    u1, u2 = frame.u1, frame.u2
    n1, n, n2 = dot(u1, u1), dot(u1, u2), dot(u2, u2)
    gram = n1 * n2 - n * n
    readings: List[Reading] = []
    for i, dgm in enumerate(ledger.diagrams):
        s = dgm.direction
        a, b = dot(s, u1), dot(s, u2)
        # gram * s projected onto the plane is x * u1 - y * u2, and s lies in
        # the plane when it is its own projection; y = 0 on the line of u1
        x, y = n2 * a - n * b, n * a - n1 * b
        if not y or any(gram * c != x * e - y * f for c, e, f in zip(s, u1, u2)):
            continue
        p, q = primitive_direction((x, y))
        edges = ledger.counts(1, i)
        if q < 0:
            p, q, edges = -p, -q, list(map(operator.sub, degree, edges))
        shared = ledger.counts(0, i)
        readings.append((p, q, [e if m == 1 else None for m, e in zip(shared, edges)]))
    return readings


def find_up_edges(
    vertex: int,
    known_below_edges: Collection[int],
    order: RadialOrder,
    indegree: int,
    oracle: Oracle,
    frame: SweepFrame,
    plane: Sequence[Tuple[int, int]],
    unit: int,
    excluded: Collection[int],
    cuts: Sequence[Cut] = (),
) -> Tuple[List[int], List[Reading]]:
    """Endpoints of all edges adjacent to and above the vertex, in radial
    order, and the readings of the splits its search asked.

    ``indegree`` is their number: the edge count of the diagram in the
    negated sweep direction at the vertex's height there, since each edge is
    one event at the height of its top vertex.  ``known_below_edges`` must
    hold exactly the vertex's neighbours below it, by id, ``order`` is the
    radial order about it (``radial_order``), and ``frame``, ``plane`` and
    ``unit`` are those its splits are asked in and read at
    (``split_wedge``), ``plane`` indexed by vertex id.  The candidates are
    the positions in ``order`` of the vertices above the vertex (x > 0),
    less the ``excluded`` ones, which are known not to be endpoints; the
    known neighbours' offsets are taken from ``order`` reversed, in
    ascending slope.  Each split is asked after a candidate's position.  The
    prefix counts start from 0, ``indegree`` and the ``cuts``, all placed in
    one merge in slope order; each split adds its reading's cut at the
    vertex, which lands at the middle of the piece it splits.
    """
    # the position in the order of each candidate, in radial order
    candidates = [
        i for i, (vid, (x, _)) in enumerate(order) if x > 0 and vid not in excluded
    ]
    ups = [order[i][1] for i in candidates]
    known = set(known_below_edges)
    downs = [off for vid, off in reversed(order) if vid in known]
    prefix = {0: 0}

    def record(placed: List[Tuple[int, int]]) -> None:
        for end, count in placed:
            if prefix.setdefault(end, count) != count:
                raise OracleInconsistency(
                    f"vertex {vertex}: {prefix[end]} and {count} edges up "
                    f"in the first {end} candidates"
                )

    record([(len(candidates), indegree)])
    record(_place(cuts, ups, downs))
    ends = sorted(prefix)
    found: List[int] = []
    splits: List[Reading] = []
    i = 0
    while i + 1 < len(ends):
        start, end = ends[i], ends[i + 1]
        count = prefix[end] - prefix[start]
        if not 0 <= count <= end - start:
            raise OracleInconsistency(
                f"vertex {vertex}: {count} edges up for {end - start} candidates"
            )
        if 0 < count < end - start:
            after = candidates[(start + end) // 2 - 1]
            p, q, counts = split_wedge(order, after, oracle, frame, plane, unit)
            if counts[vertex] is None:
                raise OracleInconsistency(
                    f"vertex {vertex} is not alone at its height in its own split"
                )
            splits.append((p, q, counts))
            placed = _place([(p, q, counts[vertex])], ups, downs)
            record(placed)
            ends.insert(i + 1, placed[0][0])
            continue
        if count:
            found.extend([order[i][0] for i in candidates[start:end]])
        i += 1
    return found, splits


def _place(
    cuts: Sequence[Cut], ups: Sequence[Offset], downs: Sequence[Offset]
) -> List[Tuple[int, int]]:
    """Each cut as a prefix count (end, count): ``end`` candidates lie below
    its line, and ``count`` is the cut less the known neighbours below it.

    An offset (x, y) lies below the line of slope m = p / q when
    ``p * x < q * y``: for x > 0 when y / x > m, for x < 0 when y / x < m.
    The candidates, ``ups``, run in descending slope and the known
    neighbours, ``downs``, in ascending slope, so both sets below a line are
    prefixes.  Taken in descending slope, the cuts' candidate prefixes grow
    and their known prefixes shrink: one walk over each list places them
    all.  The cuts are sorted on the integer key ``(p * M) // q`` for M the
    largest q², as ``radial_order`` sorts: two distinct slopes differ by at
    least 1 / M, so the keys keep their order.
    """
    bound = max([q for _, q, _ in cuts], default=1) ** 2
    by_slope = sorted([((p * bound) // q, p, q, count) for p, q, count in cuts])
    placed = []
    i, j, n = 0, len(downs), len(ups)
    for _, p, q, count in reversed(by_slope):
        while i < n and p * ups[i][0] < q * ups[i][1]:
            i += 1
        while j and p * downs[j - 1][0] >= q * downs[j - 1][1]:
            j -= 1
        placed.append((i, count - j))
    return placed


def find_edges(
    ledger: CountLedger, oracle: Oracle, frame: SweepFrame
) -> Set[Tuple[int, int]]:
    """All edges of the unknown complex, given the vertex stage's ledger.

    One shared query in the negated sweep direction feeds every vertex's
    number of edges up; all remaining queries come from splits.  The
    queries are logged in an "edges" span.  The shared diagram is added to
    the ledger: its k-simplex count at a vertex is the number of
    k-simplices whose lowest vertex it is, which the higher stage reads at
    no query.

    Every vertex u has integer plane coordinates (u1 . u, u2 . u) times one
    positive unit, the ledger's scale: its integer points dotted with the
    frame's two integer directions.  A vertex's radial order is taken on the
    differences of those coordinates from its own, so every offset is a
    pair of ints, and a split's diagram is read at every vertex by
    ``split_wedge``.  Each split asks the integer direction p * u1 - q * u2.

    The ledger's first diagram must lie in ``frame.u1``, or InvalidInput is
    raised.  Its edge count at a vertex is the number of edges from that
    vertex down to lower ones.  Once that many are known, the vertex has no
    edge to the current sweep vertex, so it is left out of the current
    vertex's candidates.  This costs no query.

    The stage ends with the ledger's count check, ``ledger.check(edges,
    1)``: the edges found must meet every diagram of the ledger at every
    level, among them the sweep diagram's count of each vertex's edges
    down, or OracleInconsistency is raised.  Every caller of the stage gets
    the check, at no query.

    Free cuts: the stage keeps one list of readings, those of the ledger's
    diagrams in the sweep plane (``plane_readings``) and then each split's
    as it is asked.  At a vertex's turn, every reading in which it is alone
    at its height gives it a cut, and its cuts seed its prefix counts (see
    ``find_up_edges``).  A vertex with no edge up is searched too: its cuts
    must then count exactly its known edges down, a check at no query that
    a miscounted cut elsewhere, which an exchange of two edges can hide
    from the sweep counts, runs into.
    """
    if tuple(ledger.diagrams[0].direction) != tuple(frame.u1):
        raise InvalidInput("sweep diagram is not in the frame's first direction")
    oracle.log.open("edges")
    ledger.add(oracle.query(vneg(frame.u1)))
    down_degree, up_degree = ledger.counts(1, 0), ledger.counts(1, -1)

    # u1 . u and u2 . u times unit, as ints
    plane = [(dot(frame.u1, p), dot(frame.u2, p)) for p in ledger.scaled]
    unit = ledger.scale

    ids_by_height = sorted(range(len(plane)), key=lambda i: plane[i][0])
    edges: Set[Tuple[int, int]] = set()
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(plane))}
    readings = plane_readings(ledger, frame)
    for step, vid in enumerate(ids_by_height):
        a, b = plane[vid]
        order = radial_order(
            {u: (x - a, y - b) for u, (x, y) in enumerate(plane) if u != vid}
        )
        # every neighbour known so far of a vertex above vid lies below vid
        later = ids_by_height[step + 1 :]
        excluded = {u for u in later if len(adjacency[u]) == down_degree[u]}
        cuts = [(p, q, c[vid]) for p, q, c in readings if c[vid] is not None]
        ups, splits = find_up_edges(
            vid,
            adjacency[vid],
            order,
            up_degree[vid],
            oracle,
            frame,
            plane,
            unit,
            excluded,
            cuts,
        )
        for u in ups:
            edges.add(tuple(sorted((vid, u))))
            adjacency[vid].append(u)
            adjacency[u].append(vid)
        readings += splits
    ledger.check(edges, 1)
    return edges
