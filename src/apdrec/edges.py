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
degree.  The count ledger already holds such diagrams: every vertex-stage
diagram whose direction lies in span(u1, u2) but not on the line of u1,
such as e2 and its tilt in the standard frame, gives a cut at every vertex
alone at its height there, free, before the search starts
(``plane_cuts``).

*The search.*  Consecutive prefix counts bound pieces of the candidates.  A
piece whose count is 0 holds no endpoint and one whose count is its size
holds only endpoints.  While some piece decides nothing, the leftmost such
piece is split at its middle candidate: ``split_wedge`` asks the diagram in
a direction whose line through v separates the two halves, one query, and
that diagram read at v is one more cut.  Once v's search is done, each
diagram its splits asked is read at all later vertices in one pass
(``read_cuts``, one ``AugmentedDiagram.levels_of`` call), and the cuts it
gives there, free, seed those vertices' searches, which only ever removes
splits.  Two prefix counts at one length that differ, or a piece whose
count is negative or above its size, raise OracleInconsistency, and so
does a split diagram with no level at a vertex it is read at.

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
from .oracle import AugmentedDiagram, Oracle
from .vertices import CountLedger

# (p, q, count): count neighbours w of a vertex with p * x < q * y, for (x, y)
# the offset of w from the vertex and q > 0
Cut = Tuple[int, int, int]
# (p, q, diagram): the diagram in the direction p * u1 - q * u2
Split = Tuple[int, int, AugmentedDiagram]


def split_wedge(
    order: RadialOrder, after: int, oracle: Oracle, frame: SweepFrame
) -> Split:
    """The diagram of a line through the center after ``order.ordered[after]``.

    The direction is the frame's integer p * u1 - q * u2 for the
    ``separating_slope`` p / q, q > 0, which puts ``ordered[:after + 1]``
    strictly below the center and the rest of ``ordered`` strictly above.  One logged
    query; ``read_cuts`` reads it at the center, and again at every later
    vertex once the center's search is done.
    """
    p, q = separating_slope(order, after)
    dgm = oracle.query(separating_direction((p, q), frame))
    return p, q, dgm


def read_cuts(
    split: Split, plane: Sequence[Tuple[int, int]], unit: int
) -> List[Optional[Cut]]:
    """The cut a split diagram gives at each vertex u of ``plane``, which
    holds (a, b) with u1 . u = a / unit and u2 . u = b / unit, unit > 0:
    None where u shares its height there.  A vertex off the diagram's grid
    raises OracleInconsistency: every vertex is an event at its own height,
    so the answer does not fit the recovered vertices.

    u's height in p * u1 - q * u2 is (p * a - q * b) / unit, so one
    ``AugmentedDiagram.levels_of`` call locates every vertex, with no
    Fraction.
    """
    p, q, dgm = split
    # the rows as the diagram holds them, without the copies ``counts``
    # makes: this runs about 2,400 times over the 40 graphs of the
    # graph-sweep benchmark, where two copies a call cost about 0.5%
    top = len(dgm.heights)
    vertices = dgm.histogram.get(0) or [0] * top
    edges = dgm.histogram.get(1) or [0] * top
    levels = dgm.levels_of([p * a - q * b for a, b in plane], unit)
    if None in levels:
        raise OracleInconsistency("a vertex is off the grid of a split diagram")
    return [None if vertices[i] != 1 else (p, q, edges[i]) for i in levels]


def plane_cuts(ledger: CountLedger, frame: SweepFrame) -> List[List[Cut]]:
    """The cuts that the ledger's diagrams in the sweep plane, but not in
    ±u1, give at each vertex, listed by vertex id, at no query.

    A direction s in span(u1, u2) is a positive multiple of p * u1 - q * u2
    or of its negation, for coprime ints p and q > 0.  At a vertex alone at
    its height in s, the diagram's edge count is the number of its
    neighbours below it there: in p * u1 - q * u2 the cut (p, q, count),
    and in the negation the neighbours above the line, so the cut (p, q,
    deg - count), for deg the vertex's degree, its edges down and up read
    off the two sweep diagrams.  No vertex but u lies on the line through u
    when u is alone at its height.  The vertices are located by the levels
    the ledger holds, one ``levels_of`` call per diagram.  The ledger's
    last diagram must be the one in -u1.
    """
    degree = list(map(operator.add, ledger.counts(1, 0), ledger.counts(1, -1)))
    u1, u2 = frame.u1, frame.u2
    n1, n, n2 = dot(u1, u1), dot(u1, u2), dot(u2, u2)
    gram = n1 * n2 - n * n
    cuts: List[List[Cut]] = [[] for _ in degree]
    for dgm, levels in zip(ledger.diagrams[1:-1], ledger.levels[1:-1]):
        s = dgm.direction
        a, b = dot(s, u1), dot(s, u2)
        # gram * s projected onto the plane is x * u1 - y * u2, and s lies in
        # the plane when it is its own projection
        x, y = n2 * a - n * b, n * a - n1 * b
        if not y or any(gram * c != x * e - y * f for c, e, f in zip(s, u1, u2)):
            continue
        p, q = primitive_direction((x, y))
        flipped = q < 0
        if flipped:
            p, q = -p, -q
        vertices, edges = dgm.counts(0), dgm.counts(1)
        for v, i in enumerate(levels):
            if vertices[i] == 1:
                count = degree[v] - edges[i] if flipped else edges[i]
                cuts[v].append((p, q, count))
    return cuts


def find_up_edges(
    vertex: int,
    known_below_edges: Collection[int],
    order: RadialOrder,
    indegree: int,
    oracle: Oracle,
    frame: SweepFrame,
    at: Tuple[int, int, int],
    excluded: Collection[int],
    cuts: Sequence[Cut] = (),
) -> Tuple[List[int], List[Split]]:
    """Endpoints of all edges adjacent to and above the vertex, in radial
    order, and the splits its search asked.

    ``indegree`` is their number: the edge count of the diagram in the
    negated sweep direction at the vertex's height there, since each edge
    is one event at the height of its top vertex.  ``known_below_edges``
    must hold exactly the vertex's neighbours below it, ``order`` is the
    radial order about it, ``frame`` the one its splits are asked in, and
    ``at`` is (a, b, unit) for the vertex as in ``read_cuts``.  The
    ``excluded`` vertices are known not to be endpoints and are left out of
    the candidates.  The prefix counts start from 0, ``indegree`` and the
    ``cuts``, all placed in one merge in slope order; each split adds its
    own cut at the vertex, read with ``read_cuts``, which lands at the
    middle of the piece it splits.
    """
    # the index in order.ordered of each candidate, in radial order
    candidates = [i for i, (vid, _) in enumerate(order.ordered) if vid not in excluded]
    ups = [order.ordered[i][1] for i in candidates]
    known_offsets = {order.offsets[w] for w in known_below_edges}
    downs = [off for off in order.by_slope if off in known_offsets]
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
    splits: List[Split] = []
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
            split = split_wedge(order, after, oracle, frame)
            (cut,) = read_cuts(split, [at[:2]], at[2])
            if cut is None:
                raise OracleInconsistency(
                    f"vertex {vertex} is not alone at its height in its own split"
                )
            splits.append(split)
            placed = _place([cut], ups, downs)
            record(placed)
            ends.insert(i + 1, placed[0][0])
            continue
        if count:
            found.extend([order.ordered[i][0] for i in candidates[start:end]])
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
    pair of ints, and a split's diagram is read at a vertex by
    ``read_cuts``.  Each split asks the integer direction p * u1 - q * u2.

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

    Free cuts: every vertex starts with the cuts of the ledger's diagrams
    in the sweep plane (``plane_cuts``), and once a vertex's search is done,
    each split it asked is read at all later vertices in one ``read_cuts``
    pass, and only the cuts are kept; at a vertex's turn its cuts seed its
    prefix counts (see ``find_up_edges``).  A vertex with no edge up is
    searched too: its cuts must then count exactly its known edges down, a
    check at no query that a miscounted cut elsewhere, which an exchange of
    two edges can hide from the sweep counts, runs into.
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
    cuts = dict(enumerate(plane_cuts(ledger, frame)))
    for step, vid in enumerate(ids_by_height):
        a, b = plane[vid]
        order = radial_order(
            {u: (x - a, y - b) for u, (x, y) in enumerate(plane) if u != vid}
        )
        # every neighbour known so far of a vertex above vid lies below vid
        later = ids_by_height[step + 1 :]
        excluded = {u for u in later if len(adjacency[u]) == down_degree[u]}
        ups, splits = find_up_edges(
            vid,
            adjacency[vid],
            order,
            up_degree[vid],
            oracle,
            frame,
            (a, b, unit),
            excluded,
            cuts.pop(vid),
        )
        for u in ups:
            edges.add(tuple(sorted((vid, u))))
            adjacency[vid].append(u)
            adjacency[u].append(vid)
        at_later = [plane[u] for u in later]
        cuts_later = [cuts[u] for u in later]
        for split in splits:
            for held, cut in zip(cuts_later, read_cuts(split, at_later, unit)):
                if cut is not None:
                    held.append(cut)
    ledger.check(edges, 1)
    return edges
