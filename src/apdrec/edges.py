"""Edge reconstruction: sweep over vertices, binary search over prefix counts.

A sweep in the first frame direction visits vertices bottom to top, so when
it reaches a vertex v every edge from v down is already known.  The edges up
are found among v's *candidates*: the vertices above v in the clockwise
radial order about v, less those known not to be endpoints.  A *prefix
count* is the number of up-neighbours among the first ``end`` candidates.
It is 0 at 0, and at the last candidate it is v's number of edges up, read
off one shared diagram.

*The plane.*  Each vertex has integer coordinates in the sweep plane, its
heights in the two frame directions times one positive unit, and an offset
is the difference of two vertices' coordinates.  The radial orders, the
slopes of the splits and the cuts all work on these ints; the frame enters
only when a split's integer slope (p, q) becomes its direction.

*Cuts.*  A diagram in the direction s = m * u1 - u2, for u1, u2 the frame
and m = p / q with q > 0, puts a vertex w whose offset from a vertex u is
(x, y) below u exactly when ``p * x < q * y``.  So when u is alone at its
height there, the diagram's edge count at that height is the number of u's
neighbours below the line of slope m through u: a cut (p, q, count).  At
u's turn every neighbour below u in the sweep is known, and the candidates,
which run in descending slope, below the line are a prefix; the cut less
the known neighbours below its line is the prefix count at that prefix's
length.  Both numbers are found by bisection over integer offsets.

*The search.*  Consecutive prefix counts bound pieces of the candidates.  A
piece whose count is 0 holds no endpoint and one whose count is its size
holds only endpoints.  While some piece decides nothing, the leftmost such
piece is split at its middle candidate: ``split_wedge`` asks the diagram in
a direction whose line through v separates the two halves, one query, and
that diagram read at v is one more cut.  Each diagram a vertex's splits
asked is also read at every later vertex, and the cuts it gives there,
free, seed that vertex's search, which only ever removes splits.  Two
prefix counts at one length that differ, or a piece whose count is
negative or above its size, raise OracleInconsistency.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from .errors import InvalidInput, OracleInconsistency
from .geometry import (
    RadialOrder,
    SweepFrame,
    Vector,
    dot,
    radial_order,
    scale_to_integers,
    separating_direction,
    separating_slope,
    vneg,
)
from .oracle import AugmentedDiagram, EventTable, Oracle

# (p, q, count): count neighbours w of a vertex with p * x < q * y, for (x, y)
# the offset of w from the vertex and q > 0
Cut = Tuple[int, int, int]
# (p, q, events): the counts of the diagram in the direction (p / q) * u1 - u2
Split = Tuple[int, int, EventTable]


def split_wedge(
    order: RadialOrder, after: int, oracle: Oracle, frame: SweepFrame
) -> Split:
    """The diagram of a line through the center after ``order.ordered[after]``.

    The direction is the frame's m * u1 - u2 for m = p / q, q > 0, the
    ``separating_slope``, which puts ``ordered[:after + 1]`` strictly below
    the center and the rest of ``ordered`` strictly above.  One logged
    query; ``read_cut`` reads it at the center.
    """
    p, q = separating_slope(order, after)
    dgm = oracle.query(separating_direction((p, q), frame))
    return p, q, dgm.events


def read_cut(split: Split, a: int, b: int, unit: int) -> Optional[Cut]:
    """The cut a split diagram gives at a vertex u with u1 . u = a / unit and
    u2 . u = b / unit, unit > 0, or None when u shares its height there.

    u's height in m * u1 - u2 is (p * a - q * b) / (q * unit), an int over a
    positive int, which the diagram's table looks up without a Fraction.
    """
    p, q, events = split
    i = events.level_of(p * a - q * b, q * unit)
    if events.count(0, i) != 1:
        return None
    return p, q, events.count(1, i)


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
    ``at`` is (a, b, unit) for the vertex as in ``read_cut``.  The
    ``excluded`` vertices are known not to be endpoints and are left out of
    the candidates.  The prefix counts start from 0, ``indegree`` and the
    ``cuts``; each split adds its own cut at the vertex, which lands at the
    middle of the piece it splits.
    """
    # the index in order.ordered of each candidate, in radial order
    candidates = [i for i, (vid, _) in enumerate(order.ordered) if vid not in excluded]
    ups = [order.ordered[i][1] for i in candidates]
    known_offsets = {order.offsets[w] for w in known_below_edges}
    downs = [off for off in order.by_slope if off in known_offsets]
    prefix = {0: 0}

    def record(end: int, count: int) -> int:
        if prefix.setdefault(end, count) != count:
            raise OracleInconsistency(
                f"vertex {vertex}: {prefix[end]} and {count} edges up "
                f"in the first {end} candidates"
            )
        return end

    def add(p: int, q: int, count: int) -> int:
        # both sides' vertices below the line are prefixes: the candidates
        # in descending slope, x > 0, the known ones in ascending, x < 0
        return record(_below_line(ups, p, q), count - _below_line(downs, p, q))

    record(len(candidates), indegree)
    for cut in cuts:
        add(*cut)
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
            cut = read_cut(split, *at)
            if cut is None:
                raise OracleInconsistency(
                    f"vertex {vertex} is not alone at its height in its own split"
                )
            splits.append(split)
            ends.insert(i + 1, add(*cut))
            continue
        if count:
            found.extend([order.ordered[i][0] for i in candidates[start:end]])
        i += 1
    return found, splits


def _below_line(offsets: Sequence[Tuple[int, int]], p: int, q: int) -> int:
    """Length of the prefix of ``offsets`` with ``p * x < q * y``, for
    offsets ordered so that those form a prefix."""
    lo, hi = 0, len(offsets)
    while lo < hi:
        mid = (lo + hi) // 2
        x, y = offsets[mid]
        if p * x < q * y:
            lo = mid + 1
        else:
            hi = mid
    return lo


def find_edges(
    points: Sequence[Vector],
    oracle: Oracle,
    frame: SweepFrame,
    sweep: AugmentedDiagram,
) -> Tuple[Set[Tuple[int, int]], AugmentedDiagram]:
    """All edges of the unknown complex, given the vertex locations.

    One shared query in the negated sweep direction feeds every vertex's
    number of edges up; all remaining queries come from splits.  The
    queries are logged in an "edges" span.  Returns the edges and that
    shared diagram: its k-simplex count at a vertex's negated height is the
    number of k-simplices whose lowest vertex it is, which the higher stage
    reads at no query.

    Every vertex u has integer plane coordinates (u1 . u, u2 . u) times one
    positive unit: the points scaled to integers by their common
    denominator, dotted with the frame scaled likewise.  A vertex's radial
    order is taken on the differences of those coordinates from its own,
    so every offset is a pair of ints, and every height read off a diagram
    is an int over a positive one, read with ``EventTable.level_of``.  The
    frame itself enters only the directions of the splits.

    ``sweep`` is the vertex stage's diagram in ``frame.u1``.  Its edge count
    at a vertex's height is the number of edges from that vertex down to
    lower ones.  Once that many are known, the vertex has no edge to the
    current sweep vertex, so it is left out of the current vertex's
    candidates.  This costs no query.  When the sweep reaches a vertex, the
    edges found down from it must number exactly that count, or
    OracleInconsistency is raised.  A diagram in any other direction raises
    InvalidInput.

    Free cuts: once a vertex's search is done, every split it asked is read
    at each later vertex with ``read_cut``, and only the cut is kept; at
    that vertex's turn the cuts seed its prefix counts (see
    ``find_up_edges``).  A vertex with no edge up is searched too: its cuts
    must then count exactly its known edges down, a check at no query that
    a miscounted cut elsewhere, which an exchange of two edges can hide
    from the sweep counts, runs into.
    """
    if tuple(sweep.direction) != tuple(frame.u1):
        raise InvalidInput("sweep diagram is not in the frame's first direction")
    oracle.log.open("edges")
    sweep_diagram = oracle.query(vneg(frame.u1))

    scaled, scale = scale_to_integers(points)
    (w1, w2), factor = scale_to_integers([frame.u1, frame.u2])
    # u1 . u and u2 . u times unit, as ints
    plane = [(dot(w1, p), dot(w2, p)) for p in scaled]
    unit = scale * factor
    along, against = sweep.events, sweep_diagram.events
    down_degree = [along.count(1, along.level_of(a, unit)) for a, _ in plane]
    up_degree = [against.count(1, against.level_of(-a, unit)) for a, _ in plane]

    ids_by_height = sorted(range(len(points)), key=lambda i: plane[i][0])
    edges: Set[Tuple[int, int]] = set()
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(points))}
    cuts: Dict[int, List[Cut]] = {i: [] for i in range(len(points))}
    for step, vid in enumerate(ids_by_height):
        # vid's edges down were all found from the vertices below it
        if len(adjacency[vid]) != down_degree[vid]:
            raise OracleInconsistency(
                f"vertex {vid} has {len(adjacency[vid])} edges down, "
                f"the sweep diagram counts {down_degree[vid]}"
            )
        a, b = plane[vid]
        order = radial_order(
            {u: (x - a, y - b) for u, (x, y) in enumerate(plane) if u != vid}
        )
        # every neighbour known so far of a vertex above vid lies below vid
        excluded = {u for u in order.offsets if len(adjacency[u]) == down_degree[u]}
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
        for split in splits:
            for u in ids_by_height[step + 1 :]:
                cut = read_cut(split, *plane[u], unit)
                if cut is not None:
                    cuts[u].append(cut)
    return edges, sweep_diagram
