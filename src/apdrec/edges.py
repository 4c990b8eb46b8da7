"""Edge reconstruction: sweep over vertices, binary search in radial wedges.

A sweep in the first frame direction visits vertices bottom to top, so every
edge below the current vertex is already known.  The edges above it are found
by binary search over an *edge interval*: a clockwise slice of the radial
order around the vertex together with the count of true edges whose
endpoints lie in the slice.  Splitting an interval costs one diagram: the
1-indegree of the vertex in an exact separating direction counts all edges
below that direction, and subtracting the already-known ones leaves the count
for the left half; the right half follows by subtraction.  Only undecided
intervals are split: a count of zero drops the slice, a count equal to its
size takes it whole, and a vertex whose edges to lower vertices are all
known is left out of it.

*Free cuts.*  A split at vertex v asks s = m * u1 - u2, for u1, u2 the frame
and m = p / q with q > 0.  For any vertex u, a vertex w whose offset from u
is (x, y) lies below u in s exactly when ``p * x < q * y``, the test the
split itself uses.  So when u is alone at its height in that diagram, the
diagram's edge count there is the number of u's neighbours below the line of
slope m through u, and of the neighbours above u in the sweep, those below
the line are a prefix of u's radial order.  When v is done, each of its
split diagrams is read at the height of every later vertex, and only
(p, q, count) is kept for it.  At u's turn every neighbour below u is known,
so a cut less the known neighbours below its line is the number of
up-neighbours in a prefix of u's candidates, whose length a bisection of the
integer offsets finds.  The search starts from the pieces between
consecutive cuts instead of from one interval, and each piece it does not
have to split is a query saved.  Cuts that disagree, with each other or
with u's count of edges up, raise OracleInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Dict, List, Sequence, Set, Tuple

from .errors import InvalidInput, NegativeCount, OracleInconsistency
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
from .oracle import AugmentedDiagram, Oracle

# (p, q, count): count neighbours w of a vertex with p * x < q * y, for (x, y)
# the offset of w from the vertex and q > 0
Cut = Tuple[int, int, int]


@dataclass(frozen=True)
class EdgeInterval:
    """Radial wedge record: candidate endpoints plus an edge count.

    ``candidates`` is a contiguous slice of the global radial order about
    ``vertex``, all strictly above it in the sweep direction, less any
    vertices known not to be endpoints; ``edge_count`` of them are true edge
    endpoints.
    """

    vertex: int
    candidates: Tuple[int, ...]
    edge_count: int

    def __post_init__(self):
        if not 0 <= self.edge_count <= len(self.candidates):
            raise NegativeCount(
                f"edge count {self.edge_count} impossible for "
                f"{len(self.candidates)} candidates"
            )


def split_wedge(
    interval: EdgeInterval,
    known_edges: Sequence[int],
    order: RadialOrder,
    oracle: Oracle,
    points: Sequence[Vector],
) -> Tuple[EdgeInterval, EdgeInterval]:
    """Split an interval at its middle candidate into left and right halves.

    The separating direction is taken at the lower-index middle candidate
    (floor of half the size), placing the first half strictly below the
    vertex and everything radially later strictly above.  The left count is
    the 1-indegree of the vertex in that direction (dimension-0 deaths plus
    dimension-1 births at the vertex height: the k = 1 indegree formula,
    one logged query) minus the known edges falling below; the right count
    is what remains of the interval's count.  A known neighbour falls below
    when its offset (x, y) in the order lies below the separating line of
    slope m = p / q, q > 0: the integer sign test ``p * x < q * y``.

    ``known_edges`` must contain every neighbor already confirmed adjacent
    to the vertex: all below-edges plus the up-edges found so far (the loop
    invariant of the caller guarantees these cover everything radially
    before the interval).
    """
    k = len(interval.candidates)
    if k < 2 or interval.edge_count < 1:
        raise NegativeCount("split requires >= 2 candidates and >= 1 edge")
    mid = k // 2
    after_id = interval.candidates[mid - 1]
    position = order.position(after_id)
    direction = separating_direction(order, position)
    slope = separating_slope(order, position)

    height = dot(direction, points[interval.vertex])
    dgm = oracle.query(direction)
    indegree = dgm.count_at(1, height)
    p, q = slope.numerator, slope.denominator
    offsets = order.offsets
    below_known = sum(1 for u in known_edges if p * offsets[u][0] < q * offsets[u][1])

    left_count = indegree - below_known
    right_count = interval.edge_count - left_count
    if left_count < 0 or right_count < 0:
        raise NegativeCount(
            f"inconsistent split counts: left={left_count} right={right_count}"
        )
    left = EdgeInterval(interval.vertex, interval.candidates[:mid], left_count)
    right = EdgeInterval(interval.vertex, interval.candidates[mid:], right_count)
    return left, right


def find_up_edges(
    vertex: int,
    known_below_edges: Sequence[int],
    order: RadialOrder,
    indegree: int,
    oracle: Oracle,
    points: Sequence[Vector],
    excluded: Collection[int],
    cuts: Sequence[Cut] = (),
) -> List[int]:
    """Endpoints of all edges adjacent to and above the vertex.

    ``indegree`` is their number: the edge count of the diagram in the
    negated sweep direction at the vertex's height there, since each edge
    is one event at the height of its top vertex.  The ``excluded``
    vertices are known not to be endpoints and are left out of the
    candidates.  Each (p, q, count) of ``cuts`` counts the vertex's
    neighbours whose offset (x, y) has ``p * x < q * y``, q > 0;
    ``known_below_edges`` must then hold exactly the neighbours below the
    vertex.  The search starts from the pieces of the candidates between
    the cuts (see ``_pieces``) and processes intervals left first; a
    zero-count interval is dropped, one whose count equals its number of
    candidates emits them all, anything else is split.
    """
    # from a list: a short tuple(genexpr) is freed into another size's free list
    candidates = tuple([vid for vid, _ in order.ordered if vid not in excluded])
    if indegree and not candidates:
        raise OracleInconsistency(
            f"vertex {vertex} has {indegree} edges up and no candidate"
        )

    # the known neighbours first, then the endpoints found, in order
    neighbors: List[int] = list(known_below_edges)
    pieces = _pieces(candidates, indegree, cuts, known_below_edges, order)
    stack = [
        EdgeInterval(vertex, candidates[start:end], count)
        for start, end, count in reversed(pieces)
    ]
    while stack:
        interval = stack.pop()
        if interval.edge_count == 0:
            continue
        if interval.edge_count == len(interval.candidates):
            neighbors.extend(interval.candidates)
            continue
        left, right = split_wedge(interval, neighbors, order, oracle, points)
        stack.append(right)
        stack.append(left)
    return neighbors[len(known_below_edges) :]


def _pieces(
    candidates: Sequence[int],
    indegree: int,
    cuts: Sequence[Cut],
    known: Sequence[int],
    order: RadialOrder,
) -> List[Tuple[int, int, int]]:
    """(start, end, edge count) of the candidates between consecutive cuts.

    The candidates run in descending slope, so those below a cut's line,
    ``p * x < q * y`` with x > 0, are a prefix.  The ``known`` neighbours
    all lie below the vertex, x < 0, where the same test says that the
    slope y / x is below the line's, so in the ascending slope order of
    ``order.by_slope`` those below the line are a prefix too.  Both prefix
    lengths are found by bisection, and the up-neighbours in the first are
    the cut's count less the second.  The empty prefix holds none and the
    whole one ``indegree``.  Two prefix counts at one length that differ,
    or a piece whose count is negative or above its size, raise
    OracleInconsistency.
    """
    offsets = order.offsets
    ups = [offsets[c] for c in candidates]
    known_offsets = {offsets[w] for w in known}
    downs = [off for off in order.by_slope if off in known_offsets]
    prefix = {0: 0, len(candidates): indegree}
    for p, q, count in cuts:
        end = _below_line(ups, p, q)
        count -= _below_line(downs, p, q)
        if prefix.setdefault(end, count) != count:
            raise OracleInconsistency(
                f"two cuts count {prefix[end]} and {count} edges up "
                f"in the first {end} candidates"
            )
    positions = sorted(prefix)
    pieces = []
    for start, end in zip(positions, positions[1:]):
        count = prefix[end] - prefix[start]
        if not 0 <= count <= end - start:
            raise OracleInconsistency(
                f"cuts leave {count} edges up for {end - start} candidates"
            )
        pieces.append((start, end, count))
    return pieces


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


class _KeptAnswers:
    """The oracle as the splits see it: it answers through ``oracle`` and
    keeps each diagram until ``find_edges`` has read its cuts."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.diagrams: List[AugmentedDiagram] = []

    def query(self, direction) -> AugmentedDiagram:
        dgm = self.oracle.query(direction)
        self.diagrams.append(dgm)
        return dgm


def find_edges(
    points: Sequence[Vector],
    oracle: Oracle,
    frame: SweepFrame,
    sweep: AugmentedDiagram,
) -> Tuple[Set[Tuple[int, int]], AugmentedDiagram]:
    """All edges of the unknown complex, given the vertex locations.

    One shared query in the negated sweep direction feeds every vertex's
    initial indegree; all remaining queries come from interval splits.  The
    queries are logged in an "edges" span.  Returns the edges and that
    shared diagram: its k-simplex count at a vertex's negated height is the
    number of k-simplices whose lowest vertex it is, which the higher stage
    reads at no query.

    The radial orders are taken on the points scaled to integers by their
    common denominator, so every projected offset is a pair of ints.  The
    sweep heights and the heights read off diagrams are ints over one
    positive denominator too, read with ``EventTable.level_of``.

    ``sweep`` is the vertex stage's diagram in ``frame.u1``.  Its edge count
    at a vertex's height is the number of edges from that vertex down to
    lower ones.  Once that many are known, the vertex has no edge to the
    current sweep vertex, so it is left out of the current vertex's
    candidates.  This costs no query.  When the sweep reaches a vertex, the
    edges found down from it must number exactly that count, or
    OracleInconsistency is raised.  A diagram in any other direction raises
    InvalidInput.

    Free cuts: once a vertex's search is done, every diagram its splits
    asked, in a direction m * u1 - u2, is read at each later vertex u.  When
    u is alone at its height there, the edge count there is the number of
    u's neighbours below the line of slope m through u, kept as (p, q,
    count) for m = p / q; the diagram itself is dropped.  At u's turn these
    cuts seed its search with pieces of its candidates (see
    ``find_up_edges``), which only ever removes splits.  A vertex with no
    edge up is read too: its cuts must then count exactly its known edges
    down, a check at no query that a miscounted cut elsewhere, which an
    exchange of two edges can hide from the sweep counts, runs into.  Since
    u1 . (m * u1 - u2) = m * u1 . u1 - u1 . u2, m is read back from the
    direction exactly, and with u1 . u and u2 . u kept as ints, times one
    positive factor, u's height there is an int over a positive one, which
    the diagram's table looks up without a Fraction.
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
    u1_u1, u1_u2 = dot(frame.u1, frame.u1), dot(frame.u1, frame.u2)
    along, against = sweep.events, sweep_diagram.events
    down_degree = [along.count(1, along.level_of(a, unit)) for a, _ in plane]
    up_degree = [against.count(1, against.level_of(-a, unit)) for a, _ in plane]

    ids_by_height = sorted(range(len(points)), key=lambda i: plane[i][0])
    edges: Set[Tuple[int, int]] = set()
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(points))}
    cuts: Dict[int, List[Cut]] = {i: [] for i in range(len(points))}
    asked = _KeptAnswers(oracle)
    for step, vid in enumerate(ids_by_height):
        # vid's edges down were all found from the vertices below it
        if len(adjacency[vid]) != down_degree[vid]:
            raise OracleInconsistency(
                f"vertex {vid} has {len(adjacency[vid])} edges down, "
                f"the sweep diagram counts {down_degree[vid]}"
            )
        others = [u for u in range(len(points)) if u != vid]
        order = radial_order(
            scaled[vid], [scaled[u] for u in others], ids=others, frame=frame
        )
        # every neighbour known so far of a vertex above vid lies below vid
        excluded = {u for u in others if len(adjacency[u]) == down_degree[u]}
        ups = find_up_edges(
            vid,
            adjacency[vid],
            order,
            up_degree[vid],
            asked,
            points,
            excluded,
            cuts.pop(vid),
        )
        for u in ups:
            edges.add(tuple(sorted((vid, u))))
            adjacency[vid].append(u)
            adjacency[u].append(vid)

        later = ids_by_height[step + 1 :]
        for dgm in asked.diagrams:
            m = Fraction(dot(dgm.direction, frame.u1) + u1_u2, u1_u1)
            p, q = m.numerator, m.denominator
            events = dgm.events
            for u in later:
                a, b = plane[u]
                i = events.level_of(p * a - q * b, q * unit)
                if events.count(0, i) == 1:
                    cuts[u].append((p, q, events.count(1, i)))
        asked.diagrams.clear()
    return edges, sweep_diagram
