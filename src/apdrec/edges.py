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
"""

from __future__ import annotations

from dataclasses import dataclass
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
    sweep_diagram: AugmentedDiagram,
    oracle: Oracle,
    points: Sequence[Vector],
    frame: SweepFrame,
    excluded: Collection[int],
) -> List[int]:
    """Endpoints of all edges adjacent to and above the vertex.

    The initial indegree is read from the shared diagram in the negated sweep
    direction (deaths in dimension 0 plus births in dimension 1 at the
    vertex's height there).  The ``excluded`` vertices are known not to be
    endpoints and are left out of the candidates.  Intervals are processed
    left first; a zero-count interval is dropped, one whose count equals its
    number of candidates emits them all, anything else is split.
    """
    height_neg = -frame.height(points[vertex])
    indegree = sweep_diagram.count_at(1, height_neg)
    # from a list: a short tuple(genexpr) is freed into another size's free list
    candidates = tuple([vid for vid, _ in order.ordered if vid not in excluded])

    # the known neighbours first, then the endpoints found, in order
    neighbors: List[int] = list(known_below_edges)
    stack: List[EdgeInterval] = []
    if indegree:
        stack.append(EdgeInterval(vertex, candidates, indegree))
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
    common denominator, so every projected offset is a pair of ints; the
    heights read off diagrams stay rational.

    ``sweep`` is the vertex stage's diagram in ``frame.u1``.  Its edge count
    at a vertex's height is the number of edges from that vertex down to
    lower ones.  Once that many are known, the vertex has no edge to the
    current sweep vertex, so it is left out of the current vertex's
    candidates.  This costs no query.  When the sweep reaches a vertex, the
    edges found down from it must number exactly that count, or
    OracleInconsistency is raised.  A diagram in any other direction raises
    InvalidInput.
    """
    if tuple(sweep.direction) != tuple(frame.u1):
        raise InvalidInput("sweep diagram is not in the frame's first direction")
    oracle.log.open("edges")
    sweep_diagram = oracle.query(vneg(frame.u1))
    down_degree = [sweep.count_at(1, frame.height(p)) for p in points]

    scaled, _ = scale_to_integers(points)
    ids_by_height = sorted(range(len(points)), key=lambda i: frame.height(points[i]))
    edges: Set[Tuple[int, int]] = set()
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(points))}
    for vid in ids_by_height:
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
            vid, adjacency[vid], order, sweep_diagram, oracle, points, frame, excluded
        )
        for u in ups:
            edges.add(tuple(sorted((vid, u))))
            adjacency[vid].append(u)
            adjacency[u].append(vid)
    return edges, sweep_diagram
