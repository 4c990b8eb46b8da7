"""k-indegree, the wedge simplex predicate, and the reconstruction drivers.

The k-indegree of a simplex in a direction perpendicular to its affine hull
counts its k-dimensional cofaces at its own height.  A raw diagram count at
that height also picks up unrelated k-simplices, so one inclusion-exclusion
pass over the proper faces, bottom up (each face isolated by a tilted
direction), removes the double counting.  A face W and its complement
in sigma have opposite plane-filling directions, s' and -s', so each such
pair is isolated from one plane-filling solve and one tilt weight.  The
simplex predicate then compares the two k-indegrees across a wedge that
isolates exactly one candidate vertex: the counts differ by one precisely
when the candidate simplex exists.  ``reconstruct`` climbs the dimensions
2..d with it, on the parabolic lift for the full-dimensional simplices.

The stage runs on integers and builds no Fraction.  It takes the recovered
points as the vertex stage's ``CountLedger`` scaled them, once, by L, the
common denominator of their coordinates (the lifted points, (L * p, p . p)
for each scaled point p, by L squared), so every height is an int, L times
the rational one.  The predicates only compare heights, and a positive
scale keeps their order and their ties.  Every solved or tilted direction
is an integer multiple of the rational one by a positive factor:
``_solve_particular`` returns its solution times its pivot, ``tilt``
returns q times the tilt of weight n / q, and scaled heights give the same
weight.  ``primitive_direction`` removes the factor, so the oracle is asked
the same directions in the same order as on the rational points, and a
diagram is read at h / L by ``AugmentedDiagram.levels_of``.  A direction's
heights are computed once and handed on, to ``tilt_weight`` and to
``second_perpendicular_direction``, and so is each weight: the heights under
-s' are those under s' negated, with the same spread, so both tilts of a
pair share one weight, and the isolating direction hands its heights on to
the predicate.

The predicate and the indegree take vertex ids; an id that is negative, past
the last vertex or repeated, or an empty simplex, raises InvalidInput before
any query.
"""

from __future__ import annotations

from operator import getitem
from typing import Dict, List, Sequence, Set, Tuple

from .complexes import Simplex, SimplicialComplex, build_complex, facets, proper_faces
from .edges import find_edges
from .errors import (
    DegeneratePosition,
    InvalidInput,
    OracleInconsistency,
    PreconditionViolated,
)
from .geometry import (
    Direction,
    IntVector,
    dot,
    orthogonal_to_affine_hull,
    primitive_direction,
    second_perpendicular_direction,
    tilt,
    tilt_weight,
    vneg,
)
from .oracle import Oracle
from .vertices import CountLedger, vertex_stage


def _heights(points: Sequence[IntVector], s: Direction) -> List[int]:
    """Heights of all points under s, computed once per direction by callers.

    The points are integer-scaled by L > 0 and s is an integer direction, so
    each height is an int, L times the rational height.  Scaling by L > 0
    keeps the order and the ties of heights, which is all that tilt and the
    level tests compare.
    """
    return [dot(s, p) for p in points]


def _tilted(
    points: Sequence[IntVector],
    heights: Sequence[int],
    s: Direction,
    s_prime: Direction,
) -> Tuple[Direction, Direction]:
    """s tilted towards s' and towards -s', in primitive form; ``heights``
    are those under s.

    The heights under -s' are those under s' negated, with the same spread,
    so one ``tilt_weight`` of the s' heights serves both tilts.  Face
    Isolation tilts a face towards s' and its complement towards -s'; the
    predicate's wedge has the two tilts as its sides, and an isolating
    direction is the first tilt alone.  ``tilt`` returns a positive integer
    multiple of each tilt, which ``primitive_direction`` reduces."""
    weight = tilt_weight(heights, _heights(points, s_prime))
    return (
        primitive_direction(tilt(weight, s, s_prime)),
        primitive_direction(tilt(weight, s, vneg(s_prime))),
    )


def _check_ids(ids: Sequence[int], points: Sequence[IntVector]) -> None:
    """Raise InvalidInput unless ``ids`` are distinct vertex ids, at least
    one, each an int indexing ``points``."""
    if not ids or len(set(ids)) != len(ids):
        raise InvalidInput(f"vertex ids {ids!r} must be nonempty and distinct")
    if not all(isinstance(v, int) and 0 <= v < len(points) for v in ids):
        raise InvalidInput(f"vertex ids {ids!r} must lie in 0..{len(points) - 1}")


def _level_count(
    simplex: Simplex,
    direction: Direction,
    k: int,
    oracle: Oracle,
    points: Sequence[IntVector],
    scale: int,
) -> int:
    """The k-simplices at the simplex's height, which it must hold alone.

    One logged query.  Raises PreconditionViolated unless every vertex of
    the simplex has the same height under the direction and the queried
    diagram counts no other vertex at that height, and OracleInconsistency
    when the height is not on the diagram's grid: every vertex is an event
    at its own height, so such a diagram is not of the recovered complex.
    """
    dgm = oracle.query(direction)
    height = dot(direction, points[simplex[0]])
    if any(dot(direction, points[v]) != height for v in simplex[1:]):
        raise PreconditionViolated("direction is not constant on the simplex")
    (level,) = dgm.levels_of([height], scale)
    if level is None:
        raise OracleInconsistency(f"the simplex height is off the grid in {direction}")
    if dgm.histogram[0][level] != len(simplex):
        raise PreconditionViolated(
            "another vertex shares the simplex height in this direction"
        )
    return dgm.counts(k)[level]


def compute_indegree(
    sigma: Simplex,
    direction: Direction,
    k: int,
    memo: Dict[Simplex, int],
    oracle: Oracle,
    points: Sequence[IntVector],
    scale: int,
) -> int:
    """k-indegree of sigma in a direction that height-isolates it.

    ``points`` are the vertex points times ``scale`` (see the module notes).
    The k-simplices at sigma's height are those whose vertices at that
    height form a nonempty face tau of sigma; the ones with tau = sigma are
    the k-indegree.  For each proper face tau, in ``proper_faces`` order
    (non-descending dimension), the direction tilted so that tau lies alone
    at its height, below the rest of sigma, counts the k-simplices of tau
    and of its own proper faces.  So ``memo[tau]`` is that count less the
    memo of tau's proper faces, all filled earlier in the pass, and the
    k-indegree is sigma's count less the memo of all its proper faces.
    ``memo`` is an output: it ends holding every proper face's value.

    ``proper_faces`` lists sigma less tau at the mirror position of tau, and
    its plane-filling direction is tau's negated (see
    ``second_perpendicular_direction``), so the first half of the faces is
    solved and each solve gives both tilts (``_tilted``); the queries still
    follow ``proper_faces`` order.  A plane-filling error raises before the
    same face query as with one solve per face: the complement's system
    fails exactly when its face's does, and the face comes first.

    Raises InvalidInput for a bad vertex id in sigma, and
    PreconditionViolated for k at most sigma's dimension, before any query.
    One logged query for sigma, first, then one per proper face, each
    checked as ``_level_count`` states.

    The paper's Face Isolation: the sumSwaps lemma's sum over the faces.
    """
    _check_ids(sigma, points)
    if k <= len(sigma) - 1:
        raise PreconditionViolated("k must exceed the simplex dimension")
    count = _level_count(sigma, direction, k, oracle, points, scale)
    heights = _heights(points, direction)
    faces = proper_faces(sigma)
    tilted: List[Direction] = [()] * len(faces)
    for i, tau in enumerate(faces):
        if i < len(faces) // 2:  # faces[-1 - i] is sigma less tau
            s_prime = second_perpendicular_direction(
                points, heights, sigma, tau, direction
            )
            tilted[i], tilted[-1 - i] = _tilted(points, heights, direction, s_prime)
        memo[tau] = _level_count(tau, tilted[i], k, oracle, points, scale) - sum(
            memo[rho] for rho in proper_faces(tau)
        )
    return count - sum(memo[tau] for tau in faces)


def _isolating_direction(
    candidate: Sequence[int], points: Sequence[IntVector]
) -> Tuple[Direction, List[int]]:
    """Direction orthogonal to the candidate's hull giving it a unique
    height, and the heights of the points under it.

    Plain orthogonalization may leave other vertices on the same hyperplane;
    those form, together with the candidate, an affinely independent set of
    at most d vertices, so a second perpendicular direction pushes them
    strictly above and the tilt towards it removes every tie while staying
    orthogonal to the candidate's hull.  When no tie is left the heights
    are those already computed for the plain direction.
    """
    s1 = orthogonal_to_affine_hull([points[v] for v in candidate])
    heights = _heights(points, s1)
    height = heights[candidate[0]]
    level_ids = [u for u, h in enumerate(heights) if h == height]
    if set(level_ids) == set(candidate):
        return s1, heights
    if len(level_ids) > len(points[0]):
        raise DegeneratePosition(
            "more than d vertices on one hyperplane; general position violated"
        )
    s2 = second_perpendicular_direction(points, heights, level_ids, candidate, s1)
    s_star = _tilted(points, heights, s1, s2)[0]
    return s_star, _heights(points, s_star)


def is_simplex(
    sigma: Simplex,
    vertex: int,
    oracle: Oracle,
    points: Sequence[IntVector],
    scale: int,
) -> bool:
    """Does sigma plus one more vertex form a simplex of the complex?

    ``points`` are the vertex points times ``scale`` (see the module notes).

    Builds the wedge anchored at sigma whose two boundary directions place
    the candidate vertex below respectively above sigma while every other
    vertex stays on one fixed side, then compares the two k-indegrees.
    The two boundary directions are the isolating direction tilted towards
    s3 and towards -s3, from one ``_tilted`` call.
    Exactly 2 * (2^k - 1) logged queries for a k-simplex test, in one span
    of the log labelled k.  A bad vertex id raises InvalidInput, a vertex
    already in sigma PreconditionViolated, and an affinely dependent
    candidate DegeneratePosition, before any query.

    The paper's simpSwap algorithm, by Face Isolation on both sides.
    """
    _check_ids(sigma, points)
    _check_ids((vertex,), points)
    if vertex in sigma:
        raise PreconditionViolated("candidate vertex already in the simplex")
    k = len(sigma)
    candidate = tuple(sorted(sigma + (vertex,)))
    s_star, star_heights = _isolating_direction(candidate, points)
    s3 = second_perpendicular_direction(points, star_heights, candidate, sigma, s_star)
    s_lower, s_upper = _tilted(points, star_heights, s_star, s3)

    oracle.log.open(k)
    upper = compute_indegree(sigma, s_upper, k, {}, oracle, points, scale)
    lower = compute_indegree(sigma, s_lower, k, {}, oracle, points, scale)
    return abs(upper - lower) == 1


# ---------------------------------------------------------------------------
# drivers


def _cofaces(
    previous: Sequence[Simplex],
    oracle: Oracle,
    points: Sequence[IntVector],
    scale: int,
    ledger: CountLedger,
    dim: int,
) -> Set[Simplex]:
    """The (k+1)-simplices whose k-facets are all in ``previous``, confirmed.

    ``previous`` holds every k-simplex of the complex as a sorted tuple.  By
    face closure a candidate with a facet missing from ``previous`` cannot
    be a simplex, so it is never tested.  Every other candidate has
    ``cand[:-1]`` in ``previous``, so extending each sigma only by vertices
    above ``sigma[-1]`` reaches each candidate exactly once, as
    ``is_simplex(cand[:-1], cand[-1], ...)``.

    Every (k+1)-simplex is one event at the level of its highest vertex, so
    each diagram of the ``ledger`` counts the (k+1)-simplices, ``dim`` = k +
    1, that top each of its levels.  A candidate's *level tuple* holds its
    level in every diagram, in ledger order: the element-wise max of its
    vertices' level tuples.  A level is full once it holds as many found
    simplices as the diagram counts there.  Vertex ids follow the sweep
    order, so the tuple's first entry, the sweep diagram's, is the level of
    ``cand[-1]``, and its last, the -u1 diagram's, that of ``cand[0]``;
    both are read off those vertices before any facet is looked up.  Once
    sigma's lowest vertex has all its simplices found, every later
    candidate of sigma is full in -u1, and a sweep row of zeros means no
    candidate at all.

    A candidate full in either sweep diagram is not tested.  One full in
    another diagram is not tested either, unless a simplex found has its
    level tuple: were that simplex false and the candidate true, the
    exchange would keep every count, and the count check, the guard of
    every untested candidate, could not see it.
    """
    # the (k+1)-simplices each level of each diagram still misses
    left = [dgm.counts(dim) for dgm in ledger.diagrams]
    if not any(left[0]):
        return set()
    # each vertex's level in every diagram, the sweep's first and -u1's last
    levels = list(zip(*ledger.levels))
    known = set(previous)
    found: Set[Simplex] = set()
    # the level tuples of the simplices found
    placed: Set[Tuple[int, ...]] = set()
    for sigma in previous:
        low = levels[sigma[0]][-1]
        for vertex in range(sigma[-1] + 1, len(points)):
            if not left[-1][low]:
                break
            if not left[0][levels[vertex][0]]:
                continue
            candidate = sigma + (vertex,)
            if not all(f in known for f in facets(candidate)):
                continue
            at = tuple(map(max, *map(levels.__getitem__, candidate)))
            if not all(map(getitem, left, at)) and at not in placed:
                continue
            if is_simplex(sigma, vertex, oracle, points, scale):
                found.add(candidate)
                placed.add(at)
                for row, i in zip(left, at):
                    row[i] -= 1
    return found


def reconstruct(oracle: Oracle) -> SimplicialComplex:
    """Recover the full unknown complex from oracle queries alone.

    Vertices, then edges, then one pass per dimension i = 2..d.  Within it a
    candidate is tested only when its facets were all found one dimension
    down (a complex is face-closed, and the previous dimension was recovered
    exactly), and only while its level in each diagram of the ledger still
    misses some i-simplices (``_cofaces``, which tests some candidates past
    that for the count check's sake).  The counts cost no query: every
    i-simplex is one event at the height of its highest vertex, so each
    diagram counts the i-simplices that top each of its levels; the vertex
    stage's diagram in ``frame.u1`` counts those each vertex tops, and the
    edge stage's in ``-frame.u1`` those it bottoms.  Each candidate is
    tested at most once, so the higher stage costs at most 2(2^k - 1)
    queries per closure-eligible (k+1)-vertex candidate.

    The count check: the found simplices are checked against every diagram
    of the ledger, the vertex stage's and the edge stage's in ``-frame.u1``
    (``CountLedger.check``), at no query; ``find_edges`` ends with it for
    the edges, and each pass here runs it on its own simplices.  A
    dimension with no candidates left is still checked.
    The checked diagrams are those whose counts reject candidates, so a
    candidate rejected untested is guarded: a wrong simplex found in place
    of a true one goes unseen only when the exchange keeps the count of
    every diagram at every level, which a skip that no sweep diagram makes
    never brings about.

    A d-simplex spans R^d, so no direction is orthogonal to its hull.  When
    the sweep diagram counts a d-simplex at a vertex, the pass at i = d
    tests through ``oracle.lifted()`` on the lifted vertex points; lifting
    keeps the combinatorics, so the same counts apply.

    The stages account for their queries in ``oracle.log``: the spans
    "vertices" and "edges", then one span per predicate call labelled k.
    The lifted calls share that log and are the ones with k == d.
    """
    d = oracle.ambient_dim
    points, frame, ledger = vertex_stage(oracle)
    edges = find_edges(ledger, oracle, frame)
    simplices: Set[Simplex] = {(v,) for v in range(len(points))} | edges
    previous: List[Simplex] = sorted(edges)

    scaled, scale = ledger.scaled, ledger.scale
    for dim in range(2, d + 1):
        # the sweep diagram is the ledger's first
        if dim == d and any(ledger.counts(dim, 0)):
            oracle = oracle.lifted()
            scaled = [tuple(scale * x for x in p) + (dot(p, p),) for p in scaled]
            scale *= scale
        found = _cofaces(previous, oracle, scaled, scale, ledger, dim)
        ledger.check(found, dim)
        simplices.update(found)
        previous = sorted(found)

    return build_complex(d, dict(enumerate(points)), simplices)
