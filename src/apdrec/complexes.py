"""Embedded simplicial complexes: closure, validation, on-disk format.

A simplex is a sorted tuple of distinct vertex ids; a complex stores the
embedded vertices (id -> rational point) together with a face-closed set of
simplices.  Vertex ids are dense integers 0..n0-1 so that simplex tuples are
canonical and set equality is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from operator import mul
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidInput, ParseError
from .geometry import (
    IntVector,
    Vector,
    _hull_normal,
    affinely_independent,
    as_vector,
    format_rational,
    parse_rational,
    scale_to_integers,
)

Simplex = Tuple[int, ...]


def make_simplex(vertex_ids: Iterable[int]) -> Simplex:
    ids = tuple(sorted(vertex_ids))
    if not ids:
        raise InvalidInput("empty simplex")
    if len(set(ids)) != len(ids):
        raise InvalidInput(f"duplicate vertices in simplex {ids}")
    return ids


def proper_faces(simplex: Simplex) -> List[Simplex]:
    """All nonempty proper faces, sorted by (dimension, vertex tuple)."""
    faces = []
    for size in range(1, len(simplex)):
        faces.extend(combinations(simplex, size))
    return faces


def facets(simplex: Simplex) -> List[Simplex]:
    """Codimension-one faces."""
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


@dataclass
class SimplicialComplex:
    """Face-closed simplex set over embedded vertices.

    Immutable after construction by convention; all derived counts are
    computed on demand.
    """

    ambient_dim: int
    vertices: Dict[int, Vector]
    simplices: FrozenSet[Simplex]

    def simplices_of_dim(self, k: int) -> List[Simplex]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    @property
    def kappa(self) -> int:
        """Maximum simplex dimension (-1 for the empty complex)."""
        return max((len(s) - 1 for s in self.simplices), default=-1)

    @property
    def n(self) -> int:
        return len(self.simplices)

    def n_k(self, k: int) -> int:
        return sum(1 for s in self.simplices if len(s) == k + 1)

    def maximal_simplices(self) -> List[Simplex]:
        """The simplices that are no simplex's facet, sorted by (dimension,
        vertex tuple); in a face-closed set these are the maximal ones."""
        covered = {f for s in self.simplices for f in facets(s)}
        return sorted(self.simplices - covered, key=lambda s: (len(s), s))


def build_complex(
    ambient_dim: int,
    vertex_points: Dict[int, Sequence],
    maximal_simplices: Iterable[Iterable[int]],
) -> SimplicialComplex:
    """Downward closure of the given maximal simplices.

    Idempotent when the input is already closed.  Raises InvalidInput on a
    vertex id that is no int, a coordinate that is no rational, unknown
    vertex ids, duplicate vertices within a simplex, a simplex that is no
    collection of ids, or a simplex of dimension larger than the ambient
    dimension.
    """
    vertices: Dict[int, Vector] = {}
    try:
        for vid, coords in vertex_points.items():
            point = as_vector(coords)
            if len(point) != ambient_dim:
                raise InvalidInput(f"vertex {vid} is not a point of R^{ambient_dim}")
            vertices[int(vid)] = point

        closed = {(v,) for v in vertices}
        for raw in maximal_simplices:
            simplex = make_simplex(raw)
            for v in simplex:
                if v not in vertices:
                    raise InvalidInput(f"simplex {simplex} has unknown vertex {v}")
            if len(simplex) - 1 > ambient_dim:
                raise InvalidInput(f"simplex {simplex} exceeds dimension {ambient_dim}")
            for size in range(1, len(simplex) + 1):
                closed.update(combinations(simplex, size))
    except (TypeError, ValueError) as exc:
        # a vertex id that is no int, or a simplex that is no collection of ids
        raise InvalidInput(f"malformed complex input: {exc}") from exc
    return SimplicialComplex(ambient_dim, vertices, frozenset(closed))


class PositionCheck:
    """Incremental general-position check of integer points in R^dim.

    ``witnesses(p)`` yields the witnesses by which p, the i-th point,
    breaks general position with the i points added so far (``add``), in
    order: ("projection", j, i) for each earlier point with the same (e1,
    e2) projection, ("collinear", a, b, i) for each earlier pair whose
    projections are collinear with its own, and ("affine-dependent", *js,
    i) for each min(i, dim) earlier points affinely dependent with it.
    Over all points this covers every dim+1 points, or all when there are
    fewer.  A common positive scale of the points changes no witness.  The
    state it keeps across candidates:

    - The projected tests bucket each earlier point by the primitive,
      sign-normalised direction of its (e1, e2) offset from p, O(i) per
      candidate.  A zero offset is a shared projection, collinear with p
      and every other earlier point; two points in one bucket are collinear
      with p.  For dim <= 2 the projection is the point itself, so the same
      buckets decide affine dependence.
    - For dim >= 3, each d-subset S of added points has one cached
      hyperplane (n, c): n is the ``geometry._hull_normal`` of S, zero when
      S is dependent, and c its dot product with S's first point.  S with p
      is dependent iff n . p == c, one dot product per subset.  A point's
      subsets are built when the next candidate arrives, so the last
      point's never are.  With fewer than dim earlier points their rank
      decides.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.points: List[IntVector] = []
        self._planes: List[Tuple[Simplex, List[int], int]] = []
        self._planned = 0  # the points whose d-subsets are in _planes

    def add(self, p: IntVector) -> None:
        self.points.append(p)

    def witnesses(self, p: IntVector) -> Iterator[tuple]:
        points, dim = self.points, self.dim
        i = len(points)
        if dim < 2:
            zero = [j for j, q in enumerate(points) if q[0] == p[0]]
            collinear: List[Tuple[int, int]] = []
        else:
            zero, collinear = self._projected(p)
        for j in zero:
            yield ("projection", j, i)
        for a, b in collinear:
            yield ("collinear", a, b, i)
        if dim <= 2:
            dependent = [(j,) for j in zero] if min(i, dim) == 1 else collinear
            for subset in dependent:
                yield ("affine-dependent",) + subset + (i,)
        elif i >= dim:
            self._plan()
            hits = [S for S, n, c in self._planes if sum(map(mul, n, p)) == c]
            for subset in sorted(hits):
                yield ("affine-dependent",) + subset + (i,)
        elif i and not affinely_independent(points + [p]):
            yield ("affine-dependent",) + tuple(range(i)) + (i,)

    def _projected(self, p: IntVector) -> Tuple[List[int], List[Tuple[int, int]]]:
        """The earlier points sharing p's projection, and every earlier pair
        (a, b), a < b in lexicographic order, projected collinear with p."""
        px, py = p[0], p[1]
        zero: List[int] = []
        keys: List[Optional[Tuple[int, int]]] = []
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for j, q in enumerate(self.points):
            dx, dy = q[0] - px, q[1] - py
            if not dx and not dy:
                zero.append(j)
                keys.append(None)
                continue
            g = gcd(dx, dy)
            if dx < 0 or not dx and dy < 0:
                g = -g
            key = (dx // g, dy // g)
            keys.append(key)
            buckets.setdefault(key, []).append(j)
        i = len(keys)
        if not zero and len(buckets) == i:
            return zero, []
        collinear = []
        for a, key in enumerate(keys):
            partners = range(a + 1, i) if key is None else sorted(
                b for b in zero + buckets[key] if b > a
            )
            collinear.extend((a, b) for b in partners)
        return zero, collinear

    def _plan(self) -> None:
        """Cache the hyperplane of every d-subset of the added points."""
        points, zero = self.points, [0] * self.dim
        for k in range(self._planned, len(points)):
            for rest in combinations(range(k), self.dim - 1):
                subset = rest + (k,)
                q = [points[j] for j in subset]
                # a dependent subset gets the zero normal, which matches every p
                normal = _hull_normal(q) or zero
                self._planes.append((subset, normal, sum(map(mul, normal, q[0]))))
        self._planned = len(points)


def _free_of(kind: str) -> property:
    """A report flag: true when no witness is of the given kind."""
    return property(lambda report: all(w[0] != kind for w in report.violations))


@dataclass
class GeneralPositionReport:
    """Outcome of the checkable general position assumptions.

    ``violations`` holds the ``PositionCheck`` witnesses, listed by
    their last vertex; ``ok`` means there are none.  A shared projection is
    reported against every earlier vertex, and a dependent set of fewer than
    d+1 vertices adds a shorter witness of its own.  ``unique_e1_heights`` is
    informational only: reconstruction recovers first-axis ties with a
    tilted basis at 2 extra queries, so a tie is not a violation.
    """

    unique_e1_heights: bool
    violations: List[tuple] = field(default_factory=list)
    distinct_projections = _free_of("projection")
    no_three_projected_collinear = _free_of("collinear")
    affinely_independent = _free_of("affine-dependent")

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_general_position(complex_: SimplicialComplex) -> GeneralPositionReport:
    """Check the general position assumptions that reconstruction relies on.

    One ``PositionCheck`` pass over the integer-scaled vertices in id order;
    witnesses name vertex ids.
    """
    ids = sorted(complex_.vertices)
    points, _ = scale_to_integers([complex_.vertices[vid] for vid in ids])
    check = PositionCheck(complex_.ambient_dim)
    violations = []
    for p in points:
        violations.extend(
            (w[0],) + tuple(ids[j] for j in w[1:]) for w in check.witnesses(p)
        )
        check.add(p)
    unique = len({p[0] for p in points}) == len(points)
    return GeneralPositionReport(unique, violations)


# ---------------------------------------------------------------------------
# text format


def serialize_complex(complex_: SimplicialComplex) -> str:
    """One-record-per-line text form; maximal simplices only."""
    lines = [f"dim {complex_.ambient_dim}", f"vertices {len(complex_.vertices)}"]
    for vid in sorted(complex_.vertices):
        coords = " ".join(format_rational(x) for x in complex_.vertices[vid])
        lines.append(f"{vid} {coords}")
    maximal = [s for s in complex_.maximal_simplices() if len(s) > 1]
    lines.append(f"simplices {len(maximal)}")
    for s in maximal:
        lines.append(" ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    """Inverse of serialize_complex; applies downward closure on load.

    The vertex records must use the ids 0..n0-1, each once.
    """
    rows: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    cursor = 0

    def take(expected: str) -> Tuple[int, List[str]]:
        nonlocal cursor
        if cursor >= len(rows):
            raise ParseError(f"unexpected end of file, expected {expected!r}")
        row = rows[cursor]
        cursor += 1
        return row

    def header(keyword: str, minimum: int) -> int:
        lineno, tokens = take(keyword)
        if len(tokens) != 2 or tokens[0] != keyword:
            raise ParseError(f"expected '{keyword} <n>'", lineno)
        try:
            value = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad {keyword} value {tokens[1]!r}", lineno)
        if value < minimum:
            raise ParseError(f"{keyword} must be at least {minimum}", lineno)
        return value

    ambient_dim = header("dim", 1)
    n0 = header("vertices", 0)

    vertex_points: Dict[int, Vector] = {}
    for _ in range(n0):
        lineno, tokens = take("vertex record")
        if len(tokens) != 1 + ambient_dim:
            raise ParseError(
                f"vertex record needs id plus {ambient_dim} coordinates", lineno
            )
        try:
            vid = int(tokens[0])
            coords = tuple(parse_rational(t) for t in tokens[1:])
        except (ValueError, InvalidInput) as exc:
            raise ParseError(str(exc), lineno)
        if not 0 <= vid < n0:
            raise ParseError(f"vertex id {vid} outside 0..{n0 - 1}", lineno)
        if vid in vertex_points:
            raise ParseError(f"duplicate vertex id {vid}", lineno)
        vertex_points[vid] = coords

    m = header("simplices", 0)

    maximal: List[Simplex] = []
    for _ in range(m):
        lineno, tokens = take("simplex record")
        try:
            ids = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"bad vertex id in {tokens}", lineno)
        for v in ids:
            if v not in vertex_points:
                raise ParseError(f"simplex references unknown vertex {v}", lineno)
        if len(ids) > ambient_dim + 1:
            raise ParseError(f"simplex exceeds ambient dimension {ambient_dim}", lineno)
        try:
            maximal.append(make_simplex(ids))
        except InvalidInput as exc:
            raise ParseError(str(exc), lineno)

    if cursor != len(rows):
        raise ParseError("trailing content", rows[cursor][0])
    try:
        return build_complex(ambient_dim, vertex_points, maximal)
    except InvalidInput as exc:
        raise ParseError(str(exc))
