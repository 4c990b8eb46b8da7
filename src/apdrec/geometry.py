"""Exact rational linear algebra and direction construction.

Coordinates and heights are exact.  The reconstruction geometry runs on
``int`` values: the callers scale their points by a common denominator, and
a diagram's heights are ints over its own denominator.  Directions are *not*
normalized: only the ordering and equality of dot products ever matters, and
both are invariant under positive scaling.  This keeps the whole pipeline
inside the rationals (no square roots), and lets every construction return a
positive integer multiple of its direction, which ``primitive_direction``
reduces.  The only ``fractions.Fraction`` values of a reconstruction are the
logged directions of the vertex stage and of the edge stage's splits, and
the recovered points.

Every kernel has one code path that is exact on ``int`` input and stays
exact on ``Fraction`` input: a quotient is built as ``Fraction(p, q)``, never
as ``p / q``, which would give a float for two ints.  ``dot`` of two integer
vectors is an int, ``primitive_direction`` returns ints, ``_rref``
eliminates fraction-free, and ``_solve_particular`` and ``tilt`` return
integer multiples of their rational answers.  ``tilt`` is the one place a
tilted direction is formed: the vertex stage divides its result by q, and
the higher stage reduces it with ``primitive_direction``.

Vectors and directions are plain tuples, which makes them hashable and
trivially immutable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegeneratePosition,
    InvalidInput,
    ParallelDirections,
    PreconditionViolated,
)

Vector = Tuple[Fraction, ...]
IntVector = Tuple[int, ...]
Direction = Tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# basic vector helpers


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of ints/strings/Fractions into a Vector; a
    Fraction is kept as it is."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact dot product; an int when both vectors hold ints."""
    if len(a) != len(b):
        raise InvalidInput(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def scale_to_integers(
    rows: Sequence[Sequence[Fraction]],
) -> Tuple[List[IntVector], int]:
    """(rows times L, L) for L the common denominator of every entry.

    Each scaled row is a tuple of ints.  L > 0, so every dot product with a
    scaled row is L times the rational one: order and ties are kept.
    """
    scale = math.lcm(*[x.denominator for row in rows for x in row])
    scaled = [
        tuple([x.numerator * (scale // x.denominator) for x in row]) for row in rows
    ]
    return scaled, scale


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def basis_vector(dim: int, index: int) -> IntVector:
    return tuple(int(i == index) for i in range(dim))


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def parallel(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """True iff a and b are linearly dependent (checks all 2x2 minors)."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def primitive_direction(d: Sequence[Fraction]) -> IntVector:
    """Scale a direction by a positive rational to primitive integer form.

    The orientation is preserved; scaled duplicates map to the same tuple of
    ints.
    """
    if is_zero(d):
        raise InvalidInput("zero vector has no direction")
    denom_lcm = math.lcm(*(x.denominator for x in d))
    ints = [x.numerator * (denom_lcm // x.denominator) for x in d]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def format_rational(x: Fraction) -> str:
    """Lowest-terms text form: "p/q", or "p" when q == 1."""
    return str(Fraction(x))


# The most digits a parsed rational may spell, a decimal exponent counting
# as that many digits: the numerator and denominator then stay below
# Python's 4,300-digit limit on int-to-text conversion, and a token such as
# "1e100000000" is refused before any integer is built.
MAX_RATIONAL_DIGITS = 4000


def parse_rational(token: str) -> Fraction:
    """The rational a token spells as ``Fraction`` reads it ("3", "-1/2",
    "0.25", "1e-3").  Raises InvalidInput for any other token and for one
    of more than ``MAX_RATIONAL_DIGITS`` digits, exponent included."""
    if len(token) > MAX_RATIONAL_DIGITS:
        raise InvalidInput(f"rational of {len(token)} characters is too long")
    head, e, tail = token.lower().partition("e")
    try:
        digits = sum(c.isdigit() for c in head) + (abs(int(tail)) if e else 0)
        if digits > MAX_RATIONAL_DIGITS:
            raise InvalidInput(
                f"{token!r} spells {digits} digits, more than {MAX_RATIONAL_DIGITS}"
            )
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational: {token!r}") from exc


# ---------------------------------------------------------------------------
# exact linear solving (internal)


def _rref(rows: List[List[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free reduced row echelon form; returns (rows, pivot columns).

    Each row is first scaled to ints by the lcm of its denominators, a
    positive scale that changes neither the row space nor any solution.
    Elimination then follows Bareiss: with p the new pivot and q the one
    before it, every other row becomes ``(p * row - row[col] * pivot_row) /
    q``, and Sylvester's identity makes that division exact.  Every pivot
    entry ends as the same integer D, made positive at the end, and each row
    is D times the matching row of the rational reduced form; rows past the
    rank are zero.  Returns new lists; the input is not modified.
    """
    if not rows:
        return [], []
    reduced = _integer_rows(rows)
    ncols = len(reduced[0])
    pivots: List[int] = []
    previous = 1
    r = 0
    for col in range(ncols):
        if r == len(reduced):
            break
        pr = next((i for i in range(r, len(reduced)) if reduced[i][col]), None)
        if pr is None:
            continue
        reduced[r], reduced[pr] = reduced[pr], reduced[r]
        pivot_row = reduced[r]
        p = pivot_row[col]
        for i, row in enumerate(reduced):
            if i != r:
                f = row[col]
                reduced[i] = [
                    (p * a - f * b) // previous for a, b in zip(row, pivot_row)
                ]
        previous = p
        pivots.append(col)
        r += 1
    if previous < 0:
        reduced = [[-x for x in row] for row in reduced]
    return reduced, pivots


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Each row times the lcm of its denominators: ints, in new lists."""
    out = []
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def _solve_particular(
    equations: List[Tuple[Sequence[Fraction], Fraction]], dim: int
) -> Optional[List[int]]:
    """D times one exact solution of ``coeffs . x = rhs`` rows, for one
    integer D > 0, or None if the rows are inconsistent.

    D is the pivot entry that ``_rref`` leaves on every pivot row (1 when
    there is none), so the result is all ints and is the rational solution
    scaled by D.  Free variables are set to zero, so the result is
    deterministic.
    """
    aug = [list(coeffs) + [rhs] for coeffs, rhs in equations]
    aug, pivots = _rref(aug)
    if pivots and pivots[-1] == dim:  # pivot in the rhs column
        return None
    x = [0] * dim
    for row, col in zip(aug, pivots):
        x[col] = row[dim]
    return x


# ---------------------------------------------------------------------------
# direction constructions


def affinely_independent(points: Sequence[Vector]) -> bool:
    """True iff no point lies in the affine hull of the others: the
    differences from the first point have full rank."""
    diffs = [list(vsub(p, points[0])) for p in points[1:]]
    _, pivots = _rref(diffs)
    return len(pivots) == len(points) - 1


def affine_hyperplane(points: Sequence[IntVector]) -> Tuple[IntVector, int]:
    """(n, c) with n . x - c = det[q2 - q1, ..., qd - q1, x - q1] for the d
    integer points q1..qd of R^d.

    n is the cofactor vector of the last row (Laplace expansion on it), so
    for affinely independent points x lies in their affine hull exactly
    when n . x == c.  For dependent points n = 0 and c = 0: every x then
    makes a dependent set with them.  The cofactors come from one bottom-up
    pass of Laplace expansions over the difference rows, 2^d - 2 minors.
    """
    q1 = points[0]
    d = len(q1)
    rows = [[a - b for a, b in zip(q, q1)] for q in points[1:]]
    # minors[cols]: the determinant of the last len(cols) rows on those
    # columns, expanded along the first of those rows
    minors: Dict[Tuple[int, ...], int] = {(): 1}
    for size, row in enumerate(reversed(rows), start=1):
        larger = {}
        for cols in combinations(range(d), size):
            value, sign = 0, 1
            for k, c in enumerate(cols):
                value += sign * row[c] * minors[cols[:k] + cols[k + 1 :]]
                sign = -sign
            larger[cols] = value
        minors = larger
    # the last level holds the minors omitting column d-1, d-2, ..., 0
    normal = tuple(
        (-1) ** (d + 1 + j) * minor
        for j, minor in enumerate(reversed(minors.values()))
    )
    return normal, sum(map(operator.mul, normal, q1))


def orthogonal_to_affine_hull(points: Sequence[Vector]) -> Direction:
    """A direction with equal dot product against every input point.

    Single Gram-Schmidt-style elimination: row-reduce the difference vectors
    and return the canonical kernel vector of the first free column, rescaled
    to primitive integer form.  Raises DegeneratePosition if the points are
    affinely dependent or already span the whole space.
    """
    if not points:
        raise InvalidInput("need at least one point")
    dim = len(points[0])
    diffs = [list(vsub(p, points[0])) for p in points[1:]]
    diffs, pivots = _rref(diffs)
    if len(pivots) < len(diffs):
        raise DegeneratePosition("points are affinely dependent")
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        raise DegeneratePosition("points affinely span the whole space")
    # the rows are D times the rational ones, so this kernel vector is too
    j = free[0]
    z = [0] * dim
    z[j] = diffs[0][pivots[0]] if pivots else 1
    for row, col in zip(diffs, pivots):
        z[col] = -row[j]
    return primitive_direction(z)


def second_perpendicular_direction(
    points: Sequence[Vector],
    heights: Sequence[Fraction],
    v: Sequence[int],
    w: Sequence[int],
    s: Direction,
) -> Direction:
    """Direction orthogonal to aff(W) placing W strictly below V \\ W.

    ``v`` and ``w`` are ids into ``points``, and ``heights`` are the points'
    heights under s, which the caller holds.  Preconditions (W subset of V):
    s is orthogonal to aff(V), V is affinely independent, and under s the
    points of V are height separated from every other point; a point outside
    V at V's height raises PreconditionViolated.  The returned s' is
    orthogonal to both aff(W) and s, with ``s'.x - s'.w`` one positive
    constant for every w in W, x in V \\ W: the primitive form of the
    solution of a linear system with that constant 1, which also makes the
    choice deterministic.  An empty W raises InvalidInput.

    V \\ W gets -s': the rows of both systems span {s, v - v0 : v in V}, so
    ``_rref`` frees the same columns, and minus W's solution solves the
    system of V \\ W with those columns zero, so it is that particular solution.

    The paper's plane-filling lemma: the direction that isolates a face W of
    V for Face Isolation.
    """
    v_set, w_set = set(v), set(w)
    if not w_set <= v_set:
        raise InvalidInput("W must be a subset of V")
    if not w:
        raise InvalidInput("W must be nonempty")
    if w_set == v_set:
        return tuple(s)

    height = heights[v[0]]
    if any(h == height and u not in v_set for u, h in enumerate(heights)):
        raise PreconditionViolated("s does not height-separate V from the rest")

    w0 = points[w[0]]
    equations: List[Tuple[Sequence[Fraction], int]] = [
        (vsub(points[u], w0), 0) for u in w[1:]
    ]
    equations.append((s, 0))
    equations += [(vsub(points[x], w0), 1) for x in v if x not in w_set]
    solution = _solve_particular(equations, len(s))
    if solution is None or is_zero(solution):
        raise DegeneratePosition("V u {v - s} is affinely dependent")
    return primitive_direction(solution)


def leftmost_crossing(
    heights: Sequence[Fraction], heights_prime: Sequence[Fraction]
) -> Optional[Fraction]:
    """Smallest t in (0, 1] where two of the interpolation segments cross.

    The segments join (0, h) to (1, h') for every pairing h in H, h' in H'.
    The minimum is attained by the closest distinct heights of H against the
    extreme heights of H', which is what is computed here; tests check the
    equivalence against full pair enumeration.  Returns None when H carries
    fewer than two distinct values (no crossing in (0, 1]).

    The paper's eps lemma bounds eps by this crossing (see ``tilt_weight``).
    """
    crossing = _crossing(heights, heights_prime)
    return None if crossing is None else Fraction(*crossing)


def _crossing(heights: Sequence, heights_prime: Sequence) -> Optional[Tuple]:
    """(gap, gap + spread), the leftmost crossing as a pair whose quotient it
    is: gap is the closest distance of two distinct heights in H, spread
    that of the extremes of H'.  None when H has fewer than two distinct
    values.  Ints on integer heights."""
    if not heights or not heights_prime:
        raise InvalidInput("height lists must be nonempty")
    distinct = sorted(set(heights))
    if len(distinct) < 2:
        return None
    min_gap = min(b - a for a, b in zip(distinct, distinct[1:]))
    return min_gap, min_gap + max(heights_prime) - min(heights_prime)


def tilt_weight(
    heights: Sequence[int], heights_prime: Sequence[int]
) -> Tuple[int, int]:
    """(n, q), n and q positive, for the eps = n / q of a tilt ``(1 - eps) *
    s + eps * s'`` with the heights under s and s': half their leftmost
    segment crossing, or 1/2 when there is none (``heights`` empty or with
    fewer than two distinct values).

    Scaling both lists by one positive factor leaves eps as it is, so the
    heights may be any common positive multiple of the rational ones; on
    integer heights n and q are ints, not necessarily coprime.

    The paper's eps lemma: any eps below the leftmost crossing keeps the
    order of distinct heights.
    """
    crossing = _crossing(heights, heights_prime) if heights else None
    if crossing is None:
        return 1, 2
    gap, total = crossing
    return gap, 2 * total


def tilt(weight: Tuple[int, int], s: Direction, s_prime: Direction) -> Direction:
    """q times the tilt from s towards s', ``(1 - eps) * s + eps * s'``.

    eps = n / q for the ``weight`` (n, q), the ``tilt_weight`` of the
    heights under s and s', so heights that are distinct under s keep their
    order, while ties under s are broken by the s' order.  The result ``(q -
    n) * s + n * s'`` is a positive multiple of the tilt, so it orders and
    ties heights as the tilt does; on integer directions it is all ints, and
    ``primitive_direction`` reduces it.  Every tilted direction of a
    reconstruction is formed here.

    The paper's tilt of an initial direction that keeps the vertex order,
    the direction step of find-coord.
    """
    if parallel(s, s_prime):
        raise ParallelDirections("tilt requires linearly independent directions")
    n, q = weight
    m = q - n
    return tuple(m * a + n * b for a, b in zip(s, s_prime))


# ---------------------------------------------------------------------------
# radial machinery in the sweep plane


@dataclass(frozen=True)
class SweepFrame:
    """Orthogonal direction pair spanning the projection plane of the sweep.

    The default frame is (e1, e2), matching projection onto coordinates
    (1, 2); the fallback basis built when e1 heights collide swaps in the
    tilted pair (b1, b2).  Offsets (x, y) are measured by dot products with
    the two frame vectors.

    ``integer`` is (w1, w2, f): the pair scaled to ints by their common
    denominator f > 0, so u1 = w1 / f and u2 = w2 / f.  It is built once, with
    the frame.
    """

    u1: Direction
    u2: Direction
    integer: Tuple[IntVector, IntVector, int] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        (w1, w2), f = scale_to_integers([self.u1, self.u2])
        object.__setattr__(self, "integer", (w1, w2, f))


def standard_frame(dim: int) -> SweepFrame:
    if dim < 2:
        raise InvalidInput("sweep frame needs ambient dimension >= 2")
    return SweepFrame(basis_vector(dim, 0), basis_vector(dim, 1))


Offset = Tuple[int, int]


@dataclass(frozen=True)
class RadialOrder:
    """Vertices above a center, sorted clockwise in the sweep plane.

    ``ordered`` holds (vertex id, offset) pairs of the vertices strictly
    above the center in the sweep direction (positive x), sorted by strictly
    descending slope y / x; in that open half-plane this is clockwise order.
    ``by_slope`` holds the offsets of every other vertex, above and below, in
    ascending order of slope.  No two slopes are equal (no three projected
    collinear points), so the order is strict.  ``ranks[i]`` is the index in
    ``by_slope`` of ``ordered[i]``, and ``offsets`` maps every other vertex
    to its offset.
    """

    ordered: Tuple[Tuple[int, Offset], ...]
    by_slope: Tuple[Offset, ...]
    ranks: Tuple[int, ...] = field(compare=False, repr=False)
    offsets: Dict[int, Offset] = field(compare=False, repr=False)


def radial_order(offsets: Dict[int, Offset]) -> RadialOrder:
    """Sort the vertices above a center clockwise, exactly.

    ``offsets`` maps each other vertex to its integer offset (x, y) from the
    center in the sweep plane: its heights in the frame's two directions
    less the center's, times one common positive factor, which keeps every
    slope and every side.  The sort runs on integer keys: with M the largest
    x², the key ``(y * M) // x`` is the floor of the slope times M.  Two
    distinct slopes differ by at least 1 / |x1 x2| >= 1 / M, so their keys
    keep their order, and equal slopes have equal keys.  Raises
    DegeneratePosition when a vertex has the center's sweep height (x = 0,
    which covers coincident projections) or when two vertices share a slope
    (their offsets are parallel), found as equal neighbours once the keys
    are sorted.
    """
    bound = max([x * x for x, _ in offsets.values()], default=1)
    entries = []
    for vid, (x, y) in offsets.items():
        if not x:
            raise DegeneratePosition(f"vertex {vid} has the center's sweep height")
        entries.append(((y * bound) // x, vid, (x, y)))
    entries.sort(key=operator.itemgetter(0))
    for (key, a, _), (next_key, b, _) in zip(entries, entries[1:]):
        if key == next_key:
            raise DegeneratePosition(f"projected offsets of {a} and {b} are parallel")
    # descending slopes; from lists, as a short tuple(genexpr) is freed into
    # another size's free list
    ranks = [i for i in range(len(entries) - 1, -1, -1) if entries[i][2][0] > 0]
    ordered = tuple([entries[i][1:] for i in ranks])
    by_slope = tuple([off for _, _, off in entries])
    return RadialOrder(ordered, by_slope, tuple(ranks), offsets)


def separating_slope(order: RadialOrder, after_index: int) -> Tuple[int, int]:
    """Slope p / q, in lowest terms with q > 0, of a line through the center
    splitting the order after ``after_index``.

    It is halfway between the slope at ``after_index`` and the next lower
    slope of any vertex (that slope minus one when there is none), so the
    line misses every vertex.  An offset (x, y) lies below it when
    ``p * x < q * y``: ``ordered[:after_index + 1]`` does and the rest of
    ``ordered`` does not.  With (x, y) the offset at ``after_index``, x > 0,
    and (a, b) the next lower one, or (x, y - 2x) of slope y / x - 2 when
    there is none, y / x + b / a halved is ``(y * a + b * x) / (2 * x *
    a)``, and the sign of a is that of the denominator.
    """
    if not 0 <= after_index < len(order.ordered):
        raise InvalidInput("after_index out of range")
    i = order.ranks[after_index]
    x, y = order.by_slope[i]
    a, b = order.by_slope[i - 1] if i else (x, y - 2 * x)
    p, q = y * a + b * x, 2 * x * a
    g = math.gcd(p, q) if a > 0 else -math.gcd(p, q)
    return p // g, q // g


def separating_direction(slope: Tuple[int, int], frame: SweepFrame) -> Direction:
    """The direction ``m * u1 - u2`` of the frame for the slope m = p / q.

    It gives a vertex whose offset from the center is (x, y) the height
    ``m * x - y`` above the center's, so for the ``separating_slope`` of an
    order the vertices up to the split land strictly below the center and
    the rest of ``ordered`` strictly above.  With the frame's integer form
    (w1, w2, f), each coordinate is one ``Fraction(p * x - q * y, q * f)``
    for x, y the coordinates of w1, w2.
    """
    p, q = slope
    w1, w2, f = frame.integer
    denominator = q * f
    return tuple(Fraction(p * x - q * y, denominator) for x, y in zip(w1, w2))
