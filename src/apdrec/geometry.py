"""Exact rational linear algebra and direction construction.

Coordinates and heights are exact.  The reconstruction geometry runs on
``int`` values: the callers scale their points by a common denominator, and
a diagram's heights are ints over its own denominator.  Directions are *not*
normalized: only the ordering and equality of dot products ever matters, and
both are invariant under positive scaling.  This keeps the whole pipeline
inside the rationals (no square roots), and lets every construction return a
positive integer multiple of its direction, which ``primitive_direction``
reduces.  Every direction a reconstruction asks is such a tuple of ints,
asked as it is returned: the vertex stage's tilts, the sweep frame and the
edge stage's splits ``p * u1 - q * u2``, which the edge stage reads at the
count ledger's unit.  The only ``fractions.Fraction`` values of a
reconstruction are the recovered coordinates.

Every kernel has one code path that is exact on ``int`` input and stays
exact on ``Fraction`` input: a quotient is built as ``Fraction(p, q)``, never
as ``p / q``, which would give a float for two ints.  ``dot`` of two integer
vectors is an int, ``primitive_direction`` returns ints, ``_rref``
eliminates fraction-free, and ``_solve_particular`` and ``tilt`` return
integer multiples of their rational answers.  ``tilt`` is the one place a
tilted direction is formed: the vertex stage asks its result as it is, and
the higher stage reduces it with ``primitive_direction``.

``scale_to_integers`` is the one routine that clears denominators:
``primitive_direction``, ``_rref``, the oracle's coordinates and directions
and the count ledger's points go through it, and each value is cleared
once.  Clearing is the identity on rows whose entries all have type exactly
``int`` (``_all_ints``), so it returns them with scale 1 and looks up no
denominator; ``primitive_direction`` and ``_rref`` test for such input
first and do not call it, as ``as_vector`` returns an all-int vector as it
is.  A ``bool`` or ``Fraction`` entry takes the clearing path, and any
other entry, a float or a string, is refused there with InvalidInput.
The public kernels that clear nothing, ``tilt``, ``tilt_weight``,
``leftmost_crossing``, ``radial_order`` and ``orthogonal_to_affine_hull``,
refuse such an entry with InvalidInput too, at the cost of one
``_all_ints`` test on all-int input: ``tilt`` and ``radial_order`` test
the ints they compute, in which a float entry shows as a float and a
string fails, and the others test their input (``_check_rationals``).
Every direction a reconstruction asks and every plane-filling row it
solves is all ints, so the fast path is the common one.

Vectors and directions are plain tuples, which makes them hashable and
trivially immutable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations
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


_INT = frozenset([int])


def _all_ints(v: Iterable) -> bool:
    """True iff every entry has type exactly int: a bool or a Fraction is
    not one."""
    return _INT.issuperset(map(type, v))


def _check_rationals(*vectors: Iterable) -> None:
    """Raise InvalidInput if an entry of the vectors is neither an int nor a
    Fraction: a float, a string or None.  All-int entries pass with one
    ``_all_ints`` test."""
    if not _all_ints(chain(*vectors)) and not all(
        isinstance(x, (int, Fraction)) for x in chain(*vectors)
    ):
        raise InvalidInput("entries must be ints or Fractions")


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of ints/strings/Fractions into a Vector; an int or
    a Fraction is kept as it is, a string read by ``parse_rational``, and
    any other entry read as a Fraction.  A tuple of ints is returned as it
    is.  Raises InvalidInput for an entry that is no rational (NaN, an
    infinity, None, a malformed string, a string with a zero denominator or
    more than ``MAX_RATIONAL_DIGITS`` digits)."""
    try:
        coords = tuple(coords)
        if _all_ints(coords):
            return coords
        return tuple(
            c if type(c) in (int, Fraction)
            else parse_rational(c) if isinstance(c, str)
            else Fraction(c)
            for c in coords
        )
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInput(f"entries must be rationals: {exc}") from exc


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact dot product; an int when both vectors hold ints."""
    if len(a) != len(b):
        raise InvalidInput(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def scale_to_integers(
    rows: Sequence[Sequence[Fraction]],
) -> Tuple[List[IntVector], int]:
    """(rows times L, L) for L the common denominator of every entry: the
    one routine that clears denominators.

    Each scaled row is a tuple of ints.  L > 0, so every dot product with a
    scaled row is L times the rational one: order and ties are kept.  When
    every entry is an int, L = 1 and the rows are returned as tuples, with
    no denominator looked up.  Raises InvalidInput for an entry that is
    neither an int nor a Fraction, such as a float: it is refused, not read
    at its exact value, since a float entry is often already the inexact
    result of float arithmetic.
    """
    if all(map(_all_ints, rows)):
        return list(map(tuple, rows)), 1
    if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        raise InvalidInput("entries must be ints or Fractions")
    scale = math.lcm(*[x.denominator for row in rows for x in row])
    scaled = [
        tuple([x.numerator * (scale // x.denominator) for x in row]) for row in rows
    ]
    return scaled, scale


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(map(operator.sub, a, b))


def vneg(a: Vector) -> Vector:
    return tuple(map(operator.neg, a))


def basis_vector(dim: int, index: int) -> IntVector:
    return tuple(int(i == index) for i in range(dim))


def is_zero(a: Sequence[Fraction]) -> bool:
    return not any(a)


def parallel(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """True iff a and b are linearly dependent: every 2x2 minor ``a_i * b_j
    - a_j * b_i`` is zero, so a zero a is parallel to everything.  The loop
    stops at the first nonzero minor, which on the independent pairs ``tilt``
    is given is usually the first."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def primitive_direction(d: Sequence[Fraction]) -> IntVector:
    """Scale a direction by a positive rational to primitive integer form.

    The orientation is preserved; scaled duplicates map to the same tuple of
    ints.  Entries that are all ints are only divided by their gcd; any
    other entries are first cleared by ``scale_to_integers``, which raises
    InvalidInput for an entry that is neither an int nor a Fraction.
    """
    if is_zero(d):
        raise InvalidInput("zero vector has no direction")
    if not _all_ints(d):
        (d,), _ = scale_to_integers([d])
    g = math.gcd(*d)
    return tuple([v // g for v in d])


def format_rational(x: Fraction) -> str:
    """Lowest-terms text form: "p/q", or "p" when q == 1, as ``str(Fraction)``
    writes it, for a numerator and denominator of any size.

    ``str(Decimal(n))`` is ``str(n)`` for an int n, but the conversion
    ignores Python's 4,300-digit limit on int-to-text conversion, so no
    caller needs to lift it."""
    x = Fraction(x)
    text = str(Decimal(x.numerator))
    return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


# The most digits a parsed rational may spell, a decimal exponent counting
# as that many digits: a token such as "1e100000000" is refused before its
# integer is built (a parse is quadratic in its digits), and the token stays
# below the 4,300-digit limit of Python's text-to-int conversion, which
# ``Fraction`` reads through.
MAX_RATIONAL_DIGITS = 4000


def parse_rational(token: str) -> Fraction:
    """The rational a token spells as ``Fraction`` reads it ("3", "-1/2",
    "0.25", "1e-3").  Raises InvalidInput for any other token and for one
    of more than ``MAX_RATIONAL_DIGITS`` digits, exponent included, before
    any integer is built: so a huge exponent costs no time or memory, and a
    long token gives InvalidInput, not the ValueError of Python's text-to-int
    limit."""
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


def _rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free reduced row echelon form; returns (rows, pivot columns).

    Rows that are not all ints are first scaled to ints by
    ``scale_to_integers``, one positive scale for all of them, which changes
    neither the row space, the pivots nor any solution.  Elimination then
    follows Bareiss: with p the new pivot and q the one before it, every
    other row becomes ``(p * row - row[col] * pivot_row) / q``, and
    Sylvester's identity makes that division exact.  Every pivot entry ends
    as the same integer D, made positive at the end, and each row is D times
    the matching row of the rational reduced form; rows past the rank are
    zero.  Returns new lists; the input is not modified.
    """
    if not rows:
        return [], []
    if not _all_ints(chain.from_iterable(rows)):
        rows = scale_to_integers(rows)[0]
    reduced = list(map(list, rows))
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
    aug = [(*coeffs, rhs) for coeffs, rhs in equations]
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
    diffs = [vsub(p, points[0]) for p in points[1:]]
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
    affinely dependent or already span the whole space, and InvalidInput
    for no point or points of two dimensions.
    """
    if len({len(p) for p in points}) != 1:
        raise InvalidInput("need one or more points, all of one dimension")
    _check_rationals(*points)
    dim = len(points[0])
    diffs = [vsub(p, points[0]) for p in points[1:]]
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
    _check_rationals(heights, heights_prime)
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
    min_gap = min(map(operator.sub, distinct[1:], distinct))
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
    _check_rationals(heights, heights_prime)
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
    reconstruction is formed here.  s and s' of two lengths raise
    InvalidInput, as ``zip`` would drop the longer one's tail.

    The paper's tilt of an initial direction that keeps the vertex order,
    the direction step of find-coord.
    """
    n, q = weight
    try:
        m = q - n
        tilted = [m * a + n * b for a, b in zip(s, s_prime, strict=True)]
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"need two rational vectors of one length: {exc}") from exc
    # a float entry anywhere makes an entry of the tilt a float
    if not _all_ints(tilted):
        _check_rationals(weight, s, s_prime)
    if parallel(s, s_prime):
        raise ParallelDirections("tilt requires linearly independent directions")
    return tuple(tilted)


# ---------------------------------------------------------------------------
# radial machinery in the sweep plane


@dataclass(frozen=True)
class SweepFrame:
    """Orthogonal pair of integer directions spanning the projection plane
    of the sweep.

    The default frame is (e1, e2), matching projection onto coordinates
    (1, 2); the fallback basis built when e1 heights collide swaps in the
    tilted pair (b1, b2).  Offsets (x, y) are measured by dot products with
    the two frame vectors.  Any entry that is not an int, or two vectors of
    two lengths, raises InvalidInput.
    """

    u1: IntVector
    u2: IntVector

    def __post_init__(self) -> None:
        if not _all_ints((*self.u1, *self.u2)) or len(self.u1) != len(self.u2):
            raise InvalidInput("a sweep frame holds two integer vectors of one length")


def standard_frame(dim: int) -> SweepFrame:
    if dim < 2:
        raise InvalidInput("sweep frame needs ambient dimension >= 2")
    return SweepFrame(basis_vector(dim, 0), basis_vector(dim, 1))


Offset = Tuple[int, int]


# every other vertex as (vertex id, offset), in descending slope y / x
RadialOrder = Tuple[Tuple[int, Offset], ...]


def radial_order(offsets: Dict[int, Offset]) -> RadialOrder:
    """Every other vertex as (vertex id, offset), in descending slope y / x,
    exactly: the clockwise radial order about the center.

    ``offsets`` maps each other vertex to its integer offset (x, y) from the
    center in the sweep plane: its heights in the frame's two directions
    less the center's, times one common positive factor, which keeps every
    slope and every side.  The vertices above the center in the sweep
    direction (x > 0) run clockwise, and so do those below it; a position in
    the tuple is the one index the edge stage uses.  The sort runs on
    integer keys: with M the largest x², the key ``-((y * M) // x)`` is
    minus the floor of the slope times M.  Two distinct slopes differ by at
    least 1 / |x1 x2| >= 1 / M, so their keys keep their order, and equal
    slopes have equal keys.  Raises DegeneratePosition when a vertex has the
    center's sweep height (x = 0, which covers coincident projections) or
    when two vertices share a slope (their offsets are parallel), found as
    equal neighbours once the keys are sorted, and InvalidInput for an
    offset that is not a pair of rationals.
    """
    try:
        bound = max([x * x for x, _ in offsets.values()], default=1)
        entries = []
        for vid, (x, y) in offsets.items():
            if not x:
                raise DegeneratePosition(f"vertex {vid} has the center's sweep height")
            entries.append((-((y * bound) // x), vid, (x, y)))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"offsets must be pairs of rationals: {exc}") from exc
    # a float in an offset makes its key a float
    if not _all_ints([key for key, _, _ in entries]):
        _check_rationals(*offsets.values())
    entries.sort(key=operator.itemgetter(0))
    for (key, a, _), (next_key, b, _) in zip(entries, entries[1:]):
        if key == next_key:
            raise DegeneratePosition(f"projected offsets of {a} and {b} are parallel")
    # from a list, as a short tuple(genexpr) is freed into another size's
    # free list
    return tuple([entry[1:] for entry in entries])


def separating_slope(order: RadialOrder, i: int) -> Tuple[int, int]:
    """Slope p / q, in lowest terms with q > 0, of a line through the center
    splitting the vertices above it after position ``i`` of the order.

    The vertex at position i must lie above the center (x > 0), or
    InvalidInput is raised, as it is for a position out of range.  The slope
    is halfway between that vertex's slope and the next lower one,
    ``order[i + 1]``'s, or its own minus two when i is the last position, so
    the line misses every vertex.  An offset (x, y) lies below it when
    ``p * x < q * y``: of the vertices above the center, those up to
    position i do and the rest do not.  With (x, y) the offset at i and (a,
    b) the next lower one, or (x, y - 2x) when there is none, y / x + b / a
    halved is ``(y * a + b * x) / (2 * x * a)``, and the sign of a is that
    of the denominator.
    """
    if not 0 <= i < len(order) or order[i][1][0] < 0:
        raise InvalidInput(f"position {i} is not a vertex above the center")
    x, y = order[i][1]
    a, b = order[i + 1][1] if i + 1 < len(order) else (x, y - 2 * x)
    p, q = y * a + b * x, 2 * x * a
    g = math.gcd(p, q) if a > 0 else -math.gcd(p, q)
    return p // g, q // g


def separating_direction(slope: Tuple[int, int], frame: SweepFrame) -> IntVector:
    """The integer direction ``p * u1 - q * u2`` of the frame for the slope
    m = p / q, q > 0: q times ``m * u1 - u2``, so the same ray.

    It gives a vertex whose offset from the center is (x, y) the height
    ``p * x - q * y`` above the center's, so for the ``separating_slope`` of
    an order the vertices above the center up to the split's position land
    strictly below the center and the rest of those above it strictly above.
    """
    p, q = slope
    return tuple([p * x - q * y for x, y in zip(frame.u1, frame.u2)])
