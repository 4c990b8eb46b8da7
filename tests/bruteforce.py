"""Independent reference computations for the test suite.

Everything here is deliberately written from definitions (enumeration,
Gaussian elimination over GF(2), direct counting) and shares no code path
with the library internals it checks.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from apdrec.errors import DegeneratePosition, InvalidInput, PreconditionViolated


def brute_leftmost_crossing(
    heights: Sequence[Fraction], heights_prime: Sequence[Fraction]
) -> Optional[Fraction]:
    """Minimum t in (0, 1] over all pairs of distinct interpolation segments."""
    segments = sorted({(Fraction(h), Fraction(hp)) for h in heights for hp in heights_prime})
    best = None
    for (h1, p1), (h2, p2) in combinations(segments, 2):
        denom = (h1 - h2) - (p1 - p2)
        if denom == 0:
            continue  # parallel
        t = (h1 - h2) / denom
        if 0 < t <= 1 and (best is None or t < best):
            best = t
    return best


def vertex_heights(points: Dict[int, tuple], direction: tuple) -> Dict[int, Fraction]:
    return {
        v: sum((Fraction(a) * Fraction(b) for a, b in zip(direction, p)), Fraction(0))
        for v, p in points.items()
    }


def simplex_height(simplex, heights: Dict[int, Fraction]) -> Fraction:
    return max(heights[v] for v in simplex)


def count_simplices_at(complex_, direction, k: int, c: Fraction) -> int:
    """Number of k-simplices whose lower-star height equals c, by counting."""
    hs = vertex_heights(complex_.vertices, direction)
    return sum(
        1
        for s in complex_.simplices
        if len(s) == k + 1 and simplex_height(s, hs) == c
    )


def sublevel_parity_counts(complex_, direction, p: Fraction) -> Tuple[int, int]:
    """(even, odd) simplex counts of the sublevel set at p."""
    hs = vertex_heights(complex_.vertices, direction)
    even = odd = 0
    for s in complex_.simplices:
        if simplex_height(s, hs) <= p:
            if (len(s) - 1) % 2 == 0:
                even += 1
            else:
                odd += 1
    return even, odd


def brute_coface_count(complex_, sigma, direction, k: int) -> int:
    """k-cofaces of sigma sharing sigma's lower-star height: the k-indegree."""
    hs = vertex_heights(complex_.vertices, direction)
    target = simplex_height(sigma, hs)
    sigma_set = set(sigma)
    return sum(
        1
        for s in complex_.simplices
        if len(s) == k + 1 and sigma_set < set(s) and simplex_height(s, hs) == target
    )


def maximal_by_definition(complex_) -> List[tuple]:
    """Simplices contained in no other simplex, sorted by (dimension, tuple)."""
    maximal = [
        s for s in complex_.simplices
        if not any(set(s) < set(t) for t in complex_.simplices)
    ]
    return sorted(maximal, key=lambda s: (len(s), s))


def neighbours_below_line(
    complex_, vertex: int, u1, u2, p: int, q: int, above: bool
) -> int:
    """Neighbours w of the vertex, above it in u1 (or below it, when
    ``above`` is False), whose offset (x, y) = (u1 . (w - v), u2 . (w - v))
    has p * x < q * y; by enumeration of the edges."""
    center = [Fraction(c) for c in complex_.vertices[vertex]]
    count = 0
    for edge in complex_.simplices:
        if len(edge) != 2 or vertex not in edge:
            continue
        (w,) = [u for u in edge if u != vertex]
        diff = [Fraction(c) - c0 for c, c0 in zip(complex_.vertices[w], center)]
        x = sum(Fraction(a) * b for a, b in zip(u1, diff))
        y = sum(Fraction(a) * b for a, b in zip(u2, diff))
        if (x > 0) == above and p * x < q * y:
            count += 1
    return count


def reference_cut(split, a: int, b: int, unit: int) -> Optional[Tuple[int, int, int]]:
    """The cut (p, q, count) that a split (p, q, events) gives at one vertex
    with plane coordinates (a, b) over ``unit``, or None when the vertex is
    off the table's grid or not alone at its height there: its height
    (p a - q b) / unit in p u1 - q u2 looked up among the table's levels as
    Fractions, and the level's vertex and edge counts read from its
    histogram."""
    p, q, events = split
    height = Fraction(p * a - q * b, unit)
    i = reference_level(events.heights, events.denominator, height)
    if i is None:
        return None
    top = len(events.heights)
    vertices = events.histogram.get(0, [0] * top)
    edges = events.histogram.get(1, [0] * top)
    return (p, q, edges[i]) if vertices[i] == 1 else None


def reference_level(heights: Sequence[int], denominator: int, height) -> Optional[int]:
    """Index of the level equal to the height, the levels being ``heights``
    over ``denominator`` as Fractions, or None when none equals it.  A float
    compares at its exact value, and INF, -INF and NaN equal no level."""
    levels = [Fraction(h, denominator) for h in heights]
    return levels.index(height) if height in levels else None


def reference_place(cut, ups, downs) -> Tuple[int, int]:
    """A cut (p, q, count) as a prefix count (end, count less the known
    neighbours below its line), each side counted offset by offset:
    (x, y) lies below the line when p * x < q * y."""
    p, q, count = cut
    end = sum(1 for x, y in ups if p * x < q * y)
    below = sum(1 for x, y in downs if p * x < q * y)
    return end, count - below


def slope_sort(offsets: Dict[int, tuple]) -> tuple:
    """A radial order by Fraction slopes, for offsets {id: (x, y)} with
    x != 0: every (id, offset) pair by descending slope y / x."""

    def slope(item):
        x, y = item[1]
        return Fraction(y, x)

    return tuple(sorted(offsets.items(), key=slope, reverse=True))


def reference_separating_slope(offsets: Dict[int, tuple], i: int) -> Fraction:
    """Halfway between the slope of the offset at position i of the
    descending slope order and the next lower slope of any offset, or that
    slope minus one when there is none: sorted as Fractions."""
    slopes = sorted(Fraction(y, x) for x, y in offsets.values())
    x, y = slope_sort(offsets)[i][1]
    j = slopes.index(Fraction(y, x))
    return (slopes[j] + slopes[j - 1]) / 2 if j else slopes[j] - 1


def count_rejection_replay(complex_, directions) -> List[Tuple[int, frozenset]]:
    """The higher stage's predicate calls, replayed over the true complex.

    ``directions`` are those of the count ledger, the sweep direction
    first and its negation last.  Vertices are numbered by height in the
    sweep direction.  For each dimension i that reconstruction visits
    (2..d-1 while dimension i-1 is nonempty, and d when the complex has a
    d-simplex), every sigma of dimension i-1 in sorted order is extended by
    each vertex v above its top.  A candidate's top height in a direction
    is the height of its highest vertex there, and a direction is full at
    a height when every i-simplex of that top height, counted straight from
    the complex, is confirmed.  The candidate is tested when all its facets
    are simplices, neither the first nor the last direction is full at its
    top height, and either no other direction is full at its top height or
    a confirmed simplex has its top heights in every direction.  Returns (i,
    candidate as a set of vertex positions) per test, in order.
    """
    heights = vertex_heights(complex_.vertices, directions[0])
    ids = sorted(heights, key=heights.get)
    assert len(set(heights.values())) == len(ids), "sweep heights must be distinct"
    rank = {v: r for r, v in enumerate(ids)}
    by_dim: Dict[int, set] = {}
    for s in complex_.simplices:
        by_dim.setdefault(len(s) - 1, set()).add(tuple(sorted(rank[v] for v in s)))
    # each direction's vertex heights, by rank
    ranked = [
        [h[v] for v in ids]
        for h in (vertex_heights(complex_.vertices, s) for s in directions)
    ]
    d, n = complex_.ambient_dim, len(ids)
    tested = []
    for i in range(2, d + 1):
        below, truth = by_dim.get(i - 1, set()), by_dim.get(i, set())
        if not below or (i == d and not truth):
            continue
        left = [Counter(max(h[u] for u in s) for s in truth) for h in ranked]
        confirmed = set()
        for sigma in sorted(below):
            for v in range(sigma[-1] + 1, n):
                cand = sigma + (v,)
                if any(f not in below for f in combinations(cand, i)):
                    continue
                tops = tuple(max(h[u] for u in cand) for h in ranked)
                full = [not row[top] for row, top in zip(left, tops)]
                if full[0] or full[-1] or (any(full) and tops not in confirmed):
                    continue
                tested.append((i, frozenset(complex_.vertices[ids[u]] for u in cand)))
                if cand in truth:
                    confirmed.add(tops)
                    for row, top in zip(left, tops):
                        row[top] -= 1
    return tested


def reference_apd(complex_, direction, order=None) -> List[tuple]:
    """Augmented diagram points from the definition, sorted.

    Fraction heights; the (height, dimension, vertex tuple) filtration unless
    an ``order`` is given; Z/2 column reduction with each column a sorted
    list of row indices, adding the column that owns its lowest row until
    that row is unowned or the column is empty.  Returns (dim, birth, death)
    tuples, death ``math.inf`` for an essential class.
    """
    hs = vertex_heights(complex_.vertices, direction)
    height = {s: simplex_height(s, hs) for s in complex_.simplices}
    if order is None:
        order = sorted(complex_.simplices, key=lambda s: (height[s], len(s) - 1, s))
    pairs, essentials = reference_pairs(order)
    points = [(len(order[i]) - 1, height[order[i]], height[order[j]]) for i, j in pairs]
    points += [(len(order[i]) - 1, height[order[i]], math.inf) for i in essentials]
    return sorted(points)


def reference_pairs(order: Sequence[tuple]) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Persistence pairs of the filtration ``order`` from the definition.

    The column reduction of ``reference_apd``, over positions in ``order``.
    Returns the sorted (birth, death) position pairs and the sorted
    unpaired positions.
    """
    index = {s: i for i, s in enumerate(order)}
    columns: List[List[int]] = []
    owner: Dict[int, int] = {}
    for j, s in enumerate(order):
        col = sorted(index[s[:i] + s[i + 1 :]] for i in range(len(s))) if len(s) > 1 else []
        while col and col[-1] in owner:
            other = columns[owner[col[-1]]]
            col = sorted(set(col).symmetric_difference(other))
        columns.append(col)
        if col:
            owner[col[-1]] = j
    paired = set(owner) | set(owner.values())
    return sorted(owner.items()), [i for i in range(len(order)) if i not in paired]


# ---------------------------------------------------------------------------
# GF(2) homology ranks by row elimination (independent of column reduction)


def _gf2_rank(rows: List[int]) -> int:
    rank = 0
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def betti_numbers_gf2(complex_) -> List[int]:
    """Betti numbers over Z/2 from boundary matrix ranks."""
    kappa = complex_.kappa
    by_dim = {k: sorted(s for s in complex_.simplices if len(s) == k + 1) for k in range(kappa + 1)}
    index = {k: {s: i for i, s in enumerate(by_dim[k])} for k in by_dim}

    ranks = {}
    for k in range(1, kappa + 1):
        rows = []
        for s in by_dim[k]:
            row = 0
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                row |= 1 << index[k - 1][face]
            rows.append(row)
        ranks[k] = _gf2_rank(rows)

    betti = []
    for k in range(kappa + 1):
        n_k = len(by_dim[k])
        betti.append(n_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return betti


# ---------------------------------------------------------------------------
# random compatible index filtrations


def random_compatible_order(complex_, direction, rng: random.Random) -> List[tuple]:
    """Random linear extension: heights ascending, faces before cofaces."""
    hs = vertex_heights(complex_.vertices, direction)
    groups: Dict[Fraction, List[tuple]] = {}
    for s in complex_.simplices:
        groups.setdefault(simplex_height(s, hs), []).append(s)
    order: List[tuple] = []
    for h in sorted(groups):
        pending = set(groups[h])
        placed = set()
        while pending:
            ready = [
                s
                for s in pending
                if all(
                    f in placed or f not in pending
                    for size in range(1, len(s))
                    for f in combinations(s, size)
                )
            ]
            choice = rng.choice(sorted(ready))
            pending.remove(choice)
            placed.add(choice)
            order.append(choice)
    return order


# ---------------------------------------------------------------------------
# diagram reads and curves by scanning the points
#
# Each takes a diagram's points, (dim, birth, death) with death math.inf for
# an essential class, and counts from the definition.


def births_by_scan(points, dim: int) -> List[Fraction]:
    return sorted(p[1] for p in points if p[0] == dim)


def births_at_by_scan(points, dim: int, height) -> int:
    return sum(1 for p in points if p[0] == dim and p[1] == height)


def deaths_at_by_scan(points, dim: int, height) -> int:
    """Finite deaths of dimension dim at the height."""
    return sum(
        1 for p in points if p[0] == dim and p[2] != math.inf and p[2] == height
    )


def count_at_by_scan(points, k: int, height) -> int:
    """k-simplices at the height: deaths in k-1 plus births in k."""
    return deaths_at_by_scan(points, k - 1, height) + births_at_by_scan(points, k, height)


def simplex_count_by_scan(points, k: int) -> int:
    finite_deaths = sum(1 for p in points if p[0] == k - 1 and p[2] != math.inf)
    return sum(1 for p in points if p[0] == k) + finite_deaths


def betti_curve_by_scan(points, k: int) -> Tuple[tuple, tuple]:
    """(breakpoints, decorations) of the k-th augmented Betti curve.

    Each point with birth < death steps +1 at its birth and -1 at a finite
    death; heights whose steps sum to zero are no breakpoint.  A
    zero-persistence pair decorates its height c with the number of points
    with birth <= c <= death.
    """
    pts = [p for p in points if p[0] == k]
    deltas: Dict = {}
    for _, birth, death in pts:
        if birth == death:
            continue
        deltas[birth] = deltas.get(birth, 0) + 1
        if death != math.inf:
            deltas[death] = deltas.get(death, 0) - 1
    value = 0
    breakpoints = []
    for h in sorted(deltas):
        if deltas[h]:
            value += deltas[h]
            breakpoints.append((h, value))
    decorations = tuple(
        (c, sum(1 for p in pts if p[1] <= c <= p[2]))
        for c in sorted({p[1] for p in pts if p[1] == p[2]})
    )
    return tuple(breakpoints), decorations


def euler_curve_by_scan(points) -> tuple:
    """Breakpoints (h, (even, odd)) of the augmented Euler curve: a birth in
    dimension k counts toward the parity of k, a finite death toward k+1."""
    deltas: Dict = {}
    for dim, birth, death in points:
        deltas.setdefault(birth, [0, 0])[dim % 2] += 1
        if death != math.inf:
            deltas.setdefault(death, [0, 0])[(dim + 1) % 2] += 1
    even = odd = 0
    breakpoints = []
    for h in sorted(deltas):
        even += deltas[h][0]
        odd += deltas[h][1]
        breakpoints.append((h, (even, odd)))
    return tuple(breakpoints)


def reference_rref(
    rows: List[List[Fraction]],
) -> Tuple[List[List[Fraction]], List[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def reference_solve_particular(
    equations: List[Tuple[Sequence[Fraction], Fraction]], dim: int
) -> Optional[List[Fraction]]:
    """One exact solution of ``coeffs . x = rhs`` rows, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    aug = [list(coeffs) + [Fraction(rhs)] for coeffs, rhs in equations]
    aug, pivots = reference_rref(aug)
    if any(p == dim for p in pivots):  # pivot in the rhs column
        return None
    x = [Fraction(0)] * dim
    for row, col in zip(aug, pivots):
        x[col] = row[dim]
    return x


def reference_tilt(
    heights: Sequence[Fraction],
    heights_prime: Sequence[Fraction],
    s: Sequence[Fraction],
    s_prime: Sequence[Fraction],
) -> Tuple[Fraction, ...]:
    """The tilt ``(1 - eps) * s + eps * s'`` itself, in Fractions: eps is half
    the brute-force leftmost crossing of the two height lists, or 1/2 when
    there is none."""
    crossing = brute_leftmost_crossing(heights, heights_prime) if heights else None
    eps = Fraction(1, 2) if crossing is None else crossing / 2
    return tuple((1 - eps) * Fraction(a) + eps * Fraction(b) for a, b in zip(s, s_prime))


def reference_second_perpendicular(
    all_points: Sequence[Sequence],
    subset_v: Sequence[Sequence],
    subset_w: Sequence[Sequence],
    s: Sequence,
) -> Tuple[Fraction, ...]:
    """A rational s' orthogonal to aff(W) and to s with ``s'.x - s'.w == 1``
    for every w in W and x in V \\ W, free variables zero; s itself when
    W == V.  Raises as the library does: InvalidInput for an empty W or one
    outside V, PreconditionViolated when s gives a point outside V the
    height of V, DegeneratePosition when the system has no nonzero
    solution."""
    v_set = {tuple(p) for p in subset_v}
    w_set = {tuple(p) for p in subset_w}
    if not w_set or not w_set <= v_set:
        raise InvalidInput("W must be a nonempty subset of V")
    if w_set == v_set:
        return tuple(Fraction(x) for x in s)
    height = sum(Fraction(a) * b for a, b in zip(s, subset_v[0]))
    for p in all_points:
        if tuple(p) not in v_set and sum(Fraction(a) * b for a, b in zip(s, p)) == height:
            raise PreconditionViolated("s does not height-separate V from the rest")
    w0 = subset_w[0]
    equations = [([Fraction(a) - b for a, b in zip(w, w0)], 0) for w in subset_w[1:]]
    equations.append(([Fraction(a) for a in s], 0))
    equations += [
        ([Fraction(a) - b for a, b in zip(x, w0)], 1)
        for x in subset_v
        if tuple(x) not in w_set
    ]
    solution = reference_solve_particular(equations, len(s))
    if solution is None or not any(solution):
        raise DegeneratePosition("V u {v - s} is affinely dependent")
    return tuple(solution)


def primitive_ints(direction: Sequence) -> Tuple[int, ...]:
    """The direction times the positive rational that makes it integer with
    coprime entries."""
    direction = [Fraction(x) for x in direction]
    scale = math.lcm(*(x.denominator for x in direction))
    ints = [int(x * scale) for x in direction]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def reference_isolating_direction(
    candidate: Sequence[int], points: Sequence[Sequence], hull_normal: Sequence
) -> Tuple[Fraction, ...]:
    """A direction orthogonal to the candidate's hull under which it alone
    has its height, from ``hull_normal``, a direction orthogonal to that
    hull: the normal itself when no other point shares the height, else the
    ``reference_tilt`` of the normal towards the primitive integer form of
    the ``reference_second_perpendicular`` placing the candidate below the
    other points at that height (the tilt depends on the scale of the
    direction it tilts towards).  More points at that height than a point
    has coordinates raise DegeneratePosition."""
    heights = [sum(Fraction(a) * b for a, b in zip(hull_normal, p)) for p in points]
    level = [u for u, h in enumerate(heights) if h == heights[candidate[0]]]
    if set(level) == set(candidate):
        return tuple(Fraction(x) for x in hull_normal)
    if len(level) > len(points[0]):
        raise DegeneratePosition("more than d vertices on one hyperplane")
    s2 = primitive_ints(
        reference_second_perpendicular(
            points, [points[u] for u in level], [points[v] for v in candidate], hull_normal
        )
    )
    heights_prime = [sum(a * Fraction(b) for a, b in zip(s2, p)) for p in points]
    return reference_tilt(heights, heights_prime, hull_normal, s2)


def reference_general_position(
    points: Sequence[Sequence], dim: int
) -> Tuple[bool, bool, bool]:
    """(distinct projections, no projected collinear triple, affinely
    independent) of a point set, from the definitions: every pair of (e1, e2)
    projections, every projected triple, and every dim+1 points by the exact
    rank of their differences (the whole set when there are at most dim)."""
    points = [[Fraction(x) for x in p] for p in points]
    proj = [tuple(p[:2]) for p in points]
    distinct = all(a != b for a, b in combinations(proj, 2))
    collinear_free = dim < 2 or all(
        (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])
        for a, b, c in combinations(proj, 3)
    )
    independent = True
    for subset in combinations(points, min(len(points), dim + 1)):
        if subset:
            diffs = [[x - y for x, y in zip(p, subset[0])] for p in subset[1:]]
            _, pivots = reference_rref(diffs)
            independent = independent and len(pivots) == len(subset) - 1
    return distinct, collinear_free, independent


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """True iff the differences from the first point have full rank."""
    diffs = [[Fraction(x) - y for x, y in zip(p, points[0])] for p in points[1:]]
    return len(reference_rref(diffs)[1]) == len(points) - 1


def reference_position_violations(
    points: Sequence[Sequence], i: int, dim: int
) -> Iterator[tuple]:
    """The witnesses by which points[i] breaks general position with
    points[:i], from the definitions: every earlier point, every earlier
    pair, and one rank test per min(i, dim)-subset of earlier points."""
    p = points[i]
    for j in range(i):
        if points[j][:2] == p[:2]:
            yield ("projection", j, i)
    if dim >= 2:
        px, py = p[0], p[1]
        for a, b in combinations(range(i), 2):
            (ax, ay), (bx, by) = points[a][:2], points[b][:2]
            if (bx - ax) * (py - ay) == (by - ay) * (px - ax):
                yield ("collinear", a, b, i)
    for subset in combinations(range(i), min(i, dim)):
        if not affinely_independent([points[j] for j in subset] + [p]):
            yield ("affine-dependent",) + subset + (i,)


def leibniz_determinant(rows: Sequence[Sequence]) -> Fraction:
    """Sum over permutations of the signed products of entries."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def reference_parallel(a: Sequence, b: Sequence) -> bool:
    """Linear dependence by definition: every 2x2 minor is zero."""
    return all(
        a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(len(a)), 2)
    )
