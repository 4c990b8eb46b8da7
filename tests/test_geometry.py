import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdrec import (
    ApdrecError,
    DegeneratePosition,
    InvalidInput,
    ParallelDirections,
    PreconditionViolated,
    leftmost_crossing,
    orthogonal_to_affine_hull,
    radial_order,
    second_perpendicular_direction,
    separating_direction,
    tilt,
    tilt_weight,
)
from apdrec.geometry import (
    SweepFrame,
    _rref,
    _solve_particular,
    affine_hyperplane,
    affinely_independent,
    basis_vector,
    dot,
    parallel,
    primitive_direction,
    scale_to_integers,
    separating_slope,
    standard_frame,
    vneg,
    vsub,
)
from apdrec.higher import _isolating_direction, _tilted

from bruteforce import (
    brute_leftmost_crossing,
    leibniz_determinant,
    reference_isolating_direction,
    reference_rref,
    reference_second_perpendicular,
    reference_separating_slope,
    reference_solve_particular,
    reference_tilt,
    slope_sort,
)

F = Fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def vec(*coords):
    return tuple(F(c) for c in coords)


# ---------------------------------------------------------------------------
# orthogonal_to_affine_hull


def test_orthogonal_axis_aligned():
    d = orthogonal_to_affine_hull([vec(0, 0, 0), vec(1, 0, 0)])
    assert dot(d, vec(1, 0, 0)) == dot(d, vec(0, 0, 0))
    assert any(x != 0 for x in d)


def test_orthogonal_single_point_canonical():
    assert orthogonal_to_affine_hull([vec(0, 0)]) == basis_vector(2, 0)


def test_orthogonal_three_points():
    pts = [vec(0, 0, 0), vec(1, 1, 0), vec(1, 0, 1)]
    d = orthogonal_to_affine_hull(pts)
    assert dot(d, vsub(pts[1], pts[0])) == 0
    assert dot(d, vsub(pts[2], pts[0])) == 0


def test_orthogonal_rejects_dependent_points():
    with pytest.raises(DegeneratePosition):
        orthogonal_to_affine_hull([vec(0, 0, 0), vec(1, 1, 1), vec(2, 2, 2)])


def test_orthogonal_random_exactness():
    rng = random.Random(7)
    for _ in range(80):
        d = rng.randint(2, 5)
        m = rng.randint(1, d)
        while True:
            pts = [
                tuple(F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(d))
                for _ in range(m)
            ]
            try:
                direction = orthogonal_to_affine_hull(pts)
                break
            except DegeneratePosition:
                continue
        base = dot(direction, pts[0])
        assert all(dot(direction, p) == base for p in pts)


# ---------------------------------------------------------------------------
# second_perpendicular_direction


def heights_under(s, points):
    return [dot(s, p) for p in points]


def test_second_perpendicular_w_equals_v():
    v = [vec(0, 0, 0), vec(1, 0, 0)]
    s = vec(0, 0, 1)
    heights = heights_under(s, v)
    assert second_perpendicular_direction(v, heights, (0, 1), (0, 1), s) == s


def test_second_perpendicular_w_empty():
    # no direction is asked of an empty W: e1 would not be orthogonal to s
    v = [vec(0, 0, 0), vec(1, 0, 0)]
    for s in (vec(0, 0, 1), vec(1, 1, 0)):
        with pytest.raises(InvalidInput):
            second_perpendicular_direction(v, heights_under(s, v), (0, 1), (), s)


def test_second_perpendicular_axis_example():
    all_pts = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)]
    w = all_pts[:2]
    s = vec(0, 0, 1)
    heights = heights_under(s, all_pts)
    sp = second_perpendicular_direction(all_pts, heights, (0, 1, 2), (0, 1), s)
    assert dot(sp, w[0]) == dot(sp, w[1])
    assert dot(sp, vec(0, 1, 0)) > dot(sp, w[0])
    # the canonical solution is the axis itself
    assert sp == vec(0, 1, 0)


def test_second_perpendicular_random_postconditions():
    rng = random.Random(13)
    trials = 0
    while trials < 60:
        d = rng.randint(3, 5)
        size = rng.randint(2, d)
        pts = [
            tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(d))
            for _ in range(size)
        ]
        try:
            s = orthogonal_to_affine_hull(pts)
        except DegeneratePosition:
            continue
        w_size = rng.randint(1, size - 1)
        w = pts[:w_size]
        sp = second_perpendicular_direction(
            pts, heights_under(s, pts), range(size), range(w_size), s
        )
        base = dot(sp, w[0])
        assert all(dot(sp, q) == base for q in w)
        assert all(dot(sp, x) > base for x in pts[w_size:])
        trials += 1


def test_second_perpendicular_rejects_a_vertex_outside_v_at_its_height():
    """V = {0, 1} lies on the line y = 2 and s = (0, 1) is orthogonal to it;
    vertex 3 lies on that line too, so s does not height-separate V from
    the rest, on signed int points and on their lift (p, p . p).  Moved off
    the line, it no longer raises."""
    signed = [(-1, 2), (1, 2), (0, -3), (3, 2)]
    for points in (signed, [p + (dot(p, p),) for p in signed]):
        s = (0, 1) + (0,) * (len(points[0]) - 2)
        heights = heights_under(s, points)
        assert heights == [2, 2, -3, 2]
        with pytest.raises(PreconditionViolated):
            second_perpendicular_direction(points, heights, (0, 1), (0,), s)
        with pytest.raises(PreconditionViolated):
            reference_second_perpendicular(points, points[:2], points[:1], s)
        heights[3] = 5
        assert second_perpendicular_direction(points, heights, (0, 1), (0,), s)


# ---------------------------------------------------------------------------
# leftmost_crossing / tilt


def test_crossing_swap_pair():
    assert leftmost_crossing([F(0), F(1)], [F(1), F(0)]) == F(1, 2)


def test_crossing_closest_gap_vs_extremes():
    assert leftmost_crossing([F(0), F(1), F(10)], [F(-5), F(5)]) == F(1, 11)


def test_crossing_single_segment():
    assert leftmost_crossing([F(3)], [F(7)]) is None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
)
def test_crossing_matches_bruteforce(h, hp):
    assert leftmost_crossing(h, hp) == brute_leftmost_crossing(h, hp)


def test_tilt_swap_example():
    # eps = 1/4: four times the tilt (3/4, 1/4)
    s_t = tilt(tilt_weight([F(0), F(1)], [F(1), F(0)]), vec(1, 0), vec(0, 1))
    assert s_t == (3, 1)
    assert reference_tilt([0, 1], [1, 0], (1, 0), (0, 1)) == vec(F(3, 4), F(1, 4))
    assert dot(s_t, vec(0, 0)) < dot(s_t, vec(1, 0))  # order of e1 kept


def test_tilt_no_crossings():
    # eps = 1/2: twice the tilt (1/2, 1/2)
    assert tilt(tilt_weight([F(5)], [F(9)]), vec(1, 0), vec(0, 1)) == (1, 1)
    assert reference_tilt([5], [9], (1, 0), (0, 1)) == vec(F(1, 2), F(1, 2))


def test_tilt_breaks_tie_by_second_direction():
    # two vertices tied under s, separated under s'
    pts = [vec(0, 0), vec(0, 2)]
    s, sp = vec(1, 0), vec(0, 1)
    s_t = tilt(tilt_weight([F(0), F(0)], [F(0), F(2)]), s, sp)
    assert dot(s_t, pts[0]) < dot(s_t, pts[1])


def test_tilt_rejects_parallel():
    with pytest.raises(ParallelDirections):
        tilt(tilt_weight([F(0)], [F(0)]), vec(1, 1), vec(2, 2))


def test_tilt_order_preservation_random():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        h = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        hp = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        s_t = tilt(tilt_weight(h, hp), vec(1, 0), vec(0, 1))
        heights_t = [s_t[0] * a + s_t[1] * b for a, b in zip(h, hp)]
        for i in range(n):
            for j in range(n):
                if h[i] < h[j]:
                    assert heights_t[i] < heights_t[j]
                elif h[i] == h[j] and hp[i] < hp[j]:
                    assert heights_t[i] < heights_t[j]


# ---------------------------------------------------------------------------
# radial order


def test_radial_order_upper_pair():
    # the vertex below the center is left out of the order but keeps its slope
    order = radial_order({0: (1, 1), 1: (-1, 1)})
    assert order.ordered == ((0, (1, 1)),)
    assert order.by_slope == ((-1, 1), (1, 1))  # slopes -1 and 1


def test_radial_order_singleton():
    order = radial_order({0: (2, 3)})
    assert len(order.ordered) == 1


def test_radial_order_upper_before_boundary_right():
    # a vertex at the center's sweep height has no slope
    with pytest.raises(DegeneratePosition):
        radial_order({0: (0, 1), 1: (1, 0)})


def test_radial_order_rejects_parallel_offsets():
    with pytest.raises(DegeneratePosition):
        radial_order({0: (1, 1), 1: (2, 2)})
    with pytest.raises(DegeneratePosition):
        radial_order({0: (1, 1), 1: (-2, -2)})


def random_offsets(rng, n, high=9, below=0.5):
    """n integer offsets, no two parallel and none with x = 0, a share of
    them below the center (x < 0)."""
    offsets = []
    while len(offsets) < n:
        o = (rng.randint(1, high), rng.randint(-high, high))
        if rng.random() < below:
            o = (-o[0], o[1])
        if all(o[0] * b[1] != o[1] * b[0] for b in offsets):
            offsets.append(o)
    return dict(enumerate(offsets))


def test_radial_order_matches_float_angles():
    rng = random.Random(5)
    for _ in range(60):
        offsets = random_offsets(rng, rng.randint(2, 9))
        order = radial_order(offsets)
        got = [off for _, off in order.ordered]
        above = [o for o in offsets.values() if o[0] > 0]
        want = sorted(above, key=lambda o: -math.atan2(o[1], o[0]))
        assert got == want


# the slopes of each neighbouring pair differ by exactly 1 / |x1 x2|
RESOLUTION_CASES = {
    "seven-five": [(7, 3), (5, 2)],
    "fibonacci": [(144, 89), (89, 55), (233, 144)],
    "below-center": [(-7, 3), (-5, 2), (7, 3), (5, 2), (-144, 89), (-89, 55)],
    "wide": [(10**6 + 3, 1), (10**6 + 2, 1), (-(10**6) - 3, 1), (-(10**6) - 2, 1)],
}
# a common scale, and per-vertex positive factors that keep every slope; the
# rational offsets are brought to ints by their common denominator, as the
# edge stage brings its plane coordinates
SCALES = {
    "ints": lambda i: 1,
    "times-1e30": lambda i: 10**30,
    "rational": lambda i: F(1, 7),
    "mixed-denominators": lambda i: F(3, 5 + 2 * i),
}


@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
@pytest.mark.parametrize("offsets", RESOLUTION_CASES.values(), ids=RESOLUTION_CASES.keys())
def test_radial_order_keys_at_their_resolution_bound(offsets, scale):
    """Slopes as close as two offsets allow are ordered like their
    Fractions, above and below the center, at any scale; parallel offsets
    still raise."""
    rational = [(x * scale(i), y * scale(i)) for i, (x, y) in enumerate(offsets)]
    ints, _ = scale_to_integers(rational)
    order = radial_order(dict(enumerate(ints)))
    above, by_slope = slope_sort(dict(enumerate(ints)))
    assert order.ordered == above
    assert order.by_slope == by_slope
    assert order.offsets == dict(enumerate(ints))
    for x, y in ints:
        for twin in [(2 * x, 2 * y), (-x, -y)]:
            with pytest.raises(DegeneratePosition):
                radial_order(dict(enumerate(ints + [twin])))


def test_radial_order_matches_a_fraction_slope_sort_on_wide_rationals():
    """Rational offsets up to 10**40 over denominators up to 50, brought to
    ints by their common denominator: the ids come in the order of the
    Fraction slopes of the rational offsets."""
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(2, 12)
        big = 10 ** rng.randint(1, 40)
        rational = {}
        while len(rational) < n:
            x = F(rng.choice([-1, 1]) * rng.randint(1, big), rng.randint(1, 50))
            rational[len(rational)] = (x, F(rng.randint(-big, big), rng.randint(1, 50)))
        ints, _ = scale_to_integers(list(rational.values()))
        offsets = dict(enumerate(ints))
        slopes = [y / x for x, y in rational.values()]
        if len(set(slopes)) < len(slopes):
            with pytest.raises(DegeneratePosition):
                radial_order(offsets)
            continue
        order = radial_order(offsets)
        above, by_slope = slope_sort(rational)
        assert [vid for vid, _ in order.ordered] == [vid for vid, _ in above]
        assert order.by_slope == tuple(sorted(ints, key=lambda o: F(o[1], o[0])))
        assert [F(y, x) for x, y in order.by_slope] == [y / x for x, y in by_slope]


# ---------------------------------------------------------------------------
# separating_slope and separating_direction


def separating(order, after, frame=None):
    """The split's direction in the frame (the standard one by default)."""
    frame = frame or standard_frame(2)
    return separating_direction(separating_slope(order, after), frame)


def test_separating_direction_pair():
    order = radial_order({0: (1, 1), 1: (-1, 1)})
    s = separating(order, 0)
    assert dot(s, vec(1, 1)) < 0
    assert dot(s, vec(-1, 1)) != 0


def test_separating_direction_singleton():
    order = radial_order({0: (2, 1)})
    s = separating(order, 0)
    assert dot(s, vec(2, 1)) < 0


def test_separating_direction_edge_interval_figure():
    # four candidates above the center, split after the second one
    around = [(1, 4), (3, 2), (4, -2), (2, -5)]
    order = radial_order(dict(enumerate(around)))
    assert separating_slope(order, 1) == (1, 12)  # between 2/3 and -1/2
    s = separating(order, 1)
    assert dot(s, around[0]) < 0 and dot(s, around[1]) < 0
    assert dot(s, around[2]) > 0 and dot(s, around[3]) > 0


def test_separating_direction_properties_random():
    """The integer slope (p, q) is in lowest terms with q > 0 and equals the
    Fraction one; its line puts the order up to the split below the center
    and the rest above, and misses every vertex, by ints and by the
    direction's dot products."""
    rng = random.Random(21)
    frame = SweepFrame((F(1), F(1, 3)), (F(-1, 2), F(3, 2)))
    for _ in range(80):
        offsets = random_offsets(rng, rng.randint(1, 8), high=12, below=0.4)
        order = radial_order(offsets)
        for after in range(len(order.ordered)):
            p, q = separating_slope(order, after)
            assert q > 0 and math.gcd(p, q) == 1
            assert F(p, q) == reference_separating_slope(offsets, after)
            assert all(p * x != q * y for x, y in offsets.values())
            s = separating(order, after)
            assert all(dot(s, off) != 0 for off in offsets.values())
            for pos, (_, off) in enumerate(order.ordered):
                assert (p * off[0] < q * off[1]) == (pos <= after)
                assert (dot(s, off) < 0) == (pos <= after)
            # in any frame: the height of an offset (x, y) is m * x - y
            tilted = separating(order, after, frame)
            assert tilted == tuple(F(p, q) * a - b for a, b in zip(frame.u1, frame.u2))


# ---------------------------------------------------------------------------
# integer input: exact results, equal to the Fraction-input ones


def as_fractions(value):
    """The same value with every int (at any depth of tuples/lists) a Fraction."""
    if isinstance(value, (tuple, list)):
        return type(value)(as_fractions(x) for x in value)
    if isinstance(value, int) and not isinstance(value, bool):
        return F(value)
    return value


def has_float(value) -> bool:
    if isinstance(value, (tuple, list)):
        return any(has_float(x) for x in value)
    return isinstance(value, float)


def outcome(fn, *args):
    """fn(*args), or the type of the ApdrecError it raises."""
    try:
        return fn(*args)
    except ApdrecError as exc:
        return type(exc)


def assert_exact_and_equal(fn, *args):
    """fn gives no float on int input, and the same outcome as on Fractions."""
    got = outcome(fn, *args)
    want = outcome(fn, *as_fractions(args))
    assert not has_float(got) and not has_float(want)
    assert got == want, (fn.__name__, args)
    return got


small_ints = st.integers(min_value=-6, max_value=6)


def int_vectors(dim):
    return st.tuples(*[small_ints] * dim)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_are_exact_on_integer_input(data):
    d = data.draw(st.integers(min_value=2, max_value=4), label="d")
    points = data.draw(st.lists(int_vectors(d), min_size=1, max_size=d + 2))
    s = data.draw(int_vectors(d), label="s")
    s_prime = data.draw(int_vectors(d), label="s_prime")
    heights = data.draw(st.lists(small_ints, min_size=1, max_size=6))
    heights_prime = data.draw(st.lists(small_ints, min_size=1, max_size=6))

    assert type(dot(s, s_prime)) is int
    assert_exact_and_equal(dot, s, s_prime)
    assert_exact_and_equal(leftmost_crossing, heights, heights_prime)
    if any(s) and any(s_prime):
        weight = assert_exact_and_equal(tilt_weight, heights, heights_prime)
        assert_exact_and_equal(tilt, weight, s, s_prime)
    assert_exact_and_equal(affinely_independent, points)
    hull = assert_exact_and_equal(orthogonal_to_affine_hull, points)
    if isinstance(hull, tuple):
        assert all(type(x) is int for x in hull)

    size_v = data.draw(st.integers(min_value=1, max_value=len(points)), label="|V|")
    size_w = data.draw(st.integers(min_value=0, max_value=size_v), label="|W|")
    normal = outcome(orthogonal_to_affine_hull, points[:size_v])
    if not isinstance(normal, tuple):
        normal = s
    if any(normal):
        # the ids as ranges, which as_fractions leaves as they are
        assert_exact_and_equal(
            second_perpendicular_direction,
            points,
            heights_under(normal, points),
            range(size_v),
            range(size_w),
            normal,
        )

    # the offsets of the points from a center in the (e1, e2) plane
    center = data.draw(int_vectors(d), label="center")
    offsets = {i: (p[0] - center[0], p[1] - center[1]) for i, p in enumerate(points)}
    order = outcome(radial_order, offsets)
    if isinstance(order, type):
        slopes = [F(y, x) for x, y in offsets.values() if x]
        assert len(slopes) < len(offsets) or len(set(slopes)) < len(slopes)
        return
    assert (order.ordered, order.by_slope) == slope_sort(offsets)
    if order.ordered:
        after = data.draw(st.integers(0, len(order.ordered) - 1), label="after")
        slope = separating_slope(order, after)
        assert all(type(x) is int for x in slope)
        int_frame = SweepFrame(*(tuple(int(i == j) for i in range(d)) for j in (0, 1)))
        got = separating_direction(slope, int_frame)
        assert not has_float(got)
        assert got == separating_direction(slope, standard_frame(d))


def test_tilt_and_hull_on_integer_input_examples():
    # eps = 3/8: eight times the tilt (5/8, 3/8), in ints
    s_t = tilt(tilt_weight([0, 3], [1, 0]), (1, 0), (0, 1))
    assert s_t == (5, 3) and all(type(x) is int for x in s_t)
    assert reference_tilt([0, 3], [1, 0], (1, 0), (0, 1)) == (F(5, 8), F(3, 8))
    assert orthogonal_to_affine_hull([(0, 0, 0), (1, 2, 3), (2, 1, 7)]) == (
        -11,
        1,
        3,
    )


def isolating_direction(candidate, points):
    """``_isolating_direction``'s direction, once the heights it hands on
    are checked to be those of the points under it."""
    s, heights = _isolating_direction(candidate, points)
    assert heights == [dot(s, p) for p in points]
    return s


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_directions_match_the_rational_references(data):
    """On int points, ``tilt``, ``_tilted``, ``second_perpendicular_direction``
    and ``_isolating_direction`` return int directions with the primitive
    form of the Fraction forms kept in bruteforce, or raise the same error.
    ``_tilted``'s second side is the tilt towards -s', and the plane-filling
    direction of V less a proper face W is that of W negated, or the same
    error.  The coordinates are small and signed, so heights tie often, and
    the points are lifted to (p, p . p) half of the time."""
    d = data.draw(st.integers(min_value=2, max_value=4), label="d")
    coords = st.integers(min_value=-3, max_value=3)
    points = data.draw(
        st.lists(st.tuples(*[coords] * d), min_size=2, max_size=d + 3, unique=True),
        label="points",
    )
    if data.draw(st.booleans(), label="lifted"):
        points = [p + (dot(p, p),) for p in points]
    dim = len(points[0])
    unit = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)

    def same_direction(got, want):
        if isinstance(want, tuple):
            assert all(type(x) is int for x in got)
            assert primitive_direction(got) == primitive_direction(want)
        else:
            assert got == want

    s = data.draw(unit.filter(any), label="s")
    s_prime = data.draw(unit.filter(any), label="s_prime")
    if not parallel(s, s_prime):
        heights = [dot(s, p) for p in points]
        heights_prime = [dot(s_prime, p) for p in points]
        same_direction(
            tilt(tilt_weight(heights, heights_prime), s, s_prime),
            reference_tilt(heights, heights_prime, s, s_prime),
        )
        negated = [-h for h in heights_prime]
        assert _tilted(points, heights, s, s_prime) == (
            primitive_direction(reference_tilt(heights, heights_prime, s, s_prime)),
            primitive_direction(reference_tilt(heights, negated, s, vneg(s_prime))),
        )

    size_v = data.draw(st.integers(1, min(len(points), dim)), label="|V|")
    ids = data.draw(st.permutations(range(len(points))), label="ids")
    subset_v = [points[u] for u in ids[:size_v]]
    normal = outcome(orthogonal_to_affine_hull, subset_v)
    if isinstance(normal, tuple):
        size_w = data.draw(st.integers(1, size_v), label="|W|")
        heights = heights_under(normal, points)
        v, w = ids[:size_v], ids[:size_w]
        s_w = outcome(second_perpendicular_direction, points, heights, v, w, normal)
        same_direction(
            s_w,
            outcome(
                reference_second_perpendicular,
                points,
                subset_v,
                subset_v[:size_w],
                normal,
            ),
        )
        if size_w < size_v:
            rest = ids[size_w:size_v]
            s_rest = outcome(
                second_perpendicular_direction, points, heights, v, rest, normal
            )
            assert s_rest == (vneg(s_w) if isinstance(s_w, tuple) else s_w)
        candidate = sorted(ids[:size_v])
        same_direction(
            outcome(isolating_direction, candidate, points),
            outcome(reference_isolating_direction, candidate, points, normal),
        )
    else:
        candidate = sorted(ids[:size_v])
        assert outcome(isolating_direction, candidate, points) == normal


# ---------------------------------------------------------------------------
# fraction-free elimination against the rational reference


@st.composite
def rational_systems(draw):
    """(dim, rows of dim + 1 entries): full rank, rank deficient (with or
    without a consistent right-hand side), with zero rows and zero columns."""
    dim = draw(st.integers(min_value=1, max_value=5))
    width = dim + 1
    base = draw(
        st.lists(st.lists(rationals, min_size=width, max_size=width), max_size=5)
    )
    if base and draw(st.booleans()):
        col = draw(st.integers(0, width - 1))
        base = [row[:col] + [F(0)] + row[col + 1 :] for row in base]
    rows = [list(row) for row in base]
    for _ in range(draw(st.integers(0, 2)) if base else 0):
        coefs = draw(st.lists(rationals, min_size=len(base), max_size=len(base)))
        combo = [sum(c * row[j] for c, row in zip(coefs, base)) for j in range(width)]
        if draw(st.booleans()):
            combo[dim] += draw(rationals)  # inconsistent unless this adds 0
        rows.insert(draw(st.integers(0, len(rows))), combo)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * width)
    return dim, rows


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_fraction_free_rref_matches_the_rational_reference(system):
    dim, rows = system
    got, pivots = _rref([list(row) for row in rows])
    want, want_pivots = reference_rref([list(row) for row in rows])
    assert pivots == want_pivots
    assert len(got) == len(want)
    assert all(type(x) is int for row in got for x in row)
    pivot_entries = {got[i][col] for i, col in enumerate(pivots)}
    assert len(pivot_entries) <= 1 and all(p > 0 for p in pivot_entries)
    for i, (row, ref) in enumerate(zip(got, want)):
        p = got[i][pivots[i]] if i < len(pivots) else 0
        assert row == [p * x for x in ref]

    # d+1 points are affinely independent iff their d differences have full rank
    square = [tuple(row[:dim]) for row in rows[:dim]]
    if len(square) == dim:
        origin = (F(0),) * dim
        full_rank = len(reference_rref([list(row) for row in square])[1]) == dim
        assert affinely_independent([origin] + square) == full_rank

    # the solution is D times the rational one, for D the positive pivot
    # entry of the fraction-free form (1 when there is no pivot)
    equations = [(row[:dim], row[dim]) for row in rows]
    solution = _solve_particular(equations, dim)
    reference = reference_solve_particular(equations, dim)
    assert (solution is None) == (reference is None)
    if solution is not None:
        D = got[0][pivots[0]] if pivots else 1
        assert type(D) is int and D > 0
        assert all(type(x) is int for x in solution)
        assert solution == [D * x for x in reference]
        assert all(dot(coeffs, solution) == D * rhs for coeffs, rhs in equations)


def test_solve_particular_reports_inconsistent_systems():
    equations = [((F(1), F(2)), F(1)), ((F(2), F(4)), F(3))]
    assert _solve_particular(equations, 2) is None
    assert reference_solve_particular(equations, 2) is None


def test_affine_hyperplane_is_the_last_row_cofactor_expansion():
    """n . x - c equals the determinant of [q2 - q1, ..., qd - q1, x - q1]
    from the definition, for dependent and independent q in d = 1..5."""
    rng = random.Random(5)
    for trial in range(200):
        d = 1 + trial % 5
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        if trial % 4 == 0 and d >= 2:
            points[-1] = points[0]  # a dependent set: n = 0 and c = 0
        normal, c = affine_hyperplane(points)
        assert all(type(x) is int for x in normal) and type(c) is int
        x = tuple(rng.randint(-3, 3) for _ in range(d))
        rows = [vsub(q, points[0]) for q in points[1:] + [x]]
        assert dot(normal, x) - c == leibniz_determinant(rows)
        if trial % 4 == 0 and d >= 2:
            assert not any(normal) and c == 0
