import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdrec import (
    DegeneratePosition,
    ParallelDirections,
    leftmost_crossing,
    orthogonal_to_affine_hull,
    radial_order,
    second_perpendicular_direction,
    separating_direction,
    tilt,
)
from apdrec.geometry import basis_vector, dot, vsub

from bruteforce import brute_leftmost_crossing

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


def test_second_perpendicular_w_equals_v():
    v = [vec(0, 0, 0), vec(1, 0, 0)]
    s = vec(0, 0, 1)
    assert second_perpendicular_direction(v, v, v, s) == s


def test_second_perpendicular_w_empty():
    v = [vec(0, 0, 0), vec(1, 0, 0)]
    s = vec(0, 0, 1)
    assert second_perpendicular_direction(v, v, [], s) == basis_vector(3, 0)


def test_second_perpendicular_axis_example():
    all_pts = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)]
    w = all_pts[:2]
    s = vec(0, 0, 1)
    sp = second_perpendicular_direction(all_pts, all_pts, w, s)
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
        sp = second_perpendicular_direction(pts, pts, w, s)
        base = dot(sp, w[0])
        assert all(dot(sp, q) == base for q in w)
        assert all(dot(sp, x) > base for x in pts[w_size:])
        trials += 1


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
    s_t = tilt([F(0), F(1)], [F(1), F(0)], vec(1, 0), vec(0, 1))
    assert s_t == vec(F(3, 4), F(1, 4))
    assert dot(s_t, vec(0, 0)) < dot(s_t, vec(1, 0))  # order of e1 kept


def test_tilt_no_crossings():
    assert tilt([F(5)], [F(9)], vec(1, 0), vec(0, 1)) == vec(F(1, 2), F(1, 2))


def test_tilt_breaks_tie_by_second_direction():
    # two vertices tied under s, separated under s'
    pts = [vec(0, 0), vec(0, 2)]
    s, sp = vec(1, 0), vec(0, 1)
    s_t = tilt([F(0), F(0)], [F(0), F(2)], s, sp)
    assert dot(s_t, pts[0]) < dot(s_t, pts[1])


def test_tilt_rejects_parallel():
    with pytest.raises(ParallelDirections):
        tilt([F(0)], [F(0)], vec(1, 1), vec(2, 2))


def test_tilt_order_preservation_random():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        h = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        hp = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        s_t = tilt(h, hp, vec(1, 0), vec(0, 1))
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
    order = radial_order(vec(0, 0), [vec(1, 1), vec(-1, 1)])
    assert order.ordered == ((0, (1, 1)),)
    assert order.slopes == (-1, 1)


def test_radial_order_singleton():
    order = radial_order(vec(0, 0), [vec(2, 3)])
    assert len(order.ordered) == 1


def test_radial_order_upper_before_boundary_right():
    # a vertex at the center's sweep height has no slope
    with pytest.raises(DegeneratePosition):
        radial_order(vec(0, 0), [vec(0, 1), vec(1, 0)])


def test_radial_order_rejects_parallel_offsets():
    with pytest.raises(DegeneratePosition):
        radial_order(vec(0, 0), [vec(1, 1), vec(2, 2)])
    with pytest.raises(DegeneratePosition):
        radial_order(vec(0, 0), [vec(1, 1), vec(-2, -2)])


def test_radial_order_matches_float_angles():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 9)
        offsets = set()
        while len(offsets) < n:
            o = (rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(-9, 9))
            if any(o[0] * b[1] == o[1] * b[0] for b in offsets):
                continue
            offsets.add(o)
        pts = [vec(*o) for o in offsets]
        order = radial_order(vec(0, 0), pts)
        got = [off for _, off in order.ordered]
        above = [o for o in offsets if o[0] > 0]
        want = sorted(above, key=lambda o: -math.atan2(o[1], o[0]))
        assert [tuple(map(int, o)) for o in got] == want


# ---------------------------------------------------------------------------
# separating_direction


def test_separating_direction_pair():
    order = radial_order(vec(0, 0), [vec(1, 1), vec(-1, 1)])
    s = separating_direction(order, 0)
    assert dot(s, vec(1, 1)) < 0
    assert dot(s, vec(-1, 1)) != 0


def test_separating_direction_singleton():
    order = radial_order(vec(0, 0), [vec(2, 1)])
    s = separating_direction(order, 0)
    assert dot(s, vec(2, 1)) < 0


def test_separating_direction_edge_interval_figure():
    # four candidates above the center, split after the second one
    center = vec(0, 0)
    around = [vec(1, 4), vec(3, 2), vec(4, -2), vec(2, -5)]
    order = radial_order(center, around)
    s = separating_direction(order, 1)
    assert dot(s, around[0]) < 0 and dot(s, around[1]) < 0
    assert dot(s, around[2]) > 0 and dot(s, around[3]) > 0


def test_separating_direction_properties_random():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 8)
        offsets = set()
        while len(offsets) < n:
            o = (rng.randint(1, 12), rng.randint(-12, 12))
            if rng.random() < 0.4:
                o = (-o[0], o[1])  # below the center
            if any(o[0] * b[1] == o[1] * b[0] for b in offsets):
                continue
            offsets.add(o)
        pts = [vec(*o) for o in offsets]
        order = radial_order(vec(0, 0), pts)
        for after in range(len(order.ordered)):
            s = separating_direction(order, after)
            assert all(dot(s, p) != 0 for p in pts)
            for pos, (_, off) in enumerate(order.ordered):
                assert (dot(s, off) < 0) == (pos <= after)
