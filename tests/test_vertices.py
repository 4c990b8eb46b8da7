import random
from fractions import Fraction

import pytest

from apdrec import (
    GeneralPositionViolated,
    GeneratorConfig,
    InvalidInput,
    Oracle,
    OracleInconsistency,
    generate_complex,
)
from apdrec.geometry import basis_vector, dot, primitive_direction
from apdrec.vertices import (
    CountLedger,
    create_unique_height_basis,
    find_coordinate,
    vertex_stage,
)

from conftest import TamperedOracle, cx

F = Fraction


def test_find_coordinate_hand_trace():
    # vertices (0,0) and (1,2): weight (1, 6), tilt 5 * e1 + e2, births [0, 7]
    K = cx(2, [(0, 0), (1, 2)], [])
    oracle = Oracle(K)
    base = oracle.query((1, 0))
    assert base.births(0) == [0, 1]
    xs, asked = find_coordinate(2, base, oracle)
    assert xs == [0, 2]
    assert [dgm.direction for dgm in asked] == oracle.log.directions[1:]
    assert oracle.log.directions[-1] == (5, 1)
    assert asked[-1].births(0) == [0, 7]
    assert all(type(x) is int for d in oracle.log.directions for x in d)
    assert oracle.log.count == 3  # e1, e2, tilt


def test_find_coordinate_single_vertex():
    K = cx(3, [(4, -2, F(1, 3))], [])
    oracle = Oracle(K)
    base = oracle.query((1, 0, 0))
    assert find_coordinate(2, base, oracle)[0] == [-2]
    assert find_coordinate(3, base, oracle)[0] == [F(1, 3)]


def test_find_coordinate_with_target_ties():
    # equal second coordinates: ties in the target direction are fine
    K = cx(2, [(0, 5), (1, 5)], [])
    oracle = Oracle(K)
    base = oracle.query((1, 0))
    assert find_coordinate(2, base, oracle)[0] == [5, 5]


@pytest.mark.parametrize("i", [0, 3])
def test_find_coordinate_rejects_an_index_outside_1_to_d(i):
    oracle = Oracle(cx(2, [(0, 0), (1, 2)], []))
    base = oracle.query((1, 0))
    with pytest.raises(InvalidInput):
        find_coordinate(i, base, oracle)
    assert oracle.log.count == 1


@pytest.mark.parametrize("tampered, asked", [((0, 1), 2), ((5, 1), 3)])
def test_find_coordinate_rejects_an_answer_with_a_vertex_less(tampered, asked):
    """An answer that counts one vertex less than the base, in e_2 or in the
    tilt s_t of the hand trace, raises OracleInconsistency as soon as it is
    read: with e_2 the last query, or with s_t."""
    K = cx(2, [(0, 0), (1, 2)], [])
    top = max(dot(tampered, p) for p in K.vertices.values())
    oracle = TamperedOracle(K, tampered, 0, top, -1)
    base = oracle.query((1, 0))
    with pytest.raises(OracleInconsistency, match="birth counts"):
        find_coordinate(2, base, oracle)
    assert oracle.log.count == asked


def test_vertex_stage_two_points():
    K = cx(2, [(0, 0), (1, 2)], [])
    oracle = Oracle(K)
    points, frame, ledger = vertex_stage(oracle)
    assert points == [(0, 0), (1, 2)]
    asked = ledger.diagrams
    assert asked[0].direction == frame.u1 == (1, 0)
    assert oracle.log.count == 2 * 2 - 1
    assert [dgm.direction for dgm in asked] == oracle.log.directions
    # the ledger holds the points as ints and each vertex alone at its level
    assert (ledger.scaled, ledger.scale) == ([(0, 0), (1, 2)], 1)
    assert ledger.levels == [[0, 1]] * 3
    assert all(ledger.counts(0, i) == [1, 1] for i in range(3))


def test_vertex_stage_order_follows_e1():
    K = cx(3, [(2, 0, 1), (0, 5, -1), (1, -3, 2)], [])
    points, _, _ = vertex_stage(Oracle(K))
    assert [p[0] for p in points] == [0, 1, 2]
    assert set(points) == set(K.vertices.values())


def test_vertex_stage_single_point_query_count():
    for d in (2, 3, 5):
        K = cx(d, [tuple(range(1, d + 1))], [])
        oracle = Oracle(K)
        assert vertex_stage(oracle)[0] == [tuple(range(1, d + 1))]
        assert oracle.log.count == 2 * d - 1


def test_vertex_stage_random_exact():
    for seed in range(8):
        d = 2 + seed % 4
        K = generate_complex(
            GeneratorConfig(d, 4 + seed % 7, 0, densities=[], seed=seed)
        )
        oracle = Oracle(K)
        points, _, _ = vertex_stage(oracle)
        assert set(points) == set(K.vertices.values())
        assert oracle.log.count == 2 * d - 1


def test_vertex_stage_rejects_coincident_projections():
    # (0,0,0) and (0,0,1) tie on e1 and on e2: b1 cannot separate them
    K = cx(3, [(0, 0, 0), (0, 0, 1), (1, 2, 0)], [])
    oracle = Oracle(K)
    with pytest.raises(GeneralPositionViolated):
        vertex_stage(oracle)
    assert oracle.log.count == 3  # e1, e2 and b1


def test_fallback_basis_recovers_despite_ties():
    K = cx(2, [(0, 0), (0, 1), (1, -1)], [(0, 1), (1, 2)])
    oracle = Oracle(K)
    points, frame, ledger = vertex_stage(oracle)
    asked = ledger.diagrams
    assert asked[0].direction == frame.u1 != (1, 0)  # the b1 diagram
    assert set(points) == set(K.vertices.values())
    assert oracle.log.count == 2 * 2 - 1 + 2  # two extra diagrams for the basis
    # every diagram asked comes back: b1 first, then e1, e2 and the two
    # tilts, towards e1 and e2 (b1 is neither)
    log = oracle.log.directions
    assert [dgm.direction for dgm in asked] == [log[2], *log[:2], *log[3:]]
    # recovered order follows the tilted sweep direction
    heights = [dot(frame.u1, p) for p in points]
    assert heights == sorted(heights)


def axis_births(oracle):
    """Dimension-0 births in e1 and e2: two logged queries."""
    e1, e2 = (basis_vector(oracle.ambient_dim, j) for j in (0, 1))
    return oracle.query(e1).births(0), oracle.query(e2).births(0)


def test_create_unique_height_basis_separates_ties():
    K = cx(2, [(0, 0), (0, 1)], [])
    oracle = Oracle(K)
    frame = create_unique_height_basis(*axis_births(oracle), 2)
    assert oracle.log.count == 2  # the e1 and e2 diagrams; the helper adds none
    b1, b2 = frame.u1, frame.u2
    assert dot(b1, (0, 0)) != dot(b1, (0, 1))
    assert dot(b1, b2) == 0
    assert b2 == (b1[1], -b1[0])


def test_create_unique_height_basis_on_unique_heights():
    K = cx(3, [(0, 2, 1), (1, 0, 0), (2, 1, 5)], [])
    oracle = Oracle(K)
    frame = create_unique_height_basis(*axis_births(oracle), 3)
    b1 = frame.u1
    heights = sorted(dot(b1, p) for p in K.vertices.values())
    assert len(set(heights)) == 3
    assert dot(b1, frame.u2) == 0
    # order under b1 matches order under e1 (tilt preserves it)
    e1_sorted = sorted(K.vertices.values(), key=lambda p: p[0])
    b1_sorted = sorted(K.vertices.values(), key=lambda p: dot(b1, p))
    assert e1_sorted == b1_sorted


def test_fallback_matches_random_complexes():
    rng = random.Random(31)
    for _ in range(5):
        # random points, then force an e1 collision by copying a first coordinate
        d = rng.randint(2, 4)
        n = rng.randint(3, 6)
        pts = []
        while len(pts) < n:
            cand = tuple(F(rng.randint(-40, 40), 8) for _ in range(d))
            if any(cand[1] == p[1] for p in pts):  # keep projections distinct
                continue
            if any(
                (p[0] - q[0]) * (cand[1] - q[1]) == (p[1] - q[1]) * (cand[0] - q[0])
                for p in pts
                for q in pts
                if p != q
            ):
                continue
            pts.append(cand)
        pts[1] = (pts[0][0],) + pts[1][1:]  # force the tie
        K = cx(d, pts, [])
        points, _, _ = vertex_stage(Oracle(K))
        assert set(points) == set(K.vertices.values())


@pytest.mark.parametrize(
    "K, direction",
    [
        (
            cx(2, [(0, 0), (F(1, 2), 1), (2, F(1, 3)), (1, 3)], [(0, 1, 2), (1, 2, 3)]),
            (F(1, 2), F(1, 3)),
        ),
        (
            cx(
                3,
                [(0, 0, 0), (1, F(2, 3), 0), (F(1, 4), 2, 1), (3, 1, F(5, 2))],
                [(0, 1, 2, 3)],
            ),
            (F(3, 7), F(-2, 5), 1),
        ),
    ],
)
def test_count_ledger_reads_a_fraction_direction_as_its_integer_multiple(
    K, direction
):
    """A ledger over the diagram of a Fraction direction locates every
    vertex at the level of its height there, as a ledger over the diagram of
    the direction's primitive integer multiple does, and counts alike."""
    oracle = Oracle(K)
    points = list(K.vertices.values())
    rational = CountLedger(points, [oracle.query(direction)])
    integer = CountLedger(points, [oracle.query(primitive_direction(direction))])
    heights = [dot(direction, p) for p in points]
    assert rational.levels == [[sorted(set(heights)).index(h) for h in heights]]
    assert rational.levels == integer.levels
    for k in range(K.ambient_dim + 1):
        assert rational.counts(k, 0) == integer.counts(k, 0)
