import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apdrec.oracle as oracle_mod
from apdrec.geometry import scale_to_integers
from apdrec import (
    INF,
    AugmentedDiagram,
    GeneratorConfig,
    InvalidInput,
    Oracle,
    betti_curve_from_apd,
    build_complex,
    compute_apd,
    euler_curve_direct,
    euler_curve_from_apd,
    format_diagram,
    generate_complex,
    lift,
    orthogonal_to_affine_hull,
)

from bruteforce import (
    betti_curve_by_scan,
    betti_numbers_gf2,
    births_at_by_scan,
    births_by_scan,
    count_at_by_scan,
    count_simplices_at,
    deaths_at_by_scan,
    euler_curve_by_scan,
    random_compatible_order,
    reference_apd,
    reference_level,
    reference_pairs,
    simplex_count_by_scan,
    simplex_height,
    vertex_heights,
)
from conftest import cx, tie_instances

F = Fraction


def edge_complex():
    # a at height 0, b at height 1, one edge
    return cx(2, [(0, 0), (1, 2)], [(0, 1)])


def hollow_triangle_heights_012():
    return cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2), (1, 2)])


E1 = (1, 0)


# ---------------------------------------------------------------------------
# augmented diagrams


def test_apd_single_vertex():
    K = cx(2, [(3, 5)], [])
    dgm = compute_apd(K, E1)
    assert [tuple(p) for p in dgm.points] == [(0, 3, INF)]


def test_apd_edge_has_augmented_point():
    dgm = compute_apd(edge_complex(), E1)
    assert sorted(tuple(p) for p in dgm.in_dim(0)) == [(0, 0, INF), (0, 1, 1)]
    assert dgm.in_dim(1) == []


def test_apd_hollow_triangle():
    dgm = compute_apd(hollow_triangle_heights_012(), E1)
    assert sorted(tuple(p) for p in dgm.in_dim(0)) == [
        (0, 0, INF),
        (0, 1, 1),
        (0, 2, 2),
    ]
    assert [tuple(p) for p in dgm.in_dim(1)] == [(1, 2, INF)]


def test_apd_events_cover_every_simplex():
    K = generate_complex(GeneratorConfig(3, 8, 2, densities=[0.6, 0.6], seed=9))
    dgm = compute_apd(K, (2, 1, 1))
    births = len(dgm.points)
    deaths = sum(1 for p in dgm.points if not p.essential)
    assert births + deaths == K.n
    assert all(dgm.simplex_count(k) == K.n_k(k) for k in range(K.ambient_dim + 2))


def test_apd_positive_scaling_invariance():
    K = hollow_triangle_heights_012()
    base = compute_apd(K, E1)
    scaled = compute_apd(K, (F(5, 3), 0))
    assert len(base.points) == len(scaled.points)
    for p, q in zip(base.points, scaled.points):
        assert q.dim == p.dim
        assert q.birth == F(5, 3) * p.birth
        assert q.death == (INF if p.essential else F(5, 3) * p.death)


def test_apd_tiebreak_invariance_small():
    rng = random.Random(0)
    K = cx(2, [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1, 2), (1, 2, 3)])
    direction = (1, 1)  # creates height ties
    reference = compute_apd(K, direction).points
    for _ in range(10):
        order = random_compatible_order(K, direction, rng)
        got = oracle_mod._apd(oracle_mod.BoundaryTable(K, order), direction)
        assert got.points == reference
        assert points_of(got) == reference_apd(K, direction, order)


def relabel(K, ids):
    """K with each vertex v renamed ids[v]."""
    return build_complex(
        K.ambient_dim,
        {ids[v]: p for v, p in K.vertices.items()},
        [[ids[v] for v in s] for s in K.simplices],
    )


def test_relabelling_the_vertices_does_not_move_the_diagram():
    """Renaming the vertices reorders the kernel's static order, and so its
    tie order, inside each level, and the diagram stays: on the tie
    instances, on a generated complex in a direction orthogonal to one of
    its edges, and on the dense complex in (0, 0, 1), where one level holds
    two vertices.  Each instance has some relabelling that swaps two
    vertices of one level."""
    G = generate_complex(GeneratorConfig(3, 8, 3, densities=[0.7, 0.7, 0.7], seed=3))
    a, b = G.simplices_of_dim(1)[0]
    edge_tie = (G, orthogonal_to_affine_hull([G.vertices[a], G.vertices[b]]))
    dense = generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    rng = random.Random(28)
    for K, direction in tie_instances() + [edge_tie, (dense, (0, 0, 1))]:
        want = compute_apd(K, direction).points
        hs = vertex_heights(K.vertices, direction)
        swaps = 0
        for _ in range(6):
            shuffled = list(K.vertices)
            rng.shuffle(shuffled)
            ids = dict(zip(K.vertices, shuffled))
            assert compute_apd(relabel(K, ids), direction).points == want
            swaps += any(
                hs[u] == hs[v] and ids[u] > ids[v]
                for u, v in combinations(sorted(K.vertices), 2)
            )
        assert swaps > 0


def test_infinite_bars_match_betti_numbers():
    for seed in range(4):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.7, 0.8], seed=seed))
        betti = betti_numbers_gf2(K)
        dgm = compute_apd(K, (1, 2, -1))
        for k in range(K.kappa + 1):
            essential = sum(1 for p in dgm.in_dim(k) if p.essential)
            assert essential == betti[k]


# ---------------------------------------------------------------------------
# simplex count identity


def test_count_at_edge():
    dgm = compute_apd(edge_complex(), E1)
    assert dgm.count_at(1, F(1)) == 1


def test_count_at_hollow_triangle():
    dgm = compute_apd(hollow_triangle_heights_012(), E1)
    assert dgm.count_at(1, F(2)) == 2


def test_count_at_empty_height():
    dgm = compute_apd(edge_complex(), E1)
    assert dgm.count_at(1, F(17)) == 0


def test_count_at_reads_a_float_height_at_its_exact_value():
    K = cx(2, [(0, 0), (F(1, 2), 1), (1, 0)], [(0, 1), (0, 2), (1, 2)])
    dgm = compute_apd(K, E1)
    assert dgm.count_at(1, 0.5) == dgm.count_at(1, F(1, 2)) == 1
    assert dgm.count_at(1, 1.0) == dgm.count_at(1, 1) == 2
    assert dgm.count_at(0, 0.0) == 1
    assert dgm.count_at(1, 0.25) == 0
    assert dgm.count_at(1, INF) == dgm.count_at(1, -INF) == 0
    for height in ["1/2", None, float("nan"), 1j]:
        with pytest.raises(InvalidInput):
            dgm.count_at(1, height)


def test_count_at_matches_direct_count_random():
    rng = random.Random(4)
    for seed in range(4):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.7, 0.7], seed=seed))
        direction = tuple(rng.randint(-3, 3) for _ in range(3))
        if all(x == 0 for x in direction):
            direction = (1, 0, 0)
        dgm = compute_apd(K, direction)
        heights = {h for p in dgm.points for h in (p.birth, p.death) if h != INF}
        for k in range(K.kappa + 2):
            for c in heights:
                got = dgm.count_at(k, c)
                assert got == count_simplices_at(K, direction, k, c)
            assert dgm.counts(k) == [
                count_simplices_at(K, direction, k, c) for c in dgm.levels
            ]


# ---------------------------------------------------------------------------
# oracle counting and the lift


def test_query_log_counts_one_per_logical_request():
    K = edge_complex()
    oracle = Oracle(K)
    full = oracle.query(E1)  # dims 0 and 1 in one request
    assert full.in_dim(0) and oracle.log.count == 1
    oracle.query((0, 1))
    assert oracle.log.count == 2
    assert oracle.query(E1).in_dim(5) == [] and oracle.log.count == 3


def test_query_log_attributes_queries_to_the_latest_span():
    oracle = Oracle(edge_complex())
    log = oracle.log
    oracle.query(E1)  # before any span: counted, attributed to none
    log.open("vertices")
    oracle.query(E1)
    oracle.query((0, 1))
    log.open(2)
    oracle.query((1, 1))
    log.open("vertices")
    oracle.query((1, 2))
    assert log.count == 5
    assert log.spans == [["vertices", 2], [2, 1], ["vertices", 1]]
    assert log.queries("vertices") == 3 and log.queries("edges") == 0
    assert log.predicate_calls == [(2, 1)]
    log.open(2)
    oracle.lifted().query((1, 1, -1))  # the lifted oracle shares the log
    assert log.count == 6 and log.predicate_calls == [(2, 1), (2, 1)]


def test_oracle_rescales_scaled_duplicates_exactly():
    K = hollow_triangle_heights_012()
    oracle = Oracle(K)
    a = oracle.query((1, 0))
    b = oracle.query((2, 0))
    assert oracle.log.count == 2  # one count per request
    assert [p.birth * 2 for p in a.in_dim(0)] == [p.birth for p in b.in_dim(0)]


def test_oracle_query_computes_heights_once(monkeypatch):
    calls = []
    real = oracle_mod._heights

    def counting(table, direction):
        calls.append(direction)
        return real(table, direction)

    monkeypatch.setattr(oracle_mod, "_heights", counting)
    Oracle(hollow_triangle_heights_012()).query((1, 0))
    assert len(calls) == 1


@pytest.mark.parametrize("direction", [(0, 0), (1, 0, 0), ()])
def test_invalid_directions_raise_unlogged(direction):
    K = edge_complex()
    oracle = Oracle(K)
    with pytest.raises(InvalidInput):
        oracle.query(direction)
    assert oracle.log.count == 0
    with pytest.raises(InvalidInput):
        compute_apd(K, direction)
    with pytest.raises(InvalidInput):
        euler_curve_direct(K, direction)


NOT_RATIONAL = [float("nan"), float("inf"), float("-inf"), "x", "1/0", None]
MALFORMED = {
    **{
        f"{name} entry {x!r}": (name, x)
        for name in ("compute_apd", "query", "euler_curve_direct", "coordinate")
        for x in NOT_RATIONAL
    },
    # a rational of more than MAX_RATIONAL_DIGITS digits, exponent included,
    # refused before its integer is built
    **{
        f"{name} entry {label}": (name, x)
        for name in ("compute_apd", "query", "euler_curve_direct", "coordinate")
        for label, x in (("'1e5000'", "1e5000"), ("of 4001 digits", "1" * 4001))
    },
    "vertex id 'a'": ("vertex id", "a"),
    "simplex None": ("simplex", None),
    "vertex_count 3.5": ("config", {"vertex_count": 3.5}),
    "coordinate_denominator_bound 2.5": (
        "config", {"coordinate_denominator_bound": 2.5}
    ),
    "densities ['x']": ("config", {"densities": ["x"]}),
}


@pytest.mark.parametrize("case", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_numbers_passed_to_the_library_raise_invalid_input(case):
    """A direction or coordinate entry that is no rational, a vertex id that
    is no int, a simplex that is no collection of ids and a generator config
    with a count that is no int or a density that is no number each end as
    InvalidInput, never as a ValueError, OverflowError or TypeError, and never
    in a curve with a breakpoint at NaN; a query refused so is not logged."""
    name, value = case
    K = edge_complex()
    oracle = Oracle(K)
    calls = {
        "compute_apd": lambda: compute_apd(K, (value, 1)),
        "query": lambda: oracle.query((1, value)),
        "euler_curve_direct": lambda: euler_curve_direct(K, (value, 1)),
        "coordinate": lambda: build_complex(2, {0: (0, 0), 1: (value, 1)}, [(0, 1)]),
        "vertex id": lambda: build_complex(2, {value: (0, 0)}, []),
        "simplex": lambda: build_complex(2, {0: (0, 0)}, [value]),
        "config": lambda: generate_complex(replace(GeneratorConfig(2, 3, 1), **value)),
    }
    with pytest.raises(InvalidInput):
        calls[name]()
    assert oracle.log.count == 0


def test_lift_examples():
    K = cx(2, [(1, 2), (0, 0), (F(1, 2), F(1, 3))], [])
    lifted = lift(K)
    assert lifted.ambient_dim == 3
    assert lifted.vertices[0] == (1, 2, 5)
    assert lifted.vertices[1] == (0, 0, 0)
    assert lifted.vertices[2] == (F(1, 2), F(1, 3), F(13, 36))


def test_lifted_oracle_matches_apd_of_the_lift():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2)])
    oracle = Oracle(K).lifted()
    direction = (1, 1, -1)
    via_helper = oracle.query(direction)
    direct = compute_apd(lift(K), direction)
    assert via_helper.points == direct.points
    assert oracle.log.count == 1
    assert oracle.query(direction).in_dim(5) == []


# ---------------------------------------------------------------------------
# the integer kernel against the definition

# few values, so coordinates and heights tie often; large coprime
# denominators, so the common denominators of the kernel get large
VALUES = [
    F(0), F(1), F(-1), F(2), F(1, 3), F(-5, 7),
    F(10**9 + 7, 10**12 + 39), F(-(10**15), 999_999_937), F(3, 2**40),
]


@st.composite
def complexes_and_directions(draw):
    d = draw(st.integers(2, 3))
    n0 = draw(st.integers(1, 6))
    value = st.sampled_from(VALUES)
    points = [tuple(draw(value) for _ in range(d)) for _ in range(n0)]
    candidates = [c for size in range(2, d + 2) for c in combinations(range(n0), size)]
    maximal = draw(st.lists(st.sampled_from(candidates), max_size=6)) if candidates else []
    direction = draw(
        st.tuples(*[value] * d).filter(lambda x: any(c != 0 for c in x))
    )
    return cx(d, points, maximal), direction


def points_of(dgm):
    return [tuple(p) for p in dgm.points]


@settings(max_examples=150, deadline=None)
@given(complexes_and_directions(), st.integers(0, 2**32))
def test_compute_apd_matches_the_definition(case, seed):
    K, direction = case
    assert points_of(compute_apd(K, direction)) == reference_apd(K, direction)
    # an Oracle keeps its boundary table across queries
    oracle = Oracle(K)
    for scale in (1, F(7, 3)):
        scaled = tuple(scale * x for x in direction)
        assert points_of(oracle.query(scaled)) == reference_apd(K, scaled)
    # the kernel under any compatible order gives the definition's points
    # under that order, and they are compute_apd's
    order = random_compatible_order(K, direction, random.Random(seed))
    got = oracle_mod._apd(oracle_mod.BoundaryTable(K, order), direction)
    assert points_of(got) == reference_apd(K, direction, order=order)
    assert got.points == compute_apd(K, direction).points


@settings(max_examples=60, deadline=None)
@given(complexes_and_directions(), st.sampled_from(VALUES))
def test_lifted_queries_match_the_definition(case, last):
    K, direction = case
    lifted_direction = direction + (last,)
    expected = reference_apd(lift(K), lifted_direction)
    assert points_of(Oracle(K).lifted().query(lifted_direction)) == expected
    assert points_of(compute_apd(lift(K), lifted_direction)) == expected


def reference_text(direction, points) -> str:
    """The diagram text format, written out for reference points."""
    lines = ["direction " + " ".join(str(F(x)) for x in direction)]
    lines += [f"{k} {b} {'inf' if d == INF else d}" for k, b, d in points]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(complexes_and_directions(), st.sampled_from([None] + VALUES))
def test_points_built_on_first_read_match_the_definition(case, last):
    """Points are built from the kernel's keys on first read.  Read or not, a
    diagram equals and hashes like one whose points were read and like
    compute_apd's, on plain and lifted oracles; its points and its text,
    whole and in each dimension, are the definition's."""
    K, direction = case
    if last is None:
        oracle, truth = Oracle(K), K
    else:
        oracle, truth = Oracle(K).lifted(), lift(K)
        direction = direction + (last,)
    expected = reference_apd(truth, direction)
    read = oracle.query(direction)
    assert points_of(read) == expected
    assert read.points is read.points
    for unread in (oracle.query(direction), compute_apd(truth, direction)):
        assert hash(unread) == hash(read)
        assert unread == read and read == unread
    text = format_diagram(oracle.query(direction))
    assert text == format_diagram(read) == reference_text(read.direction, expected)
    for dim in range(-1, 4):
        want = [p for p in expected if p[0] == dim]
        text = format_diagram(oracle.query(direction), dim)
        assert text == format_diagram(read, dim) == reference_text(read.direction, want)
        assert [tuple(p) for p in read.in_dim(dim)] == want


@settings(max_examples=150, deadline=None)
@given(complexes_and_directions(), st.sampled_from([None] + VALUES))
def test_event_table_reads_match_the_point_scans(case, last):
    """Every histogram and event-row read and both curves equal a scan of
    the points, on plain and lifted diagrams, at every level, off the grid
    and for dimensions on both sides of the complex's."""
    K, direction = case
    if last is not None:
        K, direction = lift(K), direction + (last,)
    dgm = compute_apd(K, direction)
    hs = vertex_heights(K.vertices, direction)
    assert list(dgm.levels) == sorted({simplex_height(s, hs) for s in K.simplices})
    top = max((len(s) - 1 for s in K.simplices), default=0)
    pts = [tuple(p) for p in dgm.points]
    grid = sorted({h for p in pts for h in p[1:] if h != INF} | set(dgm.levels))
    off_grid = [a + (b - a) / 3 for a, b in zip(grid, grid[1:])]
    if grid:
        off_grid += [grid[0] - 1, grid[-1] + F(1, 7)]
    for k in range(-1, top + 3):
        assert dgm.births(k) == births_by_scan(pts, k)
        assert dgm.simplex_count(k) == simplex_count_by_scan(pts, k)
        assert dgm.counts(k) == [count_at_by_scan(pts, k, h) for h in dgm.levels]
        for h in grid + off_grid + [F(0), INF]:
            assert dgm.count_at(k, h) == count_at_by_scan(pts, k, h)
        curve = betti_curve_from_apd(dgm, k)
        assert (curve.breakpoints, curve.decorations) == betti_curve_by_scan(pts, k)
    assert euler_curve_from_apd(dgm).breakpoints == euler_curve_by_scan(pts)


def dense_stream_cases():
    """The benchmark's dense complex (2016 simplices) and nine directions:
    three with tied heights, six rational."""
    K = generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    assert len(K.simplices) == 2016
    rng = random.Random(2011)
    directions = [(0, 0, 1), (1, 1, 0), (0, 1, -1)] + [
        tuple(F(rng.randint(-1000, 1000), rng.randint(1, 60)) for _ in range(3))
        for _ in range(6)
    ]
    return K, directions


def test_clearing_on_the_dense_stream_complex():
    """The benchmark's dense complex, where clearing skips hundreds of
    columns, pairs to the definition's points in tie and rational
    directions."""
    K, directions = dense_stream_cases()
    for direction in directions:
        dgm = compute_apd(K, direction)
        assert points_of(dgm) == reference_apd(K, direction)
        # the death of every finite pair born in dimension >= 1 is never
        # reduced: a triangle that clearing skips, or a top tetrahedron
        assert sum(1 for p in dgm.points if p.dim >= 1 and not p.essential) > 500


def test_event_rows_on_the_dense_stream_complex():
    """The reduction counts each level's deaths and zero-persistence pairs
    apart from the pairs it records, so its event rows can miscount where
    its points are right.  On the dense complex, in the directions of the
    clearing test, the Betti curves of dimensions 0-3, read off the rows
    before any point is built, are the definition's."""
    K, directions = dense_stream_cases()
    for direction in directions:
        expected = reference_apd(K, direction)
        dgm = compute_apd(K, direction)
        for k in range(4):
            curve = betti_curve_from_apd(dgm, k)
            assert (curve.breakpoints, curve.decorations) == betti_curve_by_scan(
                expected, k
            )
        assert dgm._points is None


# ---------------------------------------------------------------------------
# edge pairing by union-find, then cohomology with clearing


def assert_pairs_match(K, direction, order):
    """The kernel, on a table with each dimension in ``order``'s sequence,
    pairs the filtration ``order`` as the definition does, and its diagram
    is the definition's.  Returns the definition's pairs."""
    table = oracle_mod.BoundaryTable(K, order)
    distinct, level = oracle_mod._heights(table, scale_to_integers([direction])[0][0])
    partner, _, _ = oracle_mod._reduce_pairs(level, len(distinct), table)
    # -1 marks an essential class; the two simplices of a pair name each
    # other, and the birth is the earlier, its death being of the next
    # dimension
    assert all(j < 0 or partner[j] == i for i, j in enumerate(partner))
    pairs = [(i, j) for i, j in enumerate(partner) if j > i]
    essentials = [i for i, j in enumerate(partner) if j < 0]
    # static indices to positions in order
    position = {s: i for i, s in enumerate(order)}
    place = [position[s] for s in table.simplices]
    expected = reference_pairs(order)
    births_deaths = sorted((place[i], place[j]) for i, j in pairs)
    assert (births_deaths, sorted(place[i] for i in essentials)) == expected
    dgm = oracle_mod._apd(table, direction)
    assert points_of(dgm) == reference_apd(K, direction, order)
    return expected[0]


def cleared_edges(order, pairs):
    """Edges that a triangle kills.  Union-find leaves them; their coboundary
    columns are reduced, and the triangles that kill them are the ones
    clearing skips in dimension two."""
    return [order[i] for i, _ in pairs if len(order[i]) == 2]


def grid_graph():
    # a 4 x 3 grid with its rows, columns and one diagonal per cell; a sweep
    # along either axis meets every height three or four times
    points = [(x, y) for x in range(4) for y in range(3)]
    edges = [
        (i, j)
        for i, (a, b) in enumerate(points)
        for j, (c, e) in enumerate(points)
        if i < j and (c - a, e - b) in [(1, 0), (0, 1), (1, 1)]
    ]
    return cx(2, points, edges)


PAIRING_CASES = {
    "filled-triangle": (
        cx(2, [(0, 0), (F(1, 2), 1), (1, 0)], [(0, 1, 2)]),
        [(1, 0), (0, 1), (1, 1), (-1, 2)],
    ),
    "filled-tetrahedron": (
        cx(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)]),
        [(1, 1, 1), (1, 2, 3), (0, 0, 1), (-1, 0, 1)],
    ),
    "two-tetrahedra-and-a-tail": (
        cx(
            3,
            [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (3, 3, 0)],
            [(0, 1, 2, 3), (1, 2, 3, 4), (4, 5)],
        ),
        [(1, 1, 1), (1, 0, 0), (0, 1, -1), (F(1, 3), 2, -1)],
    ),
    "grid-graph": (grid_graph(), [(1, 0), (0, 1), (1, 1), (1, -1)]),
    "lifted-triangle": (
        lift(cx(2, [(0, 0), (F(1, 2), 1), (1, 0)], [(0, 1, 2)])),
        [(0, 0, 1), (1, 0, -1), (0, 1, F(1, 2))],
    ),
    "lifted-tetrahedron": (
        lift(cx(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])),
        [(0, 0, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 1)],
    ),
    "generated": (
        generate_complex(GeneratorConfig(3, 9, 3, densities=[0.7, 0.8, 0.7], seed=4)),
        [(0, 0, 1), (1, 1, 0), (0, 1, -1), (3, -1, 2)],
    ),
}


@pytest.mark.parametrize("K, directions", PAIRING_CASES.values(), ids=PAIRING_CASES.keys())
def test_union_find_pairs_the_edges_clearing_left(K, directions):
    """Union-find pairs each edge that joins two components with a vertex,
    by the elder rule, before any triangle is looked at; the edges it
    leaves, those a triangle kills among them, are paired by cohomology.
    Both give the definition's pairs, on the kernel's own order and on
    random compatible ones."""
    rng = random.Random(17)
    cleared = 0
    for direction in directions:
        hs = vertex_heights(K.vertices, direction)
        default = sorted(K.simplices, key=lambda s: (simplex_height(s, hs), len(s), s))
        orders = [default] + [random_compatible_order(K, direction, rng) for _ in range(5)]
        for order in orders:
            cleared += len(cleared_edges(order, assert_pairs_match(K, direction, order)))
    if any(len(s) == 3 for s in K.simplices):
        assert cleared > 0


def test_union_find_pairing_under_every_order_of_a_tied_class():
    """Every compatible order of the six simplices at height 1 (two vertices,
    three edges, one triangle) pairs as the definition does, and each of
    the three edges is the one the triangle kills under some order."""
    K = cx(2, [(0, 0), (1, -1), (1, 1), (2, 0)], [(0, 1, 2), (1, 2, 3)])
    direction = (1, 0)
    tied = [(1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    below, above = [(0,)], [(3,), (1, 3), (2, 3), (1, 2, 3)]
    assert set(below + tied + above) == K.simplices
    cleared = set()
    compatible = 0
    for perm in permutations(tied):
        position = {s: i for i, s in enumerate(perm)}
        faces = ((f, s) for s in perm for f in combinations(s, len(s) - 1) if f in position)
        if any(position[f] > position[s] for f, s in faces):
            continue
        compatible += 1
        order = below + list(perm) + above
        cleared.update(cleared_edges(order, assert_pairs_match(K, direction, order)))
    assert compatible == 16
    assert {(0, 1), (0, 2), (1, 2)} <= cleared


@st.composite
def generated_complexes_and_directions(draw):
    """A generated complex with d 3-4 and kappa 2-3, plain or lifted, and a
    small integer direction, so heights tie often."""
    d = draw(st.integers(3, 4))
    kappa = draw(st.integers(2, 3))
    densities = [draw(st.sampled_from([0.4, 0.7, 1.0])) for _ in range(kappa)]
    config = GeneratorConfig(
        d, draw(st.integers(4, 8)), kappa, densities=densities,
        seed=draw(st.integers(0, 2**16)),
    )
    K = generate_complex(config)
    if draw(st.booleans()):
        K = lift(K)
    direction = draw(
        st.tuples(*[st.integers(-2, 2)] * K.ambient_dim).filter(any)
    )
    return K, direction


@settings(max_examples=60, deadline=None)
@given(generated_complexes_and_directions(), st.integers(0, 2**32))
def test_cohomology_pairs_generated_complexes_as_the_definition(case, seed):
    """``_reduce_pairs`` gives the definition's (birth, death) pairs and
    essential positions, on the kernel's own order and on random compatible
    orders of generated complexes, plain and lifted."""
    K, direction = case
    hs = vertex_heights(K.vertices, direction)
    default = sorted(K.simplices, key=lambda s: (simplex_height(s, hs), len(s), s))
    rng = random.Random(seed)
    orders = [default] + [random_compatible_order(K, direction, rng) for _ in range(2)]
    for order in orders:
        assert_pairs_match(K, direction, order)


def test_dense_complex_essentials_are_its_betti_numbers():
    """On the dense 2016-simplex complex, in every direction, the essential
    classes of each dimension number the complex's Betti numbers, and the
    diagram has (2016 + b) / 2 = 1,149 points, b the total Betti number:
    every simplex is a birth or a finite death, and every point is a
    birth."""
    K = generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    betti = betti_numbers_gf2(K)
    assert len(K.simplices) == 2016 and (2016 + sum(betti)) // 2 == 1149
    oracle = Oracle(K)
    for direction in [(3, -1, 2), (0, 0, 1), (1, 1, 0), (F(7, 3), -5, F(1, 2))]:
        points = oracle.query(direction).points
        essential = [p.dim for p in points if p.essential]
        assert [essential.count(k) for k in range(4)] == betti
        assert len(points) == 1149


def test_levels_holding_several_vertices_pair_as_the_definition():
    """Directions whose levels hold several vertices.  Tetrahedra, a hollow
    tetrahedron and a cycle all in the plane z = 0 have one level in
    (0, 0, 1) and (0, 0, -1), so union-find breaks ties between roots of
    one level, but each per-level mask of the pivot search is the whole
    range.  A generated complex with its vertices stacked three to a height
    (two at the top) has five levels in (0, 0, 1) and (0, 0, -1), and each
    mask below the top level leaves out the stars of the several vertices
    above it, so a mask missing any of them lets a pivot be found below its
    level.  The dense complex has 23 levels for its 24 vertices in
    (0, 0, 1).  The points are the definition's, and so are the pairs of
    the (height, dim, vertex tuple) order, which the points alone would not
    tell apart from another tie order's."""
    flat = cx(
        3,
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (3, 3, 0), (6, 2, 0), (7, 6, 0)]
        + [(10, 0, 0), (14, 0, 0), (10, 4, 0), (13, 3, 0)]
        + [(20, 0, 0), (22, 1, 0), (21, 3, 0)],
        [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
        + [(6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9)]
        + [(10, 11), (11, 12), (10, 12)],
    )
    base = generate_complex(GeneratorConfig(3, 14, 3, densities=[0.8], seed=0))
    stacked = build_complex(
        3, {v: (x, y, v // 3) for v, (x, y, _) in base.vertices.items()}, base.simplices
    )
    dense = generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    for K, direction, levels in [
        (flat, (0, 0, 1), 1),
        (flat, (0, 0, -1), 1),
        (stacked, (0, 0, 1), 5),
        (stacked, (0, 0, -1), 5),
        (dense, (0, 0, 1), 23),
    ]:
        dgm = compute_apd(K, direction)
        assert len(dgm.heights) == levels
        assert points_of(dgm) == reference_apd(K, direction)
        hs = vertex_heights(K.vertices, direction)
        order = sorted(K.simplices, key=lambda s: (simplex_height(s, hs), len(s), s))
        assert_pairs_match(K, direction, order)


def test_vertices_only_pair_nothing():
    K = cx(2, [(0, 0), (1, 2), (3, 1)], [])
    order = sorted(K.simplices, key=lambda s: vertex_heights(K.vertices, E1)[s[0]])
    assert assert_pairs_match(K, E1, order) == []
    assert points_of(compute_apd(K, E1)) == [(0, 0, INF), (0, 1, INF), (0, 3, INF)]


# ---------------------------------------------------------------------------
# integer event levels


def test_event_levels_are_integers_over_the_diagram_denominator():
    """The diagram keeps int heights over D * L and makes no Fraction until
    its levels are read; ``level`` maps ints and Fractions onto that grid and
    gives None off it, for INF, and where the scaled numerator does not
    divide."""
    K = cx(2, [(0, 0), (F(1, 2), 1), (1, F(1, 3))], [(0, 1, 2)])  # L = 6
    dgm = compute_apd(K, (F(2, 5), 1))  # D = 5
    assert dgm.denominator == 30
    assert dgm.heights == [0, 22, 36]  # 0, 11/15 and 6/5, times 30
    assert all(type(h) is int for h in dgm.heights)
    on_grid = [F(0), F(11, 15), F(6, 5)]
    for i, h in enumerate(on_grid):
        assert dgm.level(h) == i
    assert dgm.level(0) == 0
    assert dgm.level(1) is None  # 30 is not a height
    for h in [F(1, 7), F(11, 15) + F(1, 31), F(6, 5) * F(7, 11)]:
        assert (h.numerator * 30) % h.denominator != 0  # does not divide
        assert dgm.level(h) is None
    for h in [F(1, 30), F(-1, 15), F(2)]:  # divides, but no event there
        assert dgm.level(h) is None
    assert dgm.level(INF) is None and dgm.level(-INF) is None
    pts = points_of(dgm)
    for k in range(-1, 4):
        for h in on_grid + [F(1, 7), F(1, 30), 0, 1, INF]:
            assert dgm.count_at(k, h) == count_at_by_scan(pts, k, h)
    fresh = Oracle(K).query((F(2, 5), 1))
    assert [fresh.count_at(k, h) for k in range(3) for h in on_grid] == [
        1, 1, 1, 0, 1, 2, 0, 0, 1,
    ]
    assert fresh.simplex_count(1) == 3
    assert fresh._levels is None
    assert dgm.levels == on_grid
    assert dgm.levels is dgm.levels


@st.composite
def grids_and_numerators(draw):
    """A diagram on a drawn increasing int grid, a denominator m that
    shares a factor with the table's, and numerators over m: at each level
    and one off it on both sides (on the grid when m * h divides by the
    table's denominator), below the first and above the last level, and
    drawn freely."""
    heights = sorted(draw(st.sets(st.integers(-60, 60), max_size=8)))
    shared = draw(st.integers(1, 12))
    denominator = shared * draw(st.integers(1, 12))
    m = shared * draw(st.integers(1, 12))
    table = AugmentedDiagram((1,), heights, denominator, {}, [], None)
    at = [h * m // denominator for h in heights] or [0]
    numerators = [x + e for x in at for e in (-1, 0, 1)]
    numerators += [at[0] - draw(st.integers(1, 40)), at[-1] + draw(st.integers(1, 40))]
    numerators += draw(st.lists(st.integers(-400, 400), max_size=6))
    return table, numerators, m


@settings(max_examples=300, deadline=None)
@given(grids_and_numerators(), st.integers(2, 9))
def test_levels_of_matches_a_fraction_lookup(case, k):
    """``levels_of`` on int and on Fraction numerators, and ``level`` on a
    Fraction, on a float at its exact value and on INF and -INF give the
    level a Fraction lookup among the levels finds; NaN is not a height.
    The Fraction numerators are each int numerator x as ``F(x * k, k)``,
    on the grid when x is, and x - 1 / k and x + 1 / k beside it."""
    table, numerators, m = case
    grid = (table.heights, table.denominator)
    want = [reference_level(*grid, F(x, m)) for x in numerators]
    assert table.levels_of(numerators, m) == want
    rational = [F(x * k + j, k) for x in numerators for j in (-1, 0, 1)]
    assert table.levels_of(rational, m) == [
        reference_level(*grid, x / m) for x in rational
    ]
    assert [table.level(F(x, m)) for x in numerators] == want
    floats = [x / m for x in numerators]
    assert [table.level(h) for h in floats] == [
        reference_level(*grid, h) for h in floats
    ]
    assert table.level(INF) is table.level(-INF) is None
    assert reference_level(*grid, INF) is reference_level(*grid, -INF) is None
    with pytest.raises(InvalidInput):
        table.level(float("nan"))


# ---------------------------------------------------------------------------
# the simplex histogram and the pairing on first read


@settings(max_examples=150, deadline=None)
@given(complexes_and_directions(), st.sampled_from([None] + VALUES))
def test_simplex_histogram_equals_the_reduced_event_counts(case, last):
    """The histogram, built without the pairing, counts at each level the
    deaths of dimension k-1 plus the births of dimension k of the definition's
    points; ``births(0)`` reads the same before and after the pairing.  On
    plain and lifted diagrams, with height ties.  The same sum over the
    reduced rows holds by construction, since their births are the histogram
    less the deaths one dimension down; ``test_event_rows_are_the_definitions``
    checks the rows against the definition apart from the histogram."""
    K, direction = case
    oracle = Oracle(K)
    if last is not None:
        oracle, K, direction = oracle.lifted(), lift(K), direction + (last,)
    dgm = oracle.query(direction)
    unpaired_births = dgm.births(0)
    unpaired_counts = [dgm.counts(k) for k in range(-1, K.ambient_dim + 3)]
    assert dgm._rows is None
    expected = reference_apd(K, direction)
    assert points_of(dgm) == expected
    assert dgm.births(0) == unpaired_births == births_by_scan(expected, 0)
    none = [0] * len(dgm.heights)
    for k in range(-1, K.ambient_dim + 3):
        lower, upper = dgm.rows.get(k - 1), dgm.rows.get(k)
        reduced = [
            a + b
            for a, b in zip(
                lower.deaths if lower else none, upper.births if upper else none
            )
        ]
        assert dgm.counts(k) == reduced
        assert reduced == [count_at_by_scan(expected, k, h) for h in dgm.levels]
    assert [dgm.counts(k) for k in range(-1, K.ambient_dim + 3)] == unpaired_counts


def rows_from_points(dgm):
    """Event rows walked off the diagram's points: a birth at each point's
    birth level, a finite death at its death level, and a zero-persistence
    pair where the two are one level."""
    top = len(dgm.heights)
    index = {h: i for i, h in enumerate(dgm.levels)}
    index[INF] = top
    keys = [(p.dim, index[p.birth], index[p.death]) for p in dgm.points]
    rows = {
        k: ([0] * top, [0] * top, [0] * top)
        for k in range(max(keys)[0] + 1 if keys else 0)
    }
    for k, b, d in keys:
        births, deaths, zeros = rows[k]
        births[b] += 1
        if d != top:
            deaths[d] += 1
            if d == b:
                zeros[d] += 1
    return rows


def row_cases():
    """(diagram, the definition's points): the pairing cases, the tie
    instances plain and lifted, and the dense complex in a direction with
    no tie and in (0, 0, 1)."""
    for K, directions in PAIRING_CASES.values():
        for direction in directions:
            yield compute_apd(K, direction), reference_apd(K, direction)
    for K, direction in tie_instances():
        yield compute_apd(K, direction), reference_apd(K, direction)
        lifted = tuple(direction) + (F(1, 3),)
        yield Oracle(K).lifted().query(lifted), reference_apd(lift(K), lifted)
    dense = generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    for direction in [(3, -1, 2), (0, 0, 1)]:
        yield compute_apd(dense, direction), reference_apd(dense, direction)


def test_event_rows_are_the_definitions():
    """Each row, counted in the reduction without building a point, holds at
    every level the births, finite deaths and zero-persistence pairs of its
    dimension among the definition's points, and equals the row walked off
    the diagram's own points; the rows run up to the highest dimension of a
    point."""
    for dgm, expected in row_cases():
        rows = dgm.rows
        assert dgm._points is None
        assert sorted(rows) == list(range(max(p[0] for p in expected) + 1))
        for k, (births, deaths, zeros) in rows.items():
            assert births == [births_at_by_scan(expected, k, h) for h in dgm.levels]
            assert deaths == [deaths_at_by_scan(expected, k, h) for h in dgm.levels]
            assert zeros == [
                sum(1 for p in expected if p[0] == k and p[1] == p[2] == h)
                for h in dgm.levels
            ]
        assert rows == rows_from_points(dgm)


def test_counts_and_euler_curves_never_pair_and_points_pair_once(monkeypatch):
    """Counts, dimension-0 births and the Euler curve read the histogram
    alone; points, Betti curves, higher births and the text of one
    dimension run the reduction once per diagram and keep it.  The Betti
    curves and higher births read the rows alone, so no point is built
    until the points are read, and building them runs no second
    reduction."""
    calls = []
    real = oracle_mod._reduce_pairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle_mod, "_reduce_pairs", counting)
    K = generate_complex(GeneratorConfig(3, 8, 2, densities=[0.6, 0.7], seed=5))
    oracle = Oracle(K)
    dgm = oracle.query((1, 2, 3))
    euler_curve_from_apd(dgm)
    dgm.births(0)
    assert [dgm.simplex_count(k) for k in range(3)] == [K.n_k(k) for k in range(3)]
    assert calls == []
    for k in range(3):
        betti_curve_from_apd(dgm, k)
    dgm.births(1)
    assert len(calls) == 1
    assert dgm._points is None
    assert dgm.points is dgm.points
    format_diagram(dgm, 1)
    assert len(calls) == 1
    other = oracle.query((3, -2, 1))
    betti_curve_from_apd(other, 1)
    other.points
    assert len(calls) == 2
