import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apdrec.edges as edges_mod
from apdrec import (
    ApdrecError,
    GeneratorConfig,
    InvalidInput,
    Oracle,
    OracleInconsistency,
    build_complex,
    complexes_match,
    generate_complex,
    radial_order,
    validate_general_position,
)
from apdrec.edges import find_edges, find_up_edges, plane_readings, split_wedge
from apdrec.errors import DegeneratePosition
from apdrec.geometry import (
    SweepFrame,
    dot,
    scale_to_integers,
    separating_direction,
    separating_slope,
    standard_frame,
    vneg,
)
from apdrec.higher import reconstruct
from apdrec.oracle import AugmentedDiagram
from apdrec.vertices import CountLedger, create_unique_height_basis, vertex_stage

from bruteforce import (
    neighbours_below_line,
    primitive_ints,
    reference_cut,
    reference_place,
    reference_rref,
    reference_separating_slope,
    slope_sort,
)
from conftest import TamperedOracle, cx, ray_text, shifted_count

F = Fraction


def figure_complex():
    """Sweep vertex with four candidates above, two true up-edges, one below.

    ids: 0 = center, 1..4 = candidates clockwise, 5 = neighbor below.
    """
    points = [(0, 0), (1, 4), (3, 2), (4, -2), (2, -5), (-1, 1)]
    K = cx(2, points, [(0, 1), (0, 3), (0, 5)])
    assert validate_general_position(K).ok
    return K


def ordered_points(K):
    return [K.vertices[i] for i in sorted(K.vertices)]


def sweep_inputs(K):
    """Points in vertex-id order, an oracle, the standard frame, and the
    ledger of the points and the diagram in its first direction, as the
    vertex stage hands them on."""
    oracle = Oracle(K)
    frame = standard_frame(K.ambient_dim)
    points = ordered_points(K)
    return points, oracle, frame, CountLedger(points, [oracle.query(frame.u1)])


def edges_in_the_standard_frame(K):
    _, oracle, frame, ledger = sweep_inputs(K)
    return find_edges(ledger, oracle, frame)


def plane(points, frame):
    """Each vertex's heights in the frame's two directions times one positive
    unit, as ints, and that unit, computed as find_edges does."""
    scaled, scale = scale_to_integers(points)
    return [(dot(frame.u1, p), dot(frame.u2, p)) for p in scaled], scale


def plane_order(points, frame, vertex):
    """The radial order about a vertex on its integer plane offsets."""
    coordinates, _ = plane(points, frame)
    a, b = coordinates[vertex]
    return radial_order(
        {u: (x - a, y - b) for u, (x, y) in enumerate(coordinates) if u != vertex}
    )


def global_order(K, vertex):
    return plane_order(ordered_points(K), standard_frame(K.ambient_dim), vertex)


def split_prefix_count(K, vertex, after, known):
    """One split about the vertex after position ``after`` of its radial
    order, its reading's count at the vertex less the ``known`` neighbours
    below its line, which is the number of up-neighbours among the vertices
    above the vertex up to that position.
    Returns that prefix count and the oracle that answered."""
    oracle = Oracle(K)
    order = global_order(K, vertex)
    frame = standard_frame(K.ambient_dim)
    coordinates, unit = plane(ordered_points(K), frame)
    p, q, counts = split_wedge(order, after, oracle, frame, coordinates, unit)
    count = counts[vertex]
    offsets = dict(order)
    below = [u for u in known if p * offsets[u][0] < q * offsets[u][1]]
    return count - len(below), oracle


def test_split_wedge_figure_walkthrough():
    # of the edges up to 1 and 3, one lies among the first two candidates
    # 1, 2; the cut also counts the neighbour 5 below the vertex
    count, oracle = split_prefix_count(figure_complex(), 0, 1, [5])
    assert count == 1
    assert oracle.log.count == 1  # one diagram per split


def test_split_wedge_all_candidates_are_edges():
    # center joined to all four upper vertices: both halves are whole
    K = cx(2, [(0, 0), (1, 4), (3, 2), (4, -2), (2, -5)], [(0, 1), (0, 2), (0, 3), (0, 4)])
    count, _ = split_prefix_count(K, 0, 1, [])
    assert count == 2 and 4 - count == 2


def test_split_wedge_edge_on_the_right():
    K = cx(2, [(0, 0), (1, 4), (3, 2)], [(0, 2)])
    count, _ = split_prefix_count(K, 0, 0, [])
    assert (count, 1 - count) == (0, 1)


def test_an_impossible_prefix_count_raises():
    """A piece whose count is above its size or negative, and two prefix
    counts at one length that differ, raise OracleInconsistency, before any
    split.  The cut (1, 1) puts candidate 1, offset (1, 4), below its line
    and candidate 2, offset (3, 2), above; (-10, 1) puts both below."""
    K = cx(2, [(0, 0), (1, 4), (3, 2)], [(0, 2)])
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    order = global_order(K, 0)
    at = plane(points, frame)
    for indegree, cuts in (
        (3, []),
        (-1, []),
        (1, [(1, 1, 2)]),
        (1, [(1, 1, -1)]),
        (1, [(1, 1, 0), (1, 1, 1)]),
        (1, [(-10, 1, 0)]),
    ):
        with pytest.raises(OracleInconsistency):
            find_up_edges(0, [], order, indegree, oracle, frame, *at, (), cuts)
    # the top vertex has no candidate, so it has no edge up
    top = global_order(K, 2)
    with pytest.raises(OracleInconsistency):
        find_up_edges(2, [0], top, 1, oracle, frame, *at, ())
    assert oracle.log.count == 0


def test_find_up_edges_figure():
    K = figure_complex()
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    indegree = sweep.count_at(1, -dot(frame.u1, points[0]))
    at = plane(points, frame)
    order = global_order(K, 0)
    ups, splits = find_up_edges(0, [5], order, indegree, oracle, frame, *at, ())
    assert ups == [1, 3]
    assert len(splits) == oracle.log.count - 1 == 3


def test_find_up_edges_isolated_top_vertex():
    K = cx(2, [(0, 0), (1, 1)], [])
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    order = global_order(K, 0)
    indegree = sweep.count_at(1, -dot(frame.u1, points[0]))
    at = plane(points, frame)
    assert find_up_edges(0, [], order, indegree, oracle, frame, *at, ()) == ([], [])
    assert oracle.log.count == 1  # nothing beyond the shared diagram


def test_find_up_edges_star():
    K = cx(2, [(0, 0), (1, 4), (3, 2), (4, -2), (2, -5)], [(0, 1), (0, 2), (0, 3), (0, 4)])
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    indegree = sweep.count_at(1, -dot(frame.u1, points[0]))
    at = plane(points, frame)
    order = global_order(K, 0)
    ups, splits = find_up_edges(0, [], order, indegree, oracle, frame, *at, ())
    assert ups == [1, 2, 3, 4]
    assert splits == []  # the whole piece is endpoints


def test_find_edges_path():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2)])
    assert edges_in_the_standard_frame(K) == {(0, 1), (1, 2)}


def test_find_edges_complete_graph():
    K = cx(
        2,
        [(0, 0), (1, 5), (2, -3), (3, 1)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )
    assert validate_general_position(K).ok
    assert len(edges_in_the_standard_frame(K)) == 6


def test_find_edges_point_cloud_queries_once():
    K = generate_complex(GeneratorConfig(3, 6, 0, densities=[], seed=8))
    _, oracle, frame, ledger = sweep_inputs(K)
    assert find_edges(ledger, oracle, frame) == set()
    assert oracle.log.queries("edges") == 1
    # the one edge-stage query is the shared diagram, added to the ledger
    assert len(ledger.diagrams) == 2
    assert ledger.diagrams[-1].direction == vneg(frame.u1)
    assert oracle.log.directions[-1] == ledger.diagrams[-1].direction


UP_ARGS = (
    "vertex",
    "known",
    "order",
    "indegree",
    "oracle",
    "frame",
    "plane",
    "unit",
    "excluded",
    "cuts",
)


def watch_splits(monkeypatch, check):
    """Patch the edge stage so that check(call, after, split) runs after
    every split_wedge, with ``call`` the arguments, by name, of the
    find_up_edges call that asked it and ``after`` the split's position in
    the radial order."""
    real_up, real_split = find_up_edges, split_wedge
    calls = []

    def up(*args):
        calls.append(dict(zip(UP_ARGS, args)))
        return real_up(*args)

    def split(order, after, *args):
        result = real_split(order, after, *args)
        check(calls[-1], after, result)
        return result

    monkeypatch.setattr(edges_mod, "find_up_edges", up)
    monkeypatch.setattr(edges_mod, "split_wedge", split)


def true_neighbours(K, vertex):
    return {u for e in K.simplices_of_dim(1) if vertex in e for u in e if u != vertex}


def test_find_edges_random_graphs_with_split_instrumentation(monkeypatch):
    """Loop invariants observed at every split of every run.

    The known neighbours are exactly the true ones below the vertex, no
    excluded vertex is a true neighbour, the split's line puts exactly the
    vertices up to ``after`` in the radial order below it, and its cut less
    the known neighbours below the line, the new prefix count, is the true
    number of up-neighbours among them.
    """
    checked = []
    for seed in range(6):
        K = generate_complex(GeneratorConfig(3, 8, 1, densities=[0.5], seed=seed))

        def check(call, after, split):
            order = call["order"]
            adjacent = true_neighbours(K, call["vertex"])
            above = {vid for vid, (x, _) in order if x > 0}
            known = set(call["known"])
            assert known == adjacent - above
            assert not adjacent & set(call["excluded"])
            p, q, counts = split
            count = counts[call["vertex"]]
            below = {u for u, (x, y) in order if p * x < q * y}
            first = {vid for vid, _ in order[: after + 1]} & above
            assert below & above == first
            assert count - len(known & below) == len(adjacent & first)
            checked.append(split)

        watch_splits(monkeypatch, check)
        assert edges_in_the_standard_frame(K) == set(K.simplices_of_dim(1))
    assert checked  # the random graphs do need splits


def test_find_edges_splits_only_undecided_intervals(monkeypatch):
    """Every split cuts the leftmost piece whose count decides nothing, at
    its middle candidate.  Seen from the true edges, each piece to its left
    holds only endpoints or none, and the piece itself holds both kinds."""
    sizes = []
    for seed in range(8):
        K = generate_complex(GeneratorConfig(2, 12, 1, densities=[0.35], seed=seed))
        truth = {frozenset(K.vertices[v] for v in e) for e in K.simplices_of_dim(1)}
        oracle = Oracle(K)
        points, frame, ledger = vertex_stage(oracle)

        def check(call, after, split):
            order, excluded = call["order"], call["excluded"]
            kept = [vid for vid, (x, _) in order if x > 0 and vid not in excluded]
            offsets = dict(order)
            if "ends" not in call:
                call["ends"] = {0, len(kept)} | {
                    sum(1 for u in kept if p * offsets[u][0] < q * offsets[u][1])
                    for p, q, _ in call["cuts"]
                }
            ends = sorted(call["ends"])
            mid = sum(
                1 for vid, (x, _) in order[: after + 1] if x > 0 and vid not in excluded
            )
            start = max(e for e in ends if e < mid)
            end = min(e for e in ends if e > mid)
            assert mid == (start + end) // 2

            def count(s, e):
                center = points[call["vertex"]]
                return sum(frozenset((center, points[u])) in truth for u in kept[s:e])

            for s, e in zip(ends, ends[1:]):
                if e <= start:
                    assert count(s, e) in (0, e - s)
            assert 0 < count(start, end) < end - start
            call["ends"].add(mid)
            sizes.append(end - start)

        watch_splits(monkeypatch, check)
        found = find_edges(ledger, oracle, frame)
        assert {frozenset(points[v] for v in e) for e in found} == truth
    assert sizes  # the random graphs do need splits


def test_find_edges_leaves_out_vertices_whose_down_edges_are_known(monkeypatch):
    # sweep order 0, 1, 2, 3; edges 0-3 and 1-2.  At vertex 0, vertex 1 has
    # no edge down and drops out, so one split of {2, 3} decides it; at
    # vertex 1, vertex 3's one edge down (to 0) is known and it drops out,
    # so vertex 2 is taken without a split.  Without the counts the search
    # would split three times.
    K = cx(2, [(0, 0), (1, 5), (2, -1), (3, 2)], [(0, 3), (1, 2)])
    splits = []

    def record(call, after, split):
        candidates = {vid for vid, (x, _) in call["order"] if x > 0}
        splits.append((call["vertex"], candidates - set(call["excluded"])))

    watch_splits(monkeypatch, record)
    _, oracle, frame, ledger = sweep_inputs(K)
    assert find_edges(ledger, oracle, frame) == {(0, 3), (1, 2)}
    assert splits == [(0, {2, 3})]
    assert oracle.log.queries("edges") == 2


def test_find_edges_rejects_a_sweep_in_another_direction():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2)])
    points, oracle, frame, _ = sweep_inputs(K)
    with pytest.raises(InvalidInput):
        find_edges(CountLedger(points, [oracle.query(frame.u2)]), oracle, frame)


class MovedVertexOracle(Oracle):
    """An Oracle that answers one direction with the diagram of the complex
    ``moved``, the same complex with one vertex moved; every other answer,
    and the query log, is the complex's own."""

    def __init__(self, complex_, moved, direction):
        super().__init__(complex_)
        self._moved = (Oracle(moved), tuple(F(x) for x in direction))

    def query(self, direction):
        dgm = super().query(direction)
        other, target = self._moved
        return other.query(direction) if dgm.direction == target else dgm


def test_a_vertex_off_the_grid_of_the_shared_diagram_raises_at_the_ledger():
    """The -u1 diagram of the path with its last vertex moved from x = 2 to
    x = 5/2 has no level at the recovered vertex's height -2.  Adding it to
    the ledger raises OracleInconsistency, before any split is asked; a
    read that took the missing level for a count of 0 would search on."""
    points = [(0, 0), (1, 2), (2, 1)]
    K = cx(2, points, [(0, 1), (1, 2)])
    moved = cx(2, points[:2] + [(F(5, 2), 1)], [(0, 1), (1, 2)])
    frame = standard_frame(2)
    oracle = MovedVertexOracle(K, moved, vneg(frame.u1))
    _, frame, ledger = vertex_stage(oracle)
    with pytest.raises(OracleInconsistency, match="off the grid"):
        find_edges(ledger, oracle, frame)
    assert oracle.log.queries("edges") == 1
    assert len(ledger.diagrams) == 3  # the moved diagram is not kept


def test_find_edges_never_returns_edges_from_a_miscounted_sweep():
    """Moving any one vertex's down-degree by one, up or down, ends in a
    typed error, never in an edge set.  An over-count, which leaves the
    search whole and so used to pass unnoticed, is an OracleInconsistency."""
    for seed in range(4):
        K = generate_complex(GeneratorConfig(2, 8, 1, densities=[0.4], seed=seed))
        points, oracle, frame, ledger = sweep_inputs(K)
        sweep = ledger.diagrams[0]
        assert find_edges(ledger, oracle, frame) == set(K.simplices_of_dim(1))
        for v, p in enumerate(points):
            height = dot(frame.u1, p)
            for delta in (1, -1):
                if sweep.count_at(1, height) + delta < 0:
                    continue
                tampered = shifted_count(sweep, 1, height, delta)
                with pytest.raises(ApdrecError) as info:
                    find_edges(CountLedger(points, [tampered]), oracle, frame)
                if delta > 0:
                    assert info.type is OracleInconsistency


def test_find_edges_checks_the_edges_against_every_ledger_diagram():
    """The stage ends with the ledger's count check.  The e3 diagram of a
    d = 3 reconstruction lies outside the sweep plane, so the search never
    reads it; its edge count moved by one at any vertex's height, up or
    down, still raises OracleInconsistency from find_edges itself."""
    tried = 0
    for seed in range(2):
        K = generate_complex(GeneratorConfig(3, 7, 1, densities=[0.5], seed=seed))
        e3 = Oracle(K).query((0, 0, 1))
        for vertex in K.vertices.values():
            for delta in (1, -1):
                if e3.count_at(1, vertex[2]) + delta < 0:
                    continue
                oracle = TamperedOracle(K, (0, 0, 1), 1, vertex[2], delta)
                _, frame, ledger = vertex_stage(oracle)
                assert frame == standard_frame(3)
                assert (0, 0, 1) in [dgm.direction for dgm in ledger.diagrams]
                with pytest.raises(OracleInconsistency, match="1-simplices"):
                    find_edges(ledger, oracle, frame)
                tried += 1
    assert tried > 10


# ---------------------------------------------------------------------------
# free cuts


def find_edges_recording_cuts(monkeypatch, points, oracle, frame, ledger):
    """find_edges with the known neighbours below, the cuts and the (p, q)
    of the splits of every find_up_edges call recorded.  Returns the edges
    as a complex on the points, and the calls."""
    real = find_up_edges
    calls = []

    def recording(*args):
        vertex, known, *_, cuts = args
        ups, splits = real(*args)
        calls.append((vertex, sorted(known), list(cuts), [s[:2] for s in splits]))
        return ups, splits

    monkeypatch.setattr(edges_mod, "find_up_edges", recording)
    found = find_edges(ledger, oracle, frame)
    monkeypatch.setattr(edges_mod, "find_up_edges", real)
    return cx(oracle.ambient_dim, points, sorted(found)), calls


def split_direction(frame, p, q):
    """The integer direction p * u1 - q * u2 of a split or cut."""
    return tuple(p * x - q * y for x, y in zip(frame.u1, frame.u2))


def edge_segments(K):
    return {frozenset(K.vertices[v] for v in e) for e in K.simplices_of_dim(1)}


def free_cut_inputs():
    """(complex, points, oracle, frame, ledger): d = 2 graphs and
    d = 3 configs with kappa = 1 through the vertex stage, the tilted frame
    of the fallback basis, and a d = 2 graph in a frame that is not
    orthogonal."""
    from test_harness import fallback_basis_complex

    complexes = [fallback_basis_complex()]
    for seed in range(6):
        for config in (
            GeneratorConfig(2, 20, 1, densities=[0.3], seed=seed),
            GeneratorConfig(3, 12, 1, densities=[0.4], seed=seed),
        ):
            complexes.append(generate_complex(config))
    for K in complexes:
        oracle = Oracle(K)
        points, frame, ledger = vertex_stage(oracle)
        yield K, points, oracle, frame, ledger
    K = complexes[1]
    oracle = Oracle(K)
    frame = SweepFrame((6, 2), (3, 6))
    points = ordered_points(K)
    yield K, points, oracle, frame, CountLedger(points, [oracle.query(frame.u1)])


def test_every_free_cut_counts_the_true_up_neighbours_below_its_line(monkeypatch):
    """Each cut (p, q, count) a vertex receives, less its neighbours below
    the line among those below it in the sweep, is the number of its true
    neighbours above it in the sweep and below the line, counted from the
    complex's edges.  Those below in the sweep are exactly the known ones,
    and every input hands cuts on."""
    for K, *inputs in free_cut_inputs():
        found, calls = find_edges_recording_cuts(monkeypatch, *inputs)
        frame = inputs[2]
        assert edge_segments(found) == edge_segments(K)
        height = {u: dot(frame.u1, p) for u, p in found.vertices.items()}
        for vertex, known, cuts, _ in calls:
            lower = [
                u
                for u in found.vertices
                if height[u] < height[vertex]
                and tuple(sorted((u, vertex))) in found.simplices
            ]
            assert known == sorted(lower)
            for p, q, count in cuts:
                line = (found, vertex, frame.u1, frame.u2, p, q)
                down = neighbours_below_line(*line, above=False)
                up = neighbours_below_line(*line, above=True)
                assert count - down == up
        assert any(cuts for _, _, cuts, _ in calls)


def test_every_vertex_stage_cut_counts_the_true_neighbours_below_its_line():
    """``plane_readings`` gives one reading per ledger diagram whose
    direction lies in span(u1, u2), by rank over Fractions, but not on the
    line of u1, in ledger order, and none from any other diagram, the
    diagrams in ±u1 among them.  The reading's line is the diagram's, its
    direction p * u1 - q * u2 a positive multiple of the diagram's or of its
    negation.  Its count at a vertex that shares its height there is None,
    and at any other vertex the number of the vertex's true neighbours
    below the line (bruteforce ``neighbours_below_line``, both sides of the
    sweep).  The inputs hold diagrams in the negated form (e2 in the
    standard frame), and the fallback basis, whose e1 diagram lies in the
    tilted frame's plane with vertices 0 and 1 at one height."""

    def rank(*vectors):
        return len(reference_rref([[F(x) for x in v] for v in vectors])[1])

    negated = shared = 0
    for K, points, oracle, frame, ledger in free_cut_inputs():
        ledger.add(oracle.query(vneg(frame.u1)))
        readings = plane_readings(ledger, frame)
        rays = [
            dgm.direction
            for dgm in ledger.diagrams
            if rank(frame.u1, frame.u2, dgm.direction) < 3
            and rank(frame.u1, dgm.direction) > 1
        ]
        assert len(readings) == len(rays)
        vertex_id = {point: u for u, point in K.vertices.items()}
        for (p, q, counts), s in zip(readings, rays):
            assert q > 0
            ray = primitive_ints(split_direction(frame, p, q))
            assert ray in (primitive_ints(s), primitive_ints(vneg(s)))
            negated += ray != primitive_ints(s)
            heights = [sum(F(a) * b for a, b in zip(s, point)) for point in points]
            assert len(counts) == len(points)
            for v, (height, count) in enumerate(zip(heights, counts)):
                if heights.count(height) > 1:
                    assert count is None
                    shared += 1
                    continue
                line = (K, vertex_id[points[v]], frame.u1, frame.u2, p, q)
                below = neighbours_below_line(*line, above=False)
                assert count == below + neighbours_below_line(*line, above=True)
    assert negated > 0 and shared >= 2


def test_vertices_sharing_a_height_in_a_split_diagram_take_no_cut(monkeypatch):
    """Vertex 0's first split, after b in its order a, b, w, u, asks
    (7, -3), for the slope 7/3 of w - u, so u and w share a height there, where
    the diagram counts u - a, u - b and w - a together.  Neither takes a cut
    from it, and the edges come back."""
    K = shared_height_complex()
    points, oracle, frame, ledger = sweep_inputs(K)
    found, calls = find_edges_recording_cuts(monkeypatch, points, oracle, frame, ledger)
    assert edge_segments(found) == edge_segments(K)
    assert oracle.log.directions[2] == (7, -3)
    cuts = {vertex: {(p, q) for p, q, _ in cuts} for vertex, _, cuts, _ in calls}
    assert (7, 3) in cuts[1]
    assert (7, 3) not in cuts[3] | cuts[4]


def shared_height_complex():
    """Five vertices in the plane, two of which, u and w, share a height in
    the direction of vertex 0's first split."""
    #             0       a       b          u       w
    points = [(0, 0), (1, 5), (24, 91), (5, 0), (8, 7)]
    K = cx(2, points, [(0, 1), (1, 3), (1, 4), (2, 3)])
    assert validate_general_position(K).ok
    return K


def find_edges_recording_calls(monkeypatch, ledger, oracle, frame):
    """The arguments, by name, of every find_up_edges call of find_edges, in
    sweep order, each with the full splits that call asked.  The known
    neighbours are copied, as the vertex's list grows after its call."""
    real = find_up_edges
    calls = []

    def recording(*args):
        call = dict(zip(UP_ARGS, args), known=list(args[1]))
        ups, splits = real(*args)
        calls.append(dict(call, splits=splits))
        return ups, splits

    monkeypatch.setattr(edges_mod, "find_up_edges", recording)
    find_edges(ledger, oracle, frame)
    monkeypatch.setattr(edges_mod, "find_up_edges", real)
    return calls


def read_inputs():
    """The shared-height complex in the standard frame and seeded planar
    graphs through the vertex stage, as (points, oracle, frame, ledger)."""
    yield sweep_inputs(shared_height_complex())
    for seed in range(4):
        oracle = Oracle(generate_complex(GeneratorConfig(2, 20, 1, [0.3], seed=seed)))
        points, frame, ledger = vertex_stage(oracle)
        yield points, oracle, frame, ledger


def test_every_vertex_takes_the_reference_cut_of_each_split_asked_before_it(
    monkeypatch,
):
    """A split's reading holds, at every vertex, the count of the cut that a
    per-vertex read of its diagram gives (bruteforce.reference_cut, a
    Fraction lookup among the levels), or None where that gives none, as at
    a vertex that shares its height.  Each vertex is handed exactly the
    cuts of the vertex-stage readings (``plane_readings``), then those of
    every split asked before its turn, in the order the splits were asked.
    The split of the same line read with a point off the grid, above or
    below every level, where the reference gives None, raises
    OracleInconsistency."""
    shared = 0
    for points, oracle, frame, ledger in read_inputs():
        coordinates, unit = plane(points, frame)
        calls = find_edges_recording_calls(monkeypatch, ledger, oracle, frame)
        seeded = plane_readings(ledger, frame)
        spread = max(abs(x) + abs(y) for x, y in coordinates) + 1
        off_grid = [(0, spread * unit * 10**6), (0, -spread * unit * 10**6)]
        asked = []
        for call in calls:
            v = call["vertex"]
            want = [(p, q, c[v]) for p, q, c in seeded if c[v] is not None]
            for split in asked:
                cut = reference_cut(split, *coordinates[v], unit)
                want += [cut] if cut is not None else []
            assert list(call["cuts"]) == want
            order = call["order"]
            for p, q, counts in call["splits"]:
                split = (p, q, oracle.query(split_direction(frame, p, q)))
                want = [reference_cut(split, a, b, unit) for a, b in coordinates]
                assert [None if c is None else (p, q, c) for c in counts] == want
                shared += want.count(None)
                asked.append(split)
                # the split after the last vertex above the center below its
                # line
                after = max(
                    i for i, (_, (x, y)) in enumerate(order) if 0 < x and p * x < q * y
                )
                assert separating_slope(order, after) == (p, q)
                for point in off_grid:
                    assert reference_cut(split, *point, unit) is None
                    with pytest.raises(OracleInconsistency, match="off the grid"):
                        split_wedge(
                            order, after, oracle, frame, coordinates + [point], unit
                        )
        assert asked
    # the shared-height complex's vertices u and w in vertex 0's split
    assert shared >= 2


def answer_a_split_with_a_vertex_moved(monkeypatch, split, vertex):
    """Reconstruct a seeded planar graph through an oracle that answers its
    split at index ``split`` of all its splits in the order asked with the
    diagram of the graph whose vertex at index ``vertex`` in the sweep is
    moved by 1/997 in x."""
    K = generate_complex(GeneratorConfig(2, 20, 1, [0.3], seed=0))
    oracle = Oracle(K)
    _, frame, ledger = vertex_stage(oracle)
    calls = find_edges_recording_calls(monkeypatch, ledger, oracle, frame)
    p, q, _ = [reading for call in calls for reading in call["splits"]][split]
    vertices = dict(K.vertices)
    moved = sorted(vertices, key=lambda v: dot(frame.u1, vertices[v]))[vertex]
    x, y = vertices[moved]
    vertices[moved] = (x + F(1, 997), y)
    other = build_complex(2, vertices, K.maximal_simplices())
    return reconstruct(MovedVertexOracle(K, other, split_direction(frame, p, q)))


def test_a_split_answered_off_the_grid_raises(monkeypatch):
    """The first split of a seeded planar graph is answered with the diagram
    of the graph whose highest vertex is moved by 1/997 in x.  That vertex
    is off the answer's grid, which reading the split raises as
    OracleInconsistency; a read that dropped it as no cut returned the
    graph itself."""
    with pytest.raises(OracleInconsistency, match="off the grid of a split"):
        answer_a_split_with_a_vertex_moved(monkeypatch, 0, -1)


def test_a_split_answered_off_the_grid_at_an_earlier_vertex_raises(monkeypatch):
    """The last split of the same graph is answered with the diagram of the
    graph whose lowest vertex in the sweep is moved by 1/997 in x.  Only
    that vertex, whose search ended first, is off the answer's grid: a
    split located at its own vertex and the later ones alone returned the
    graph itself."""
    with pytest.raises(OracleInconsistency, match="off the grid of a split"):
        answer_a_split_with_a_vertex_moved(monkeypatch, -1, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_merge_places_each_cut_where_a_per_cut_count_does(data):
    """``_place`` puts every cut at the (end, count) that counting each side
    offset by offset gives (bruteforce.reference_place), alone and all in
    one merge.  The cuts are drawn, one is repeated as from a second split
    of the same slope and again in other terms, two pass through an offset,
    and two lie above every candidate (end 0) and below every one (the
    last)."""
    coordinate = st.integers(-30, 30)
    offsets = data.draw(
        st.dictionaries(
            st.integers(1, 40),
            st.tuples(coordinate.filter(bool), coordinate),
            min_size=1,
            max_size=12,
        ),
        label="offsets",
    )
    try:
        order = radial_order(offsets)
    except DegeneratePosition:
        return
    excluded = data.draw(st.sets(st.sampled_from(sorted(offsets))), label="excluded")
    known = data.draw(st.sets(st.sampled_from(sorted(offsets))), label="known")
    ups = [off for vid, off in order if off[0] > 0 and vid not in excluded]
    downs = [off for vid, off in reversed(order) if off[0] < 0 and vid in known]
    slope = st.tuples(st.integers(-60, 60), st.integers(1, 60))
    count = st.integers(0, 12)
    cuts = [(p, q, data.draw(count)) for p, q in data.draw(st.lists(slope, max_size=10))]
    if cuts:
        p, q, c = cuts[0]
        cuts += [(p, q, c), (3 * p, 3 * q, c)]
    # lines through a candidate and through a known neighbour, which lie on
    # neither side
    for x, y in ups[:1] + downs[:1]:
        cuts.append((y, x, data.draw(count)) if x > 0 else (-y, -x, data.draw(count)))
    steep = max(abs(y) for _, y in offsets.values()) + 1
    cuts += [(steep, 1, data.draw(count)), (-steep, 1, data.draw(count))]
    want = [reference_place(cut, ups, downs) for cut in cuts]
    assert want[-2][0] == 0 and want[-1][0] == len(ups)
    for cut, placed in zip(cuts, want):
        assert edges_mod._place([cut], ups, downs) == [placed]
    assert sorted(edges_mod._place(cuts, ups, downs)) == sorted(want)


def test_the_merge_places_the_cuts_of_planar_graphs_as_per_cut_counts(monkeypatch):
    """Every vertex's seeded cuts, on the shared-height complex and seeded
    planar graphs, land where counting each side for each cut puts them."""
    placed = 0
    for _, oracle, frame, ledger in read_inputs():
        for call in find_edges_recording_calls(monkeypatch, ledger, oracle, frame):
            order, cuts = call["order"], call["cuts"]
            excluded, known = call["excluded"], set(call["known"])
            ups = [off for vid, off in order if off[0] > 0 and vid not in excluded]
            downs = [off for vid, off in reversed(order) if vid in known]
            want = [reference_place(cut, ups, downs) for cut in cuts]
            assert sorted(edges_mod._place(cuts, ups, downs)) == sorted(want)
            placed += len(cuts)
    assert placed > 100


def test_a_planar_reconstruction_reads_no_level_per_split_and_later_vertex(monkeypatch):
    """A planar graph with n = 120 vertices: every diagram read goes through
    ``AugmentedDiagram.levels_of``, one call per batch, and every call
    locates all n vertices.  Four locate them in the four diagrams of the
    count ledger (the vertex stage's 2d - 1 = 3 and the edge stage's in
    -u1); the edge stage's degrees and cuts and the count check read those
    levels again instead of locating the vertices anew.  Each split is
    located once, at every vertex, so no Python call runs per split and
    later vertex; a read per vertex made about 28,000 calls here, and a
    read at the split's own vertex and then at the later ones 574."""
    K = generate_complex(
        GeneratorConfig(2, 120, 1, [0.05], seed=1, coordinate_denominator_bound=120)
    )
    real = AugmentedDiagram.levels_of
    calls = []

    def levels_of(self, numerators, denominator):
        calls.append(len(numerators))
        return real(self, numerators, denominator)

    monkeypatch.setattr(AugmentedDiagram, "levels_of", levels_of)
    oracle = Oracle(K)
    assert complexes_match(reconstruct(oracle), K)
    n, splits = len(K.vertices), oracle.log.queries("edges") - 1
    assert splits == 285
    assert calls == [n] * (4 + splits)


def test_a_miscounted_free_cut_ends_in_an_error(monkeypatch):
    """Moving one split diagram's edge count at a later vertex's height by
    one, up or down, ends in a typed error, never in an edge set.  Seed 3
    holds a cut whose miscount meets every sweep count: vertex 5 takes 12
    for 13 as an endpoint, so 12 leaves 11's candidates early and 11 takes
    13 in turn.  Only the cuts of a vertex with no edge up, read as well,
    catch it.  Moving the edge count of a vertex-stage diagram other than
    the sweep's, all in the plane for d = 2, at any vertex's height ends in
    a typed error too: from the cut a lone vertex takes from it, or from
    the count check."""
    tried = 0
    for seed in (0, 3):
        K = generate_complex(GeneratorConfig(2, 14, 1, densities=[0.35], seed=seed))
        oracle = Oracle(K)
        points, frame, ledger = vertex_stage(oracle)
        in_plane = ledger.diagrams[1:]
        found, calls = find_edges_recording_cuts(
            monkeypatch, points, oracle, frame, ledger
        )
        seeded = plane_readings(ledger, frame)
        for dgm in in_plane:
            edges = dgm.histogram.get(1) or [0] * len(dgm.heights)
            for vertex in found.vertices.values():
                height = dot(dgm.direction, vertex)
                for delta in (1, -1):
                    if edges[dgm.level(height)] + delta < 0:
                        continue
                    tampered = TamperedOracle(K, dgm.direction, 1, height, delta)
                    with pytest.raises(ApdrecError):
                        reconstruct(tampered)
                    tried += 1
        for vertex, _, cuts, _ in calls:
            free = sum(c[vertex] is not None for _, _, c in seeded)
            for p, q, count in cuts[free:]:
                direction = split_direction(frame, p, q)
                height = dot(direction, found.vertices[vertex])
                for delta in (1, -1):
                    if count + delta < 0:
                        continue
                    tampered = TamperedOracle(K, direction, 1, height, delta)
                    with pytest.raises(ApdrecError):
                        _, tilted, tampered_ledger = vertex_stage(tampered)
                        find_edges(tampered_ledger, tampered, tilted)
                    tried += 1
    assert tried > 200


def test_find_edges_never_returns_edges_from_a_miscounted_split(monkeypatch):
    """Moving one split diagram's edge count at the height of the vertex
    that asked it by one, up or down, ends in a typed error, never in an edge
    set.  The search takes the count as given and so takes a wrong endpoint,
    and the exchange of two edges that can follow meets every sweep count;
    the cuts that the other diagrams hand to later vertices catch it."""
    tried = 0
    for seed in range(4):
        K = generate_complex(GeneratorConfig(2, 14, 1, densities=[0.35], seed=seed))
        oracle = Oracle(K)
        points, frame, ledger = vertex_stage(oracle)
        _, calls = find_edges_recording_cuts(monkeypatch, points, oracle, frame, ledger)
        for vertex, _, _, splits in calls:
            for p, q in splits:
                direction = split_direction(frame, p, q)
                height = dot(direction, points[vertex])
                for delta in (1, -1):
                    tampered = TamperedOracle(K, direction, 1, height, delta)
                    with pytest.raises(ApdrecError):
                        _, frame_t, ledger_t = vertex_stage(tampered)
                        find_edges(ledger_t, tampered, frame_t)
                    tried += 1
    assert tried > 100


def test_a_split_that_puts_a_second_vertex_at_its_own_height_raises(monkeypatch):
    """The vertex that asks a split must be alone at its height there, as
    the line of a split misses every other vertex; a diagram that counts a
    second vertex there is an OracleInconsistency."""
    K = figure_complex()
    points, oracle, frame, ledger = sweep_inputs(K)
    _, calls = find_edges_recording_cuts(monkeypatch, points, oracle, frame, ledger)
    vertex, splits = next((v, s) for v, _, _, s in calls if s)
    direction = split_direction(frame, *splits[0])
    height = dot(direction, points[vertex])
    tampered = TamperedOracle(K, direction, 0, height, 1)
    with pytest.raises(OracleInconsistency):
        find_edges(CountLedger(points, [tampered.query(frame.u1)]), tampered, frame)


def test_free_cuts_pin_the_edge_queries_of_a_sparse_planar_graph():
    """60 vertices and 264 edges in the plane: 172 edge-stage queries, 699
    before the split diagrams were read at later vertices and 168 before
    the vertex-stage diagrams were read as cuts."""
    K = generate_complex(GeneratorConfig(2, 60, 1, densities=[0.15], seed=1))
    oracle = Oracle(K)
    points, frame, ledger = vertex_stage(oracle)
    found = find_edges(ledger, oracle, frame)
    assert complexes_match(cx(2, points, sorted(found)), K)
    assert oracle.log.queries("edges") == 172


# ---------------------------------------------------------------------------
# the integer radial order


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_radial_order_matches_the_rational_one(data):
    """On the integer plane offsets of rational points, in the standard frame
    and in tilted frames of the vertex stage's fallback, the radial order has
    the ids of a Fraction slope sort of the rational offsets, its offsets
    are ints, and each split's integer slope is the Fraction one.  The split
    direction puts exactly the vertices up to the split below the center;
    its integer read at its own vertex is the rational dot-product count,
    and so is the integer count of the known neighbours below its line."""
    d = data.draw(st.integers(2, 3), label="d")
    coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    points = data.draw(
        st.lists(st.tuples(*[coordinate] * d), min_size=3, max_size=8, unique=True),
        label="points",
    )
    if data.draw(st.booleans(), label="tilted"):
        frame = create_unique_height_basis(
            sorted(p[0] for p in points), sorted(p[1] for p in points), d
        )
    else:
        frame = standard_frame(d)
    # the center, vertex 0, has at least two vertices above it in the sweep,
    # and one below once there are four
    points.sort(key=lambda p: dot(frame.u1, p))
    points.insert(0, points.pop(len(points) // 2 - 1))
    ids = list(range(1, len(points)))
    c1, c2 = dot(frame.u1, points[0]), dot(frame.u2, points[0])
    rational = {
        u: (dot(frame.u1, points[u]) - c1, dot(frame.u2, points[u]) - c2) for u in ids
    }
    slopes = [y / x for x, y in rational.values() if x]
    try:
        order = plane_order(points, frame, 0)
    except DegeneratePosition:
        assert len(slopes) < len(ids) or len(set(slopes)) < len(slopes)
        return
    assert [vid for vid, _ in order] == [vid for vid, _ in slope_sort(rational)]
    assert all(type(x) is int for _, off in order for x in off)
    above = [pos for pos, (_, (x, _)) in enumerate(order) if x > 0]
    for after in above:
        p, q = separating_slope(order, after)
        assert F(p, q) == reference_separating_slope(rational, after)
        direction = separating_direction((p, q), frame)
        assert direction == split_direction(frame, p, q)
        height = dot(direction, points[0])
        assert all(type(x) is int for x in direction)
        assert p * c1 - q * c2 == height
        below = [vid for vid in ids if dot(direction, points[vid]) < height]
        assert set(below) & {order[i][0] for i in above} == {
            order[i][0] for i in above if i <= after
        }

    # vertex 0 joined to a drawn set of the others; the known neighbours are
    # those below it in the sweep, and the split is of all those above
    joined = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    neighbours = {u for u, j in zip(ids, joined) if j}
    candidates = tuple(order[i][0] for i in above)
    if len(candidates) < 2:
        return
    known = sorted(neighbours - set(candidates))
    K = cx(d, points, [(0, u) for u in sorted(neighbours)])
    mid = len(candidates) // 2
    after = above[mid - 1]
    p, q, counts = split_wedge(order, after, Oracle(K), frame, *plane(points, frame))
    assert (p, q) == separating_slope(order, after)
    direction = split_direction(frame, p, q)
    height = dot(direction, points[0])
    indegree = Oracle(K).query(direction).count_at(1, height)
    assert counts[0] == indegree
    below = [u for u in known if dot(direction, points[u]) < height]
    offsets = dict(order)
    assert below == [u for u in known if p * offsets[u][0] < q * offsets[u][1]]
    assert indegree - len(below) == len(neighbours & set(candidates[:mid]))


FALLBACK_LOG_SHA256 = "f3aac25a3a36558d4e9c4edee6f29e0bb58a2c64c260071805e35b180a6c8181"


def test_query_log_of_the_fallback_basis_complex_is_pinned():
    """The edge stage in a tilted frame asks the same directions, in the same
    spans, as it did on rational offsets.  The digest was recorded after
    checking that the log equals the one on rational offsets, less exactly
    the predicate spans of the candidates that the count rule rejects.  It
    hashes each direction as its ray (``ray_text``), and was re-recorded
    once when the vertex stage asked its tilts as ints: the tilt weight of
    each s_t is then measured against b1 at its integer scale, which moved
    the rays of the three s_t tilts and no other entry.  It was re-recorded
    when the edge stage read the vertex-stage diagrams in the tilted plane
    as cuts, which took its edge queries from 5 to 3, and the higher stage
    every ledger diagram, which left its predicate spans as they were."""
    from test_harness import fallback_basis_complex

    K = fallback_basis_complex()
    oracle = Oracle(K)
    assert complexes_match(reconstruct(oracle), K)
    assert oracle.log.queries("edges") > 1  # the tilted frame splits wedges
    digest = hashlib.sha256(repr(oracle.log.spans).encode())
    for direction in oracle.log.directions:
        digest.update(ray_text(direction))
    assert digest.hexdigest() == FALLBACK_LOG_SHA256
