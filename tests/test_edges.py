from fractions import Fraction

import pytest

import apdrec.edges as edges_mod
from apdrec import (
    EdgeInterval,
    GeneratorConfig,
    NegativeCount,
    Oracle,
    generate_complex,
    radial_order,
    validate_general_position,
)
from apdrec.edges import find_edges, find_up_edges, split_wedge
from apdrec.geometry import standard_frame, vneg

from conftest import cx

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


def global_order(K, vertex):
    points = ordered_points(K)
    others = [u for u in range(len(points)) if u != vertex]
    return radial_order(points[vertex], [points[u] for u in others], ids=others)


def test_split_wedge_figure_walkthrough():
    K = figure_complex()
    oracle = Oracle(K)
    points = ordered_points(K)
    order = global_order(K, 0)
    interval = EdgeInterval(0, (1, 2, 3, 4), 2)

    left, right = split_wedge(interval, [5], order, oracle, points)
    assert left.candidates == (1, 2) and left.edge_count == 2 - 1
    assert right.candidates == (3, 4) and right.edge_count == 1
    assert oracle.log.count == 1  # one diagram per split


def test_split_wedge_all_candidates_are_edges():
    # center joined to all four upper vertices
    K = cx(2, [(0, 0), (1, 4), (3, 2), (4, -2), (2, -5)], [(0, 1), (0, 2), (0, 3), (0, 4)])
    oracle = Oracle(K)
    points = ordered_points(K)
    order = global_order(K, 0)
    left, right = split_wedge(EdgeInterval(0, (1, 2, 3, 4), 4), [], order, oracle, points)
    assert left.edge_count == len(left.candidates) == 2
    assert right.edge_count == len(right.candidates) == 2


def test_split_wedge_edge_on_the_right():
    K = cx(2, [(0, 0), (1, 4), (3, 2)], [(0, 2)])
    oracle = Oracle(K)
    points = ordered_points(K)
    order = global_order(K, 0)
    left, right = split_wedge(EdgeInterval(0, (1, 2), 1), [], order, oracle, points)
    assert (left.edge_count, right.edge_count) == (0, 1)


def test_edge_interval_rejects_bad_count():
    with pytest.raises(NegativeCount):
        EdgeInterval(0, (1, 2), 3)


def test_find_up_edges_figure():
    K = figure_complex()
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    ups = find_up_edges(0, [5], global_order(K, 0), sweep, oracle, points, frame)
    assert sorted(ups) == [1, 3]


def test_find_up_edges_isolated_top_vertex():
    K = cx(2, [(0, 0), (1, 1)], [])
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    assert find_up_edges(0, [], global_order(K, 0), sweep, oracle, points, frame) == []
    assert oracle.log.count == 1  # nothing beyond the shared diagram


def test_find_up_edges_star():
    K = cx(2, [(0, 0), (1, 4), (3, 2), (4, -2), (2, -5)], [(0, 1), (0, 2), (0, 3), (0, 4)])
    oracle = Oracle(K)
    points = ordered_points(K)
    frame = standard_frame(2)
    sweep = oracle.query(vneg(frame.u1))
    ups = find_up_edges(0, [], global_order(K, 0), sweep, oracle, points, frame)
    assert sorted(ups) == [1, 2, 3, 4]


def test_find_edges_path():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2)])
    assert find_edges(ordered_points(K), Oracle(K)) == {(0, 1), (1, 2)}


def test_find_edges_complete_graph():
    K = cx(
        2,
        [(0, 0), (1, 5), (2, -3), (3, 1)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )
    assert validate_general_position(K).ok
    assert len(find_edges(ordered_points(K), Oracle(K))) == 6


def test_find_edges_point_cloud_queries_once():
    K = generate_complex(GeneratorConfig(3, 6, 0, densities=[], seed=8))
    oracle = Oracle(K)
    assert find_edges(ordered_points(K), oracle) == set()
    assert oracle.log.count == 1


def test_find_edges_random_graphs_with_split_instrumentation(monkeypatch):
    """Loop invariants observed at every split of every run.

    The halves partition the interval, their counts equal the true adjacency
    inside each half, and every true edge endpoint below the vertex or
    radially before the interval is already known.
    """
    real_split = split_wedge

    for seed in range(6):
        K = generate_complex(GeneratorConfig(3, 8, 1, densities=[0.5], seed=seed))
        truth = set(K.simplices_of_dim(1))
        points = ordered_points(K)

        def checked(interval, known, order, oracle, pts):
            below = [u for u in range(len(pts)) if pts[u][0] < pts[interval.vertex][0]]
            for vid in below:
                if tuple(sorted((interval.vertex, vid))) in truth:
                    assert vid in known
            first = order.position(interval.candidates[0])
            for vid, _ in order.ordered[:first]:
                if tuple(sorted((interval.vertex, vid))) in truth:
                    assert vid in known
            left, right = real_split(interval, known, order, oracle, pts)
            assert left.candidates + right.candidates == interval.candidates
            for half in (left, right):
                true_count = sum(
                    1
                    for u in half.candidates
                    if tuple(sorted((interval.vertex, u))) in truth
                )
                assert half.edge_count == true_count
            return left, right

        monkeypatch.setattr(edges_mod, "split_wedge", checked)
        oracle = Oracle(K)
        assert find_edges(points, oracle) == truth
        monkeypatch.setattr(edges_mod, "split_wedge", real_split)
