from fractions import Fraction
from itertools import combinations

import pytest

from apdrec import (
    ApdrecError,
    DegeneratePosition,
    GeneratorConfig,
    InvalidInput,
    Oracle,
    OracleInconsistency,
    PreconditionViolated,
    complexes_match,
    compute_apd,
    compute_indegree,
    generate_complex,
    is_simplex,
    lift,
    reconstruct,
)
from apdrec.complexes import proper_faces
from apdrec.geometry import scale_to_integers, vneg
from apdrec.higher import _isolating_direction
from apdrec.oracle import lift_point
from apdrec.vertices import vertex_stage

from bruteforce import brute_coface_count, count_rejection_replay
from conftest import TamperedOracle, cx, ray_text

F = Fraction


def id_points(K):
    return [K.vertices[i] for i in sorted(K.vertices)]


def scaled_points(K):
    """(points times L, L) in vertex id order: the higher stage's input."""
    return scale_to_integers(id_points(K))


def kindegree_figure_complex():
    """Triangle in R^4 with three tetrahedra at its height, one a coface."""
    points = [
        (0, 0, 0, 0),      # A
        (1, 0, 0, 0),      # B
        (0, 1, 0, 0),      # C
        (F(1, 3), F(1, 3), 1, -1),   # D: [A,B,C,D] is the true coface
        (2, 0, F(1, 2), -2),         # E
        (-1, 0, F(1, 3), -3),        # F: [A,B,E,F] meets sigma in [A,B]
        (0, 2, 1, -4),               # G
        (1, 2, F(1, 2), -5),         # H
        (2, 3, F(1, 4), -6),         # I: [C,G,H,I] meets sigma in [C]
    ]
    return cx(4, points, [(0, 1, 2, 3), (0, 1, 4, 5), (2, 6, 7, 8)])


def test_kindegree_figure_three_minus_one_minus_one():
    K = kindegree_figure_complex()
    oracle = Oracle(K)
    points, scale = scaled_points(K)
    sigma = (0, 1, 2)
    direction = (0, 0, 0, 1)

    raw = oracle.query(direction)
    assert raw.count_at(3, F(0)) == 3  # three tetrahedra

    memo = {}
    assert compute_indegree(sigma, direction, 3, memo, oracle, points, scale) == 1
    assert set(memo) == set(proper_faces(sigma))
    # the two unit corrections come from the [A,B] and [C] faces
    assert memo[(0, 1)] == 1 and memo[(2,)] == 1
    assert sum(memo.values()) == 2
    assert brute_coface_count(K, sigma, direction, 3) == 1


def test_indegree_vertex_without_cofaces():
    K = cx(2, [(0, 0), (1, 3)], [])
    oracle = Oracle(K)
    assert compute_indegree((1,), (1, 0), 1, {}, oracle, *scaled_points(K)) == 0


def test_indegree_full_triangle_edge():
    K = cx(3, [(0, 0, 0), (1, 2, 1), (2, 1, -1)], [(0, 1, 2)])
    oracle = Oracle(K)
    points, scale = scaled_points(K)
    sigma = (0, 1)
    direction, _ = _isolating_direction(sigma, points)
    # flip if the third vertex sits above the edge
    from apdrec.geometry import dot, vneg

    if dot(direction, points[2]) > dot(direction, points[0]):
        direction = vneg(direction)
    got = compute_indegree(sigma, direction, 2, {}, oracle, points, scale)
    assert got == brute_coface_count(K, sigma, direction, 2) == 1


def test_indegree_query_budget_and_memo():
    K = kindegree_figure_complex()
    oracle = Oracle(K)
    sigma = (0, 1, 2)
    compute_indegree(sigma, (0, 0, 0, 1), 3, {}, oracle, *scaled_points(K))
    assert oracle.log.count == 2 ** len(sigma) - 1  # one per face plus the root


def test_indegree_rejects_unisolated_height():
    K = cx(2, [(0, 0), (1, 0)], [])  # both at height 0 under e2
    oracle = Oracle(K)
    with pytest.raises(PreconditionViolated):
        compute_indegree((0,), (0, 1), 1, {}, oracle, *scaled_points(K))


BAD_IDS = [
    pytest.param(lambda *a: is_simplex((0, 1), 99, *a), id="candidate-past-the-end"),
    pytest.param(lambda *a: is_simplex((0, 1), -1, *a), id="negative-candidate"),
    pytest.param(lambda *a: is_simplex((0, 0), 2, *a), id="repeated-in-sigma"),
    pytest.param(lambda *a: is_simplex((0, 6), 2, *a), id="sigma-past-the-end"),
    pytest.param(lambda *a: is_simplex((), 2, *a), id="empty-sigma"),
    pytest.param(
        lambda o, p, s: compute_indegree((7,), (1, 0, 0), 1, {}, o, p, s),
        id="indegree-past-the-end",
    ),
    pytest.param(
        lambda o, p, s: compute_indegree((0, 0), (1, 0, 0), 2, {}, o, p, s),
        id="indegree-repeated",
    ),
]


@pytest.mark.parametrize("call", BAD_IDS)
def test_bad_vertex_ids_are_invalid_input_before_any_query(call):
    """An id outside the vertex range, negative, repeated or missing is
    InvalidInput, raised before the predicate or the indegree asks the
    oracle anything."""
    K = generate_complex(GeneratorConfig(3, 6, 2, densities=[0.7, 0.6], seed=7))
    assert len(K.vertices) == 6
    oracle = Oracle(K)
    with pytest.raises(InvalidInput):
        call(oracle, *scaled_points(K))
    assert oracle.log.count == 0


PRECONDITIONS = [
    pytest.param(
        lambda o, p, s: compute_indegree((0, 1), (0, 0, 1), 1, {}, o, p, s),
        "k must exceed",
        0,
        id="indegree-k-at-most-dim-sigma",
    ),
    pytest.param(
        lambda o, p, s: is_simplex((0, 1), 1, o, p, s),
        "already in the simplex",
        0,
        id="candidate-already-in-sigma",
    ),
    pytest.param(
        lambda o, p, s: compute_indegree((0, 1), (1, 0, 0), 2, {}, o, p, s),
        "not constant on the simplex",
        1,
        id="direction-not-constant-on-sigma",
    ),
]


@pytest.mark.parametrize("call, message, queries", PRECONDITIONS)
def test_broken_preconditions_raise_precondition_violated(call, message, queries):
    """An indegree of k at most sigma's dimension and a candidate already in
    sigma raise PreconditionViolated before any query; a direction not
    constant on sigma is found after the one query of its level count."""
    K = generate_complex(GeneratorConfig(3, 6, 2, densities=[0.7, 0.6], seed=7))
    points, scale = scaled_points(K)
    assert points[0][0] != points[1][0]
    oracle = Oracle(K)
    with pytest.raises(PreconditionViolated, match=message) as caught:
        call(oracle, points, scale)
    assert caught.type is PreconditionViolated
    assert oracle.log.count == queries


class OtherComplexOracle:
    """Answers every query with the diagram of another complex."""

    def __init__(self, other):
        self.other = other

    def query(self, direction):
        return compute_apd(self.other, direction)


def test_indegree_off_the_grid_is_an_oracle_inconsistency():
    """A simplex height that is no level of the answer cannot come from the
    recovered complex, whose every vertex is an event at its own height: it
    raises OracleInconsistency, not the precondition error of a shared
    height."""
    K = cx(2, [(0, 0), (1, 3)], [])
    other = cx(2, [(0, 1), (1, 5)], [])  # heights 1 and 5 under e2, not 0
    stub = OtherComplexOracle(other)
    with pytest.raises(OracleInconsistency, match="off the grid"):
        compute_indegree((0,), (0, 1), 1, {}, stub, *scaled_points(K))
    assert compute_indegree((0,), (0, 1), 1, {}, Oracle(K), *scaled_points(K)) == 0


def test_indegree_matches_bruteforce_random():
    """The k-indegree of every simplex of 1 to 4 vertices, in the coface
    dimension one above, on both sides of its isolating direction: vertices
    and edges of d = 4, kappa = 2 complexes, and triangles and tetrahedra of
    d = 5, kappa = 4 ones, whose 3 and 7 pairs of a face and its complement
    share one plane-filling solve each."""
    cases = [
        (GeneratorConfig(4, 6, 2, densities=[0.7, 0.7], seed=seed), (0, 1))
        for seed in range(4)
    ] + [
        (GeneratorConfig(5, 6, 4, densities=[1.0, 1.0, 0.9, 0.9], seed=seed), (2, 3))
        for seed in range(3)
    ]
    values = {1: [], 2: [], 3: [], 4: []}
    for cfg, dims in cases:
        K = generate_complex(cfg)
        oracle = Oracle(K)
        points, scale = scaled_points(K)
        for sigma in K.simplices_of_dim(dims[0]) + K.simplices_of_dim(dims[1]):
            k = len(sigma)  # test the coface dimension one above
            s, _ = _isolating_direction(sigma, points)
            for direction in (s, vneg(s)):
                got = compute_indegree(sigma, direction, k, {}, oracle, points, scale)
                assert got == brute_coface_count(K, sigma, direction, k)
                values[k].append(got)
    assert len(values[1]) + len(values[2]) >= 2 * 40
    for k in (3, 4):
        assert len(values[k]) >= 10 and 0 in values[k] and max(values[k]) >= 2


# ---------------------------------------------------------------------------
# simplex predicate


def test_is_simplex_full_triangle():
    K = cx(3, [(0, 0, 0), (1, 2, 1), (2, 1, -1)], [(0, 1, 2)])
    oracle = Oracle(K)
    assert is_simplex((0, 1), 2, oracle, *scaled_points(K)) is True


def test_is_simplex_hollow_triangle():
    K = cx(3, [(0, 0, 0), (1, 2, 1), (2, 1, -1)], [(0, 1), (0, 2), (1, 2)])
    oracle = Oracle(K)
    assert is_simplex((0, 1), 2, oracle, *scaled_points(K)) is False


def test_is_simplex_wedge_discriminates():
    # edge [0,1] with two nearby vertices; only vertex 3 closes a triangle
    K = cx(
        3,
        [(0, 0, 0), (1, 2, 1), (2, 1, -1), (3, -1, 2), (4, 4, 4)],
        [(0, 1, 3), (0, 2), (1, 2), (2, 4)],
    )
    oracle = Oracle(K)
    points, scale = scaled_points(K)
    assert is_simplex((0, 1), 2, oracle, points, scale) is False
    assert is_simplex((0, 1), 3, oracle, points, scale) is True
    assert is_simplex((0, 2), 4, oracle, points, scale) is False


def test_is_simplex_query_budget():
    K = kindegree_figure_complex()
    points, scale = scaled_points(K)
    for sigma, v, k in [((0, 1), 2, 2), ((0, 1, 2), 3, 3)]:
        oracle = Oracle(K)
        is_simplex(sigma, v, oracle, points, scale)
        assert oracle.log.count == 2 * (2**k - 1)


def test_is_simplex_logs_one_span_per_call():
    K = kindegree_figure_complex()
    points, scale = scaled_points(K)
    oracle = Oracle(K)
    is_simplex((0, 1), 2, oracle, points, scale)
    is_simplex((0, 1, 2), 3, oracle, points, scale)
    assert oracle.log.predicate_calls == [(2, 6), (3, 14)]


def test_is_simplex_raises_on_affinely_dependent_candidate():
    K = cx(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 1)])
    oracle = Oracle(K)
    with pytest.raises(DegeneratePosition):
        is_simplex((0, 1), 2, oracle, *scaled_points(K))
    assert oracle.log.count == 0
    assert oracle.log.predicate_calls == []


def test_is_simplex_agrees_with_membership_random():
    for seed in range(3):
        K = generate_complex(
            GeneratorConfig(4, 6, 2, densities=[0.6, 0.6], seed=seed + 40)
        )
        oracle = Oracle(K)
        points, scale = scaled_points(K)
        for sigma in K.simplices_of_dim(1):
            for v in range(len(points)):
                if v in sigma:
                    continue
                expected = tuple(sorted(sigma + (v,))) in K.simplices
                assert is_simplex(sigma, v, oracle, points, scale) is expected


def test_indegree_recursion_isolates_faces():
    """Every face value of the inclusion-exclusion is the true coface count
    of its face in the direction the oracle was asked for it.

    After sigma's own direction the log holds one tilted direction per
    proper face, in ``proper_faces`` order.  The tilt must make exactly the
    cofaces meeting sigma's level in that face contribute, so each face's
    ``memo`` value must equal the brute-force count in its logged direction.
    """

    def checked_faces(K, sigma, direction, k, oracle, points, scale):
        memo = {}
        start = oracle.log.count
        value = compute_indegree(sigma, direction, k, memo, oracle, points, scale)
        assert value == brute_coface_count(K, sigma, direction, k)
        logged = oracle.log.directions[start:]
        assert logged[0] == tuple(direction)
        faces = proper_faces(sigma)
        assert list(memo) == faces and len(logged) == 1 + len(faces)
        for tau, tilted in zip(faces, logged[1:]):
            assert memo[tau] == brute_coface_count(K, tau, tilted, k)
        return len(logged)

    K = kindegree_figure_complex()
    oracle = Oracle(K)
    points, scale = scaled_points(K)
    values = checked_faces(K, (0, 1, 2), (0, 0, 0, 1), 3, oracle, points, scale)
    assert values == 7  # the root plus one value per proper face

    K2 = generate_complex(GeneratorConfig(4, 6, 2, densities=[0.7, 0.7], seed=50))
    oracle2 = Oracle(K2)
    points2, scale2 = scaled_points(K2)
    edge = K2.simplices_of_dim(1)[0]
    for v in range(len(points2)):
        if v not in edge:
            is_simplex(edge, v, oracle2, points2, scale2)
    # each call's span of 6: one wedge direction and its 2 faces, twice
    wedges = oracle2.log.directions[::3]
    checker = Oracle(K2)
    values = sum(
        checked_faces(K2, edge, s, 2, checker, points2, scale2) for s in wedges
    )
    assert values > 10


# ---------------------------------------------------------------------------
# lifted predicate and drivers


def lifted_points(K):
    return scale_to_integers([lift_point(p) for p in id_points(K)])


def test_is_simplex_via_lift_filled_vs_hollow(filled_triangle_r2, hollow_triangle_r2):
    filled = filled_triangle_r2
    assert (
        is_simplex((0, 1), 2, Oracle(lift(filled)), *lifted_points(filled)) is True
    )
    hollow = hollow_triangle_r2
    assert (
        is_simplex((0, 1), 2, Oracle(lift(hollow)), *lifted_points(hollow)) is False
    )


def test_lift_point_matches_lift():
    K = cx(2, [(F(1, 2), F(1, 3)), (3, -2)], [(0, 1)])
    lifted = lift(K)
    for vid, p in K.vertices.items():
        assert lift_point(p) == lifted.vertices[vid]


def test_reconstruct_filled_triangle_in_r3():
    K = cx(3, [(0, 0, 0), (1, 2, 1), (2, 1, -1)], [(0, 1, 2)])
    oracle = Oracle(K)
    recovered = reconstruct(oracle)
    assert complexes_match(recovered, K)


def test_reconstruct_point_cloud_stops_after_edges():
    K = generate_complex(GeneratorConfig(3, 5, 0, densities=[], seed=3))
    oracle = Oracle(K)
    recovered = reconstruct(oracle)
    assert complexes_match(recovered, K)
    assert oracle.log.predicate_calls == []


def test_reconstruct_filled_triangle_in_r2(filled_triangle_r2):
    recovered = reconstruct(Oracle(filled_triangle_r2))
    assert complexes_match(recovered, filled_triangle_r2)


def test_reconstruct_glued_triangles_in_r2():
    K = cx(2, [(0, 0), (1, 2), (2, 1), (3, 3)], [(0, 1, 2), (1, 2, 3)])
    recovered = reconstruct(Oracle(K))
    assert complexes_match(recovered, K)
    assert len(recovered.simplices_of_dim(2)) == 2


def test_reconstruct_mixed_complex_lifts_only_where_needed(monkeypatch):
    # one filled triangle [0,1,2]; [1,2,3] and [2,3,4] are hollow cycles
    K = cx(
        2,
        [(0, 0), (1, 2), (2, 1), (3, 3), (4, 0)],
        [(0, 1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
    )
    # Two hollow cycles are closure-eligible too, but once [0,1,2] is found
    # vertex 0 bottoms no other triangle and vertices 1 and 2 bottom none, so
    # neither is tested.
    tested, calls = record_candidates(monkeypatch, K)
    assert K.simplices_of_dim(2) == [(0, 1, 2)]
    assert calls == [(2, 6)]
    assert tested == [c for _, c in count_rejection_replay(K, ledger_directions(K))]
    assert tested == [frozenset(K.vertices[v] for v in (0, 1, 2))]
    assert len(closure_eligible(K, 3)) == 3


def test_reconstruct_without_d_simplices_makes_no_lifted_call():
    for seed in range(3):
        K = generate_complex(
            GeneratorConfig(
                3, 6, 1, densities=[0.5], seed=seed, lift_general_position=True
            )
        )
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        # no 3-simplex in the sweep diagram, so no lifted call
        assert all(k < 3 for k, _ in oracle.log.predicate_calls)


# ---------------------------------------------------------------------------
# closure pruning of the higher stage


def closure_eligible(K, size):
    """Vertex sets of the given size whose facets are all in K, by position."""
    return {
        frozenset(K.vertices[v] for v in cand)
        for cand in combinations(sorted(K.vertices), size)
        if all(f in K.simplices for f in combinations(cand, size - 1))
    }


def ledger_directions(K):
    """The directions of the count ledger of a reconstruction of K, the
    sweep direction first: the vertex stage's and the edge stage's in -u1."""
    _, frame, ledger = vertex_stage(Oracle(K))
    return [dgm.direction for dgm in ledger.diagrams] + [vneg(frame.u1)]


def record_candidates(monkeypatch, K):
    """Run reconstruct, recording each candidate the predicate is asked about.

    The stages number vertices in their own order, so a candidate is
    recorded as its set of vertex positions (lifted points cut back to R^d),
    divided back by the scale of the integer points the predicate gets.
    """
    import apdrec.higher as higher_mod

    real = higher_mod.is_simplex
    d = K.ambient_dim
    tested = []

    def recording(sigma, vertex, oracle, points, scale):
        tested.append(
            frozenset(
                tuple(F(x, scale) for x in points[v][:d]) for v in sigma + (vertex,)
            )
        )
        return real(sigma, vertex, oracle, points, scale)

    monkeypatch.setattr(higher_mod, "is_simplex", recording)
    oracle = Oracle(K)
    recovered = reconstruct(oracle)
    monkeypatch.undo()
    assert complexes_match(recovered, K)
    assert len(tested) == len(set(tested)), "a candidate was tested twice"
    return tested, oracle.log.predicate_calls


def test_higher_stage_tests_exactly_the_closure_eligible_candidates(monkeypatch):
    """The tested candidates, in order, are those of a replay of the closure
    and count rules, over the true complex and every direction of the count
    ledger, and all are closure-eligible.  The d = 3 scale complex holds
    candidates tested past a full level, as a found triangle sits at their
    level in every diagram."""
    from test_acceptance import _trial_configs

    configs = [c for c in _trial_configs() if c.max_dim >= 2][::4]
    assert {c.ambient_dim for c in configs} == {3, 4, 5}
    configs.append(GeneratorConfig(3, 25, 2, densities=[0.5, 0.6], seed=7))
    rejected = 0
    for cfg in configs:
        K = generate_complex(cfg)
        d = cfg.ambient_dim
        tested, calls = record_candidates(monkeypatch, K)
        replay = count_rejection_replay(K, ledger_directions(K))
        assert tested == [c for _, c in replay]
        assert [k for k, _ in calls] == [k for k, _ in replay]
        eligible = set().union(*(closure_eligible(K, k + 1) for k in range(2, d)))
        assert set(tested) <= eligible
        rejected += len(eligible) - len(tested)
        assert all(k < d for k, _ in calls)  # no lifted call
    assert rejected > 0  # the counts do reject candidates here


def test_no_candidate_the_counts_skip_is_a_simplex(monkeypatch):
    """Over all 50 acceptance configs and the scale corpus, every
    closure-eligible candidate that the higher stage leaves untested is no
    simplex of the true complex, found by enumeration: the counts skip only
    candidates that a test would reject."""
    from test_acceptance import _trial_configs

    configs = list(_trial_configs())
    configs += [
        GeneratorConfig(d, n0, 2, densities=[0.5, 0.6], seed=7)
        for d, n0, *_ in SCALE_CORPUS
    ]
    skipped = 0
    for cfg in configs:
        K = generate_complex(cfg)
        tested, _ = record_candidates(monkeypatch, K)
        truth = {
            frozenset(K.vertices[v] for v in s) for s in K.simplices if len(s) > 2
        }
        eligible = set().union(
            *(closure_eligible(K, k) for k in range(3, K.ambient_dim + 2))
        )
        untested = eligible - set(tested)
        assert not untested & truth
        skipped += len(untested)
    assert skipped > 0


def test_lifted_pass_tests_exactly_the_closure_eligible_candidates(monkeypatch):
    K = generate_complex(
        GeneratorConfig(
            2, 7, 2, densities=[0.6, 0.6], seed=5, lift_general_position=True
        )
    )
    tested, calls = record_candidates(monkeypatch, K)
    replay = count_rejection_replay(K, ledger_directions(K))
    # d = 2 has no standard higher stage: every call is a lifted one
    assert calls and all(k == 2 for k, _ in calls)
    assert tested == [c for _, c in replay]
    assert set(tested) <= closure_eligible(K, 3)


def test_hollow_facet_tetrahedron_is_never_tested(monkeypatch):
    # Triangle [1,2,3] is missing, so [0,1,2,3] has an absent facet;
    # [0,1,2,4] is the one tetrahedron left for the k=3 predicate.
    K = cx(
        4,
        [(0, 0, 0, 0), (1, 3, 1, 2), (2, 1, -1, 3), (3, 4, 2, -1), (4, -2, 3, 1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 4)],
    )
    tested, _ = record_candidates(monkeypatch, K)
    tetrahedra = [c for c in tested if len(c) == 4]
    assert tetrahedra == [frozenset(K.vertices[v] for v in (0, 1, 2, 4))]


# triangle [0,1,2] in sweep order: vertex 2 tops it and vertex 0 bottoms it
TRIANGLE_R3 = [(0, 0, 0), (1, 2, 1), (2, 1, -1)]
TRIANGLE_R2 = [(0, 0), (F(1, 2), 1), (1, 0)]  # reached by the lifted pass


@pytest.mark.parametrize("points", [TRIANGLE_R3, TRIANGLE_R2], ids=["r3", "lifted"])
@pytest.mark.parametrize(
    "sign, vertex, delta",
    [(1, 1, 1), (1, 2, -1), (-1, 1, 1), (-1, 0, -1)],
    ids=["top-extra", "top-missing", "bottom-extra", "bottom-missing"],
)
def test_a_wrong_simplex_count_raises(points, sign, vertex, delta):
    """A sweep diagram that miscounts the triangles a vertex tops or bottoms
    makes the higher stage raise, whether the count has it test too much or
    reject the one triangle untested."""
    K = cx(len(points[0]), points, [(0, 1, 2)])
    d = K.ambient_dim
    direction = (sign,) + (0,) * (d - 1)
    height = sign * F(points[vertex][0])
    oracle = TamperedOracle(K, direction, 2, height, delta)
    with pytest.raises(OracleInconsistency):
        reconstruct(oracle)
    assert complexes_match(reconstruct(Oracle(K)), K)


def test_a_count_above_the_last_found_dimension_raises():
    """A sweep count in a dimension with no candidates left is still checked.

    The path has no triangle, so no 2-simplex is found and no 3-simplex can
    be a candidate; the e1 diagram claiming a tetrahedron topped by vertex 3
    must raise all the same, at no predicate query.
    """
    K = cx(
        4,
        [(0, 0, 0, 0), (1, 2, 1, 3), (2, -1, 3, 1), (3, 1, -2, 2)],
        [(0, 1), (1, 2), (2, 3)],
    )
    oracle = TamperedOracle(K, (1, 0, 0, 0), 3, F(3), +1)
    with pytest.raises(OracleInconsistency):
        reconstruct(oracle)
    assert oracle.log.predicate_calls == []
    assert complexes_match(reconstruct(Oracle(K)), K)


# ---------------------------------------------------------------------------
# one wrong predicate answer


def predicate_directions(K):
    """The distinct directions that a reconstruction of K asks inside its
    predicate spans, in the order first asked."""
    oracle = Oracle(K)
    assert complexes_match(reconstruct(oracle), K)
    directions = iter(oracle.log.directions)
    asked = []
    for label, queries in oracle.log.spans:
        span = [next(directions) for _ in range(queries)]
        if isinstance(label, int):
            asked += span
    return list(dict.fromkeys(asked))


def wrong_complexes(K, k, directions):
    """Every (direction, height, delta) whose k-simplex count moved by delta
    at that height, in that direction alone, makes the reconstruction of K
    return a wrong complex without raising.  A typed error or the exact
    complex is a good outcome; any other exception propagates."""
    silent = []
    for direction in directions:
        for height in Oracle(K).query(direction).levels:
            for delta in (1, -1):
                oracle = TamperedOracle(K, direction, k, height, delta)
                try:
                    recovered = reconstruct(oracle)
                except ApdrecError:
                    continue
                if not complexes_match(recovered, K):
                    silent.append((direction, height, delta))
    return silent


def corpus_complex(index):
    from test_acceptance import _trial_configs

    return generate_complex(_trial_configs()[index])


# acceptance config 17 (d = 3, n0 = 6, seed 1017): the first direction of its
# second k = 2 predicate call, and the level of the triangles it counts
CONFIG_17_FAULT = (
    (-1258747618700, 13816869048273, 5045116415013),
    F(492503300801621, 16),
)


@pytest.mark.parametrize("delta", [1, -1])
def test_one_wrong_predicate_count_raises(delta):
    """A triangle count moved by one in one predicate answer flips that
    verdict: a false triangle, (0, 1, 5) in sweep ids, is found and the
    true one that shares its lowest and its highest vertex, (0, 4, 5), is
    rejected untested by the sweep counts, which the exchange keeps.  A
    vertex-stage diagram in which the middle vertices top the two triangles
    sees it, and the count check raises."""
    K = corpus_complex(17)
    direction, height = CONFIG_17_FAULT
    assert direction in predicate_directions(K)
    with pytest.raises(OracleInconsistency):
        reconstruct(TamperedOracle(K, direction, 2, height, delta))


@pytest.mark.parametrize("delta", [1, -1])
def test_one_wrong_count_of_the_lifted_pass_raises(delta):
    """The tamper reaches the lifted pass: in the CLI's lifted example,
    whose three tetrahedra come back through ``oracle.lifted()``, the first
    lifted answer with its tetrahedron count moved by one at its top level,
    the level of the triangle whose indegree it reads, flips a verdict, and
    the count check raises."""
    K = generate_complex(
        GeneratorConfig(3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2,
                        lift_general_position=True)
    )
    oracle = Oracle(K)
    reconstruct(oracle)
    direction = next(s for s in oracle.log.directions if len(s) == 4)
    height = Oracle(K).lifted().query(direction).levels[-1]
    with pytest.raises(OracleInconsistency, match="3-simplices"):
        reconstruct(TamperedOracle(K, direction, 3, height, delta))


@pytest.mark.parametrize("index", [5, 17, 20])
def test_no_single_wrong_triangle_count_returns_a_wrong_complex(index):
    """The single-fault slice: every direction a predicate call asks, with
    its triangle count moved by one, up or down, at every level, ends in a
    typed error or in the exact complex.  Configs 5 (d = 3) and 20 (d = 4,
    seed 2002) each had 12 such faults that returned a wrong complex before
    the count check.  Config 17 (d = 3) has 12 that return one when a
    candidate that only a diagram other than the sweeps rejects goes
    untested although a found triangle sits at its level in every diagram:
    the false (0, 1, 5) takes the place of the true (0, 2, 5)."""
    K = corpus_complex(index)
    assert wrong_complexes(K, 2, predicate_directions(K)) == []


# acceptance config 11 (d = 3, n0 = 9, seed 1011): a k = 2 predicate answer
# whose shifted count makes the stage find (0, 5, 6) in place of (1, 5, 6),
# generator ids, which no diagram of the count check tells apart
CONFIG_11_FAULT = (
    (-18064631046939, 7542345870271, 544008427458),
    F(-1124732976576489, 32),
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: only a check of every answer received catches it",
)
def test_a_wrong_triangle_count_the_count_check_misses():
    """Config 11 holds 12 single faults that still return a wrong complex,
    six predicate directions shifted by one up and down, all the same
    exchange; this is one.  It is kept out of the single-fault slice only
    because that slice takes about half a minute on this config."""
    K = corpus_complex(11)
    direction, height = CONFIG_11_FAULT
    try:
        recovered = reconstruct(TamperedOracle(K, direction, 2, height, 1))
    except OracleInconsistency:
        return
    assert complexes_match(recovered, K)


def test_the_simplex_predicate_builds_no_fraction(monkeypatch):
    """Every is_simplex call runs on ints: while reconstructing acceptance
    configs 2, 32 and 39 (k = 2 and k = 3 calls) and the lifted d = 3
    config, no Fraction is constructed inside the predicate, though the
    vertex stage builds them outside it."""
    import apdrec.higher as higher_mod

    from test_acceptance import _trial_configs

    inside, built, outside = [0], [0], [0]
    real_new = Fraction.__new__
    real_is_simplex = higher_mod.is_simplex

    def counting_new(cls, *args, **kwargs):
        if inside[0]:
            built[0] += 1
        else:
            outside[0] += 1
        return real_new(cls, *args, **kwargs)

    def watched_is_simplex(*args):
        inside[0] += 1
        try:
            return real_is_simplex(*args)
        finally:
            inside[0] -= 1

    corpus = _trial_configs()
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    complexes = [generate_complex(corpus[i]) for i in (2, 32, 39)]
    complexes.append(generate_complex(lifted))
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(higher_mod, "is_simplex", watched_is_simplex)
    calls = []
    for K in complexes:
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        calls += [(K.ambient_dim, k) for k, _ in oracle.log.predicate_calls]
        assert built == [0]
    assert (3, 2) in calls and (3, 3) in calls  # the lifted pass, k == d
    assert any(k == 3 and d > 3 for d, k in calls)
    assert outside[0] > 0  # the counter sees the vertex stage's Fractions


# ---------------------------------------------------------------------------
# the query log, pinned


# acceptance-corpus positions: d = 3 (2, 8, 17), d = 4 (20, 27, 32 with one
# k = 3 call), d = 5 (36, 39 with three k = 3 calls, 45)
PINNED_SLICE = [2, 8, 17, 20, 27, 32, 36, 39, 45]
# the slice plus the lifted config: the log of the rational geometry with the
# spans of the candidates that the per-vertex counts reject taken out, and
# the edge splits that free cuts decide taken out
PINNED_LOG_SHA256 = "e2eca11df07d4753b86b9e3590a40a0677915f36b8fd50869ef71586d1214c8f"


def test_query_log_of_a_corpus_slice_is_pinned():
    """Same queries, in the same spans and order, as the rational geometry
    asks for the candidates that the counts leave to test.

    The digest covers every span and every direction asked while
    reconstructing nine acceptance configs and one lifted d = 3 config, in
    that order.  It was recorded after checking that the log equals the one
    of the higher stage on Fraction coordinates, less exactly the spans of
    the candidates that the count rule rejects, and re-recorded after
    checking that free cuts leave every span but "edges" and every
    direction outside it as they were, and the "edges" span no longer.
    Each direction is hashed as its ray, in primitive integer form
    (``ray_text``): a diagram depends only on the ray of its direction.
    It was re-recorded, checked as the whole corpus's pin was, when the
    higher stage read every ledger diagram and the edge stage the
    vertex-stage cuts.
    """
    import hashlib

    from test_acceptance import _trial_configs

    corpus = _trial_configs()
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    configs = [corpus[i] for i in PINNED_SLICE] + [lifted]
    digest = hashlib.sha256()
    calls = []
    for cfg in configs:
        K = generate_complex(cfg)
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        calls += [(cfg.ambient_dim, k) for k, _ in oracle.log.predicate_calls]
        digest.update(repr(oracle.log.spans).encode())
        for direction in oracle.log.directions:
            digest.update(ray_text(direction))
    assert {d for d, _ in calls} == {3, 4, 5}
    assert (3, 3) in calls  # the lifted pass, k == d
    assert any(k == 3 and d > 3 for d, k in calls)
    assert digest.hexdigest() == PINNED_LOG_SHA256


def test_a_reconstruction_asks_only_integer_directions():
    """Every direction in the query log is a tuple of ints, in every stage:
    on the pinned corpus slice, the lifted config, and the fallback-basis
    complex, whose vertex stage tilts its frame and whose edge stage splits
    in it."""
    from test_acceptance import _trial_configs
    from test_harness import fallback_basis_complex

    corpus = _trial_configs()
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    complexes = [generate_complex(corpus[i]) for i in PINNED_SLICE]
    complexes += [generate_complex(lifted), fallback_basis_complex()]
    for K in complexes:
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        for direction in oracle.log.directions:
            assert type(direction) is tuple
            assert all(type(x) is int for x in direction), direction


# the scale corpus: (d, n0, vertex, edge and higher-stage queries), each
# generated with seed 7, kappa 2 and densities 0.5, 0.6
SCALE_CORPUS = [(3, 25, 5, 65, 1878), (4, 20, 7, 36, 498)]
# every span and direction of the 50 acceptance configs, then the scale corpus
CORPUS_LOG_SHA256 = "51f1c991e484d63f1f020d824be7d727668132956c01d87efd71d4629ad1f0f8"


def test_query_log_of_the_whole_corpus_is_pinned():
    """Every span and every direction asked while reconstructing all 50
    acceptance configs, in corpus order, and then the two scale-corpus
    complexes, whose stage query counts are also checked.  The digest was
    recorded before the higher stage derived each face's complement from
    the face's own plane-filling solve, so the shared solve asks what the
    separate solves asked.  Each direction is hashed as its ray
    (``ray_text``), and the digest was recorded so before the vertex and
    edge stages asked their directions as ints, which kept every ray.  It
    was re-recorded once the higher stage read every ledger diagram and the
    edge stage the vertex-stage cuts, after checking that every "vertices"
    span was as before, every "edges" span began with the same -u1 query,
    and the predicate spans were the old ones less whole spans."""
    import hashlib

    from test_acceptance import _trial_configs

    configs = list(_trial_configs())
    configs += [
        GeneratorConfig(d, n0, 2, densities=[0.5, 0.6], seed=7)
        for d, n0, *_ in SCALE_CORPUS
    ]
    digest = hashlib.sha256()
    stage_counts = []
    for cfg in configs:
        K = generate_complex(cfg)
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        log = oracle.log
        stage_counts.append(
            (log.queries("vertices"), log.queries("edges"),
             sum(q for _, q in log.predicate_calls))
        )
        digest.update(repr(log.spans).encode())
        for direction in log.directions:
            digest.update(ray_text(direction))
    assert stage_counts[-2:] == [tuple(spec[2:]) for spec in SCALE_CORPUS]
    assert digest.hexdigest() == CORPUS_LOG_SHA256


def test_reconstruction_builds_no_diagram_point(monkeypatch):
    """The stages read diagrams only through their event tables, so a full
    reconstruction never constructs a DiagramPoint: not on acceptance
    configs with k = 2 and k = 3 predicate calls, not in the lifted pass and
    not on the fallback basis."""
    import apdrec.oracle as oracle_mod

    from test_acceptance import _trial_configs
    from test_harness import fallback_basis_complex

    built = []
    real_point = oracle_mod.DiagramPoint

    def counting_point(*args):
        built.append(args)
        return real_point(*args)

    monkeypatch.setattr(oracle_mod, "DiagramPoint", counting_point)
    corpus = _trial_configs()
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    complexes = [generate_complex(corpus[i]) for i in (2, 20, 39)]
    complexes += [generate_complex(lifted), fallback_basis_complex()]
    calls = []
    for K in complexes:
        oracle = Oracle(K)
        assert complexes_match(reconstruct(oracle), K)
        calls += [(K.ambient_dim, k) for k, _ in oracle.log.predicate_calls]
        assert built == []
    assert (3, 2) in calls and (3, 3) in calls  # the lifted pass, k == d
    assert any(k == 3 and d > 3 for d, k in calls)
    # reading the points of one of those diagrams goes through the counter
    dgm = oracle.query(oracle.log.directions[-1])
    assert len(dgm.points) == len(built) > 0
