import hashlib
from fractions import Fraction

import pytest

from apdrec import (
    GenerationFailure,
    GeneratorConfig,
    build_complex,
    complexes_match,
    edge_query_bound,
    generate_complex,
    serialize_complex,
    validate_general_position,
    verify_roundtrip,
)

from conftest import cx


def test_density_one_gives_full_skeleton():
    K = generate_complex(GeneratorConfig(3, 4, 2, densities=[1.0, 1.0], seed=1))
    assert K.n_k(0) == 4 and K.n_k(1) == 6 and K.n_k(2) == 4
    assert K.kappa == 2


def test_density_zero_gives_point_cloud():
    K = generate_complex(GeneratorConfig(3, 5, 2, densities=[0.0, 0.0], seed=1))
    assert K.kappa == 0 and K.n == 5


def test_generator_respects_general_position():
    for seed in range(10):
        K = generate_complex(GeneratorConfig(4, 9, 1, densities=[0.4], seed=seed))
        assert validate_general_position(K).ok


def test_generator_deterministic_per_seed():
    cfg = GeneratorConfig(3, 7, 2, densities=[0.6, 0.5], seed=123)
    a = serialize_complex(generate_complex(cfg))
    b = serialize_complex(generate_complex(cfg))
    assert a == b
    c = serialize_complex(
        generate_complex(GeneratorConfig(3, 7, 2, densities=[0.6, 0.5], seed=124))
    )
    assert a != c


def pinned_generator_configs():
    """The acceptance corpus, the 40 benchmark graphs and the lifted test configs."""
    from test_acceptance import _trial_configs

    graphs = [
        GeneratorConfig(2, 14 + i % 10, 1, densities=[0.3], seed=4000 + i)
        for i in range(40)
    ]
    lifted = [
        GeneratorConfig(3, 6, 1, densities=[0.5], seed=s, lift_general_position=True)
        for s in (0, 1, 2, 70, 71, 72)
    ]
    lifted += [
        GeneratorConfig(2, 7, 2, densities=[0.6, 0.6], seed=5, lift_general_position=True),
        GeneratorConfig(
            3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
        ),
    ]
    return _trial_configs() + graphs + lifted


def test_generator_output_bytes_are_pinned():
    """The generator's serialized output over 98 configs, hashed; the digest
    was recorded from the Fraction-checking generator the integer one
    replaced."""
    digest = hashlib.sha256()
    for cfg in pinned_generator_configs():
        digest.update(serialize_complex(generate_complex(cfg)).encode())
    assert digest.hexdigest() == "ba34520a33b153e55ad6a4a6a8a6b087af1949e2f06b6293458ac0b51de17742"


def test_generator_validates_config():
    from apdrec import InvalidInput

    with pytest.raises(InvalidInput):
        generate_complex(GeneratorConfig(3, 5, 4, densities=[0.5], seed=0))
    with pytest.raises(InvalidInput):
        generate_complex(GeneratorConfig(3, 5, 2, densities=[1.5], seed=0))
    with pytest.raises(InvalidInput):
        generate_complex(GeneratorConfig(3, 5, -1, densities=[0.5], seed=0))


def test_generator_fails_when_grid_exhausted():
    # denominator bound 1 leaves nine integer first coordinates in [-4, 4],
    # so all nine are used, and no four lifted points (x, y, x^2 + y^2) may
    # be affinely dependent (no four cocircular or three collinear points)
    with pytest.raises(GenerationFailure):
        generate_complex(
            GeneratorConfig(
                2, 9, 0, densities=[], seed=0, coordinate_denominator_bound=1,
                lift_general_position=True,
            )
        )


def test_generator_rejects_more_vertices_than_first_coordinates():
    """n0 > 8 * bound + 1 vertices cannot have distinct first coordinates in
    [-4 * bound, 4 * bound]; the config check says so before any draw."""
    from apdrec import InvalidInput

    with pytest.raises(InvalidInput, match="distinct first coordinates"):
        generate_complex(
            GeneratorConfig(
                2, 10, 0, densities=[], seed=0, coordinate_denominator_bound=1
            )
        )
    with pytest.raises(InvalidInput, match="denominator bound 64 leaves 513"):
        generate_complex(GeneratorConfig(2, 600, 0, densities=[], seed=0))
    K = generate_complex(
        GeneratorConfig(2, 9, 0, densities=[], seed=0, coordinate_denominator_bound=1)
    )
    assert sorted(p[0] for p in K.vertices.values()) == list(range(-4, 5))


def scale_generator_configs():
    """The dense benchmark complex, the two scale-corpus configs and two
    larger planar graphs."""
    return [
        GeneratorConfig(3, 24, 3, densities=[0.8], seed=0),
        GeneratorConfig(3, 25, 2, densities=[0.5, 0.6], seed=7),
        GeneratorConfig(4, 20, 2, densities=[0.5, 0.6], seed=7),
        GeneratorConfig(2, 60, 1, densities=[0.15], seed=1),
        GeneratorConfig(2, 120, 1, densities=[0.05], seed=1),
    ]


def test_generator_scale_output_bytes_are_pinned():
    """The generator's serialized output over the larger configs, hashed;
    the digest was recorded from the generator that ran one rank test per
    subset."""
    digest = hashlib.sha256()
    for cfg in scale_generator_configs():
        digest.update(serialize_complex(generate_complex(cfg)).encode())
    assert digest.hexdigest() == "520a2af4d141d47201674d837952f5ca0dbc0bd49fb56bbcd7a07b95b3590303"


def test_generator_cost_is_one_hyperplane_per_subset(monkeypatch):
    """Planar graphs need no rank test and no hyperplane; the dense complex
    builds at most one hyperplane per 3-subset of its 24 vertices, and rank
    tests only while fewer than 3 vertices are accepted."""
    from math import comb

    import apdrec.complexes as complexes
    import apdrec.geometry as geometry

    calls = {"_rref": 0, "affine_hyperplane": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "_rref")
    counted(complexes, "affine_hyperplane")
    for i in range(40):
        generate_complex(GeneratorConfig(2, 14 + i % 10, 1, densities=[0.3], seed=4000 + i))
    assert calls == {"_rref": 0, "affine_hyperplane": 0}
    generate_complex(GeneratorConfig(3, 24, 3, densities=[0.8], seed=0))
    assert 0 < calls["affine_hyperplane"] <= comb(24, 3)
    assert calls["_rref"] == 2  # the candidates at i = 1, 2, neither rejected


def test_verify_tetrahedron_boundary_in_r4():
    K = cx(
        4,
        [(0, 0, 0, 1), (1, 2, 0, 0), (2, 1, 1, 0), (3, 3, -1, 1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    report = verify_roundtrip(K)
    assert report.exact_match
    assert report.vertex_queries == 2 * 4 - 1 == 7
    assert report.all_bounds_ok


def test_verify_filled_triangle_in_r2(filled_triangle_r2):
    report = verify_roundtrip(filled_triangle_r2)
    assert report.exact_match
    assert any(k == 2 for k, _ in report.predicate_calls)  # the d-stage ran


def assert_ledger_adds_up(report):
    predicate_queries = sum(q for _, q in report.predicate_calls)
    assert report.total_queries == (
        report.vertex_queries + report.edge_queries + predicate_queries
    )


def test_accounting_identity_standard_run():
    from test_acceptance import _trial_configs

    cfg = next(c for c in _trial_configs() if c.max_dim >= 2)
    report = verify_roundtrip(generate_complex(cfg))
    assert report.exact_match and report.all_bounds_ok
    assert report.predicate_calls
    assert_ledger_adds_up(report)


def test_accounting_identity_counts_lifted_queries(filled_triangle_r2):
    report = verify_roundtrip(filled_triangle_r2)
    assert report.exact_match and report.all_bounds_ok
    # 3 vertex diagrams, 1 edge diagram (the lowest vertex's count equals its
    # two candidates, so no split), one k=2 predicate call of 6 diagrams
    assert report.vertex_queries == 3 and report.edge_queries == 1
    assert report.predicate_calls == [(2, 6)]
    assert report.total_queries == 10
    assert_ledger_adds_up(report)


def test_verify_adversarial_e1_ties():
    K = cx(2, [(0, 0), (0, 1), (1, -1)], [(0, 1), (1, 2)])
    report = verify_roundtrip(K)
    assert report.exact_match
    assert report.used_fallback_basis
    assert report.vertex_queries == 2 * 2 - 1 + 2
    assert report.vertex_bound_ok  # bound accounts for the two extra diagrams


def fallback_basis_complex():
    """An e1 tie between vertices 0 and 1, with triangles."""
    return cx(
        3,
        [(0, 0, 1), (0, 3, -1), (1, 1, 2), (2, 0, 0), (3, 4, 3)],
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3)],
    )


def test_fallback_basis_through_all_stages():
    K = fallback_basis_complex()
    report = verify_roundtrip(K)
    assert report.exact_match and report.used_fallback_basis
    assert report.vertex_queries == 2 * 3 - 1 + 2
    assert report.predicate_bound_ok


def test_fallback_basis_round_trips_on_tied_acceptance_complexes():
    """Every acceptance config with triangles allowed (kappa >= 2, d 3-5),
    with its vertex 1 moved to vertex 0's first coordinate: the tie sends
    the vertex stage to the tilted frame, which the edge stage sweeps in.
    Each round trip is exact, with 2d - 1 + 2 vertex queries and every
    query bound met."""
    from test_acceptance import _trial_configs

    dims, with_triangles = set(), 0
    for config in _trial_configs():
        if config.max_dim < 2:
            continue
        K = generate_complex(config)
        points = dict(K.vertices)
        points[1] = points[0][:1] + points[1][1:]
        tied = build_complex(K.ambient_dim, points, K.maximal_simplices())
        assert validate_general_position(tied).ok
        report = verify_roundtrip(tied)
        assert report.exact_match and report.used_fallback_basis
        assert report.vertex_queries == 2 * K.ambient_dim + 1
        assert report.all_bounds_ok
        dims.add(K.ambient_dim)
        with_triangles += bool(tied.simplices_of_dim(2))
    assert dims == {3, 4, 5}
    assert with_triangles >= 10


def test_edge_query_bound_formula():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2)])
    # n0 = 3: ceil(log2 3) + 1 = 3; degrees 1, 2, 1
    expected = 1 + 2 * ((2 * 1 + 1) * 3 + (2 * 2 + 1) * 3 + (2 * 1 + 1) * 3)
    assert edge_query_bound(K, 3) == expected


def test_report_mismatch_fields():
    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1)])
    report = verify_roundtrip(K)
    assert report.exact_match and not report.missing and not report.extra


def test_complexes_match_up_to_relabeling_only():
    """The same complex with its vertices renumbered matches; one edge less,
    one vertex moved and one vertex less do not."""
    points = [(0, 0), (1, 2), (3, 1)]
    K = cx(2, points, [(0, 1), (1, 2)])
    assert complexes_match(cx(2, points[::-1], [(2, 1), (1, 0)]), K)
    assert not complexes_match(cx(2, points, [(0, 1), (2,)]), K)
    assert not complexes_match(cx(2, [(0, 0), (1, 2), (3, 2)], [(0, 1), (1, 2)]), K)
    assert not complexes_match(cx(2, points[:2], [(0, 1)]), K)


def test_verify_roundtrip_reports_a_wrong_reconstruction(monkeypatch):
    """A reconstruction with one truth edge swapped for another is no exact
    match, missing the one and holding the other as extra; one with a vertex
    moved matches no truth vertex set, so every truth simplex is missing."""
    import apdrec.harness as harness
    from apdrec import build_complex, reconstruct

    K = cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1)])
    moved = dict(K.vertices)
    moved[2] = (Fraction(2), Fraction(3))
    for vertices, simplices, missing, extra in [
        (K.vertices, [(1, 2)], [(0, 1)], [(1, 2)]),
        (moved, [(0, 1)], [(0,), (1,), (2,), (0, 1)], []),
    ]:
        def wrong(oracle):
            reconstruct(oracle)  # the true stages, so the log is the true one
            return build_complex(2, vertices, simplices)

        monkeypatch.setattr(harness, "reconstruct", wrong)
        report = verify_roundtrip(K)
        assert not report.exact_match
        assert (report.missing, report.extra) == (missing, extra)
        assert report.all_bounds_ok


def test_verify_report_deterministic():
    cfg = GeneratorConfig(3, 6, 2, densities=[0.6, 0.7], seed=77)
    a = verify_roundtrip(generate_complex(cfg))
    b = verify_roundtrip(generate_complex(cfg))
    assert a == b


def test_roundtrip_edge_cases():
    single = cx(3, [(1, 2, 3)], [])
    report = verify_roundtrip(single)
    assert report.exact_match and report.vertex_queries == 5

    from apdrec import Oracle, build_complex, complexes_match, reconstruct

    empty = build_complex(2, {}, [])
    assert complexes_match(reconstruct(Oracle(empty)), empty)


def test_reconstruction_never_pairs(monkeypatch):
    """The stages read only simplex counts, so a round trip never runs the
    reduction: with it raising, a sample of the acceptance corpus, a lifted
    codimension-zero case and a planar graph all come back exact."""
    import apdrec.oracle as oracle_mod
    from test_acceptance import _trial_configs

    def refuse(*args):
        raise AssertionError("the reconstruction paired a diagram")

    monkeypatch.setattr(oracle_mod, "_reduce_pairs", refuse)
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    planar = GeneratorConfig(2, 30, 1, densities=[0.15], seed=1)
    reports = [
        verify_roundtrip(generate_complex(cfg))
        for cfg in _trial_configs()[::5] + [lifted, planar]
    ]
    assert all(r.exact_match and r.all_bounds_ok for r in reports)
    # the codimension-zero case went through the lifted pass (k == d == 3)
    assert any(k == 3 for k, _ in reports[-2].predicate_calls)


def test_reconstruction_never_builds_the_cofacet_table(monkeypatch):
    """The coboundary mask table, each simplex's cofacets as a bitmask over
    the next dimension's static range, serves the pairing alone and is
    built on its first read, so every boundary table a round trip makes,
    for a sample of the acceptance corpus, a lifted codimension-zero case
    and a planar graph, is left without one.  Once built, bit end - 1 - c
    of a simplex's mask, for [start, end) that range, is set exactly when c
    is one of its cofacets."""
    import apdrec.oracle as oracle_mod
    from test_acceptance import _trial_configs

    tables = []
    real_init = oracle_mod.BoundaryTable.__init__

    def recording(self, *args):
        real_init(self, *args)
        tables.append(self)

    monkeypatch.setattr(oracle_mod.BoundaryTable, "__init__", recording)
    lifted = GeneratorConfig(
        3, 6, 3, densities=[0.9, 0.9, 0.9], seed=2, lift_general_position=True
    )
    planar = GeneratorConfig(2, 30, 1, densities=[0.15], seed=1)
    for cfg in _trial_configs()[::5] + [lifted, planar]:
        report = verify_roundtrip(generate_complex(cfg))
        assert report.exact_match and report.all_bounds_ok
    assert len(tables) >= 12
    assert all(table.coboundary is None for table in tables)
    # the table builds it on the first pairing and keeps it
    K = generate_complex(lifted)
    dgm = oracle_mod.Oracle(K).query((1, 2, 3))
    table = tables[-1]
    assert table.coboundary is None
    dgm.points
    masks = table.coboundary
    assert masks is not None and table.masks()[0] is masks
    # the next dimension's static range, empty past the top
    starts = [lo for lo, _ in table.ranges] + [len(table.simplices)] * 2
    checked = 0
    for i, s in enumerate(table.simplices):
        start, end = starts[len(s)], starts[len(s) + 1]
        assert masks[i] >> (end - start) == 0  # no bit past the next dimension
        for c in range(start, end):
            cofacet = set(s) < set(table.simplices[c])
            assert bool(masks[i] >> (end - 1 - c) & 1) == cofacet
            checked += cofacet
    assert checked == sum(len(s) for s in K.simplices if len(s) > 1)
