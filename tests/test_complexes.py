import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdrec import (
    DegeneratePosition,
    GeneratorConfig,
    Oracle,
    InvalidInput,
    ParseError,
    SimplicialComplex,
    build_complex,
    generate_complex,
    parse_complex,
    reconstruct,
    serialize_complex,
    validate_general_position,
    verify_roundtrip,
)
from apdrec.oracle import compute_apd, format_diagram

from bruteforce import (
    maximal_by_definition,
    reference_general_position,
    reference_position_violations,
)
from conftest import cx

F = Fraction


def test_closure_of_triangle():
    K = cx(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert K.n_k(0) == 3 and K.n_k(1) == 3 and K.n_k(2) == 1
    assert K.kappa == 2


def test_closure_of_path():
    K = cx(2, [(0, 0), (1, 1), (2, 0)], [(0, 1), (1, 2)])
    assert K.n_k(0) == 3 and K.n_k(1) == 2 and K.kappa == 1


def test_closure_triangle_plus_edge():
    K = cx(2, [(0, 0), (1, 0), (0, 1), (2, 2)], [(0, 1, 2), (2, 3)])
    assert K.n_k(0) == 4
    assert sorted(K.simplices_of_dim(1)) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert K.simplices_of_dim(2) == [(0, 1, 2)]


def test_build_complex_idempotent_on_closed_input():
    K = cx(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    again = build_complex(2, K.vertices, K.simplices)
    assert again == K


def test_closure_property_random():
    rng = random.Random(3)
    for seed in range(5):
        K = generate_complex(
            GeneratorConfig(3, 6, 2, densities=[0.7, 0.7], seed=seed)
        )
        for s in K.simplices:
            for size in range(1, len(s)):
                for face in combinations(s, size):
                    assert face in K.simplices
        assert K.n == sum(K.n_k(k) for k in range(K.kappa + 1))
        _ = rng  # deterministic loop; rng unused on purpose


def test_build_complex_rejects_unknown_vertex():
    with pytest.raises(InvalidInput):
        build_complex(2, {0: (0, 0), 1: (1, 0)}, [(0, 99)])


def test_build_complex_rejects_duplicate_vertex():
    with pytest.raises(InvalidInput):
        build_complex(2, {0: (0, 0), 1: (1, 0)}, [(1, 1)])


def test_build_complex_rejects_excess_dimension():
    with pytest.raises(InvalidInput):
        build_complex(1, {0: (0,), 1: (1,), 2: (2,)}, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# general position


def test_general_position_ok():
    K = cx(2, [(0, 0), (1, 1), (2, 3)], [])
    report = validate_general_position(K)
    assert report.unique_e1_heights and report.no_three_projected_collinear
    assert report.ok and report.violations == []


def test_general_position_e1_tie():
    # a first-axis tie is informational: reconstruction recovers it
    K = cx(2, [(0, 0), (0, 1), (1, -1)], [(0, 1), (1, 2)])
    report = validate_general_position(K)
    assert not report.unique_e1_heights
    assert report.ok and report.violations == []
    assert verify_roundtrip(K).exact_match


def test_general_position_coincident_projections():
    K = cx(3, [(0, 0, 0), (0, 0, 1)], [])
    report = validate_general_position(K)
    assert not report.distinct_projections and not report.ok
    assert report.violations == [("projection", 0, 1)]


def test_general_position_affine_dependence():
    # four coplanar points of R^3 whose projections are in general position
    points = [(0, 0, 0), (1, 2, 0), (2, 1, 0), (3, 3, 0)]
    report = validate_general_position(cx(3, points, []))
    assert report.distinct_projections and report.no_three_projected_collinear
    assert not report.affinely_independent and not report.ok
    assert report.violations == [("affine-dependent", 0, 1, 2, 3)]
    # at most d vertices: the whole set is checked
    lifted = [p + (0,) for p in points]
    report = validate_general_position(cx(4, lifted, []))
    assert report.violations == [("affine-dependent", 0, 1, 2, 3)]
    assert validate_general_position(cx(4, lifted[:3], [])).ok


def test_general_position_catches_a_dependent_set_of_at_most_d_points():
    """Four coplanar points of R^4: no d+1 points exist, so the whole set must
    be independent.  The generator rejects such a fourth point through the
    same check; reconstruction cannot recover their 3-simplex."""
    points = [(0, 0, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (3, 5, 0, 0)]
    K = cx(4, points, [(0, 1, 2, 3)])
    report = validate_general_position(K)
    assert report.violations == [("affine-dependent", 0, 1, 2, 3)]
    assert report.distinct_projections and report.no_three_projected_collinear
    with pytest.raises(DegeneratePosition):
        reconstruct(Oracle(K))


def test_general_position_report_matches_the_definitions():
    """The report's flags equal a batch check from the definitions on small
    random sets dense in degeneracies: repeated points, shared projections,
    collinear projections and dependent subsets."""
    rng = random.Random(11)
    values = [F(p, q) for p in range(-3, 4) for q in (1, 2)]
    for _ in range(600):
        d, n = rng.randint(1, 4), rng.randint(1, 8)
        points = [tuple(rng.choice(values) for _ in range(d)) for _ in range(n)]
        report = validate_general_position(cx(d, points, []))
        flags = reference_general_position(points, d)
        assert (
            report.distinct_projections,
            report.no_three_projected_collinear,
            report.affinely_independent,
        ) == flags
        assert report.ok == all(flags)


def degenerate_point_set(rng, d, n):
    """n points of Q^d, each drawn so that a degeneracy is likely: a repeated
    point, a repeated (e1, e2) projection, a point on the line through two
    earlier points, an affine combination of up to d earlier points, or a
    point of a small grid."""
    values = [F(p, q) for p in range(-2, 3) for q in (1, 2)]
    points = []
    for _ in range(n):
        roll = rng.random()
        if points and roll < 0.15:
            p = rng.choice(points)
        elif points and roll < 0.3:
            p = rng.choice(points)[:2] + tuple(rng.choice(values) for _ in range(d - 2))
        elif len(points) >= 2 and roll < 0.5:
            a, b = rng.sample(points, 2)
            t = rng.choice(values)
            p = tuple(x + t * (y - x) for x, y in zip(a, b))
        elif len(points) >= 2 and roll < 0.7:
            chosen = rng.sample(points, min(len(points), rng.randint(2, max(2, d))))
            weights = [rng.choice(values) for _ in chosen[1:]]
            p = tuple(
                x0 + sum(w * (q[c] - x0) for w, q in zip(weights, chosen[1:]))
                for c, x0 in enumerate(chosen[0])
            )
        else:
            p = tuple(rng.choice(values) for _ in range(d))
        points.append(p)
    return points


def test_position_witnesses_match_the_reference_in_order():
    """The report's witness list, order included, equals the definition's,
    vertex by vertex, on sets rich in repeated points, shared and collinear
    projections, dependent subsets and degenerate d-subsets, for d = 1..5."""
    rng = random.Random(19)
    kinds = set()
    for trial in range(250):
        d = 1 + trial % 5
        points = degenerate_point_set(rng, d, rng.randint(1, d + 5))
        want = []
        for i in range(len(points)):
            want.extend(reference_position_violations(points, i, d))
        assert validate_general_position(cx(d, points, [])).violations == want
        kinds.update((w[0], len(w)) for w in want)
    # every kind of witness, and d-subsets in every dimension, were exercised
    assert {("projection", 3), ("collinear", 4)} <= kinds
    assert {("affine-dependent", d + 2) for d in range(1, 6)} <= kinds


def test_general_position_generated_complexes_ok():
    for seed in range(3):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.5, 0.5], seed=seed))
        assert validate_general_position(K).ok


def test_general_position_collinear():
    K = cx(2, [(0, 0), (1, 1), (2, 2)], [])
    report = validate_general_position(K)
    assert not report.no_three_projected_collinear
    assert any(v[0] == "collinear" for v in report.violations)


# ---------------------------------------------------------------------------
# text format


def test_roundtrip_triangle():
    K = cx(2, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert parse_complex(serialize_complex(K)) == K


def test_roundtrip_rational_coordinates():
    K = cx(2, [(F(1, 3), F(-2, 5)), (1, 7)], [(0, 1)])
    text = serialize_complex(K)
    assert "1/3 -2/5" in text
    assert parse_complex(text) == K


def test_library_text_of_a_value_longer_than_the_str_digit_limit_is_exact():
    """A vertex at 10^5000 has more digits than Python converts from int to
    text by default: ``serialize_complex`` and ``format_diagram`` still
    write it exactly, with no limit lifted by the caller."""
    huge = "1" + "0" * 5000
    K = cx(2, [(0, 0), (10**5000, 1), (F(1, 3), 2)], [(0, 1), (1, 2)])
    assert serialize_complex(K) == (
        f"dim 2\nvertices 3\n0 0 0\n1 {huge} 1\n2 1/3 2\n"
        "simplices 2\n0 1\n1 2\n"
    )
    dgm = compute_apd(K, (1, 0))
    assert format_diagram(dgm) == (
        f"direction 1 0\n0 0 inf\n0 1/3 {huge}\n0 {huge} {huge}\n"
    )


def test_parse_rejects_unknown_id():
    text = "dim 2\nvertices 3\n0 0 0\n1 1 0\n2 0 1\nsimplices 1\n0 99\n"
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_reports_line_number():
    text = "dim 2\nvertices 1\n0 zero 0\nsimplices 0\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert err.value.line_number == 3


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\ndim 2\nvertices 1\n0 3 4  # trailing\n\nsimplices 0\n"
    K = parse_complex(text)
    assert K.vertices[0] == (3, 4)


numbers = st.integers(-2, 4).map(str)
junk = st.sampled_from(["x", "1/2", "-3/4", "1/0", "1.5", "dim", "vertices", "#", "0 0"])
tokens = st.one_of(numbers, numbers, numbers, junk)
records = st.lists(tokens, max_size=5).map(" ".join)
id_records = st.lists(numbers, min_size=1, max_size=5).map(" ".join)
headers = st.tuples(st.sampled_from(["dim", "vertices", "simplices"]), tokens).map(" ".join)


@st.composite
def complex_texts(draw):
    """Header/record skeletons of the text format with junk spliced in."""
    dim = draw(st.integers(0, 3))
    n0 = draw(st.integers(-1, 4))
    lines = [f"dim {dim}", f"vertices {n0}"]
    coords = st.lists(tokens, min_size=max(dim, 0), max_size=max(dim, 0))
    for vid in range(max(n0, 0)):
        vertex = coords.map(lambda c, vid=vid: " ".join([str(vid)] + c))
        lines.append(draw(st.one_of(vertex, vertex, records)))
    m = draw(st.integers(-1, 3))
    lines.append(f"simplices {m}")
    lines.extend(draw(st.one_of(id_records, id_records, records)) for _ in range(max(m, 0)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(headers, records)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(complex_texts())
def test_parse_fuzz_returns_complex_or_parse_error(text):
    try:
        K = parse_complex(text)
    except ParseError:
        return
    assert isinstance(K, SimplicialComplex)
    assert sorted(K.vertices) == list(range(len(K.vertices)))


def test_roundtrip_random_complexes():
    for seed in range(6):
        K = generate_complex(
            GeneratorConfig(3, 7, 2, densities=[0.6, 0.6], seed=seed)
        )
        assert parse_complex(serialize_complex(K)) == K


def test_maximal_simplices_match_the_definition():
    configs = [
        GeneratorConfig(3, 7, 2, densities=[0.6, 0.6], seed=0),
        GeneratorConfig(4, 8, 3, densities=[0.7, 0.7, 0.8], seed=1),
        GeneratorConfig(4, 6, 4, densities=[0.9, 0.9, 0.9, 0.9], seed=2),
        GeneratorConfig(2, 6, 1, densities=[0.3], seed=3),
        GeneratorConfig(3, 5, 0, seed=4),
    ]
    for config in configs:
        K = generate_complex(config)
        assert K.maximal_simplices() == maximal_by_definition(K)
