"""Acceptance suite: exact, property-based checks plus query-count audits.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Everything is seeded and deterministic.
"""

import random
import time
from fractions import Fraction

import pytest

from apdrec import (
    GeneratorConfig,
    Oracle,
    betti_curve_from_apd,
    compute_apd,
    compute_indegree,
    ecc_value,
    euler_curve_direct,
    euler_curve_from_apd,
    generate_complex,
    leftmost_crossing,
    tilt,
    tilt_weight,
    verify_roundtrip,
)
from apdrec.geometry import scale_to_integers
from apdrec.higher import _isolating_direction
from apdrec.oracle import INF

from bruteforce import (
    betti_numbers_gf2,
    brute_coface_count,
    brute_leftmost_crossing,
    count_simplices_at,
    random_compatible_order,
    reference_apd,
)
from conftest import cx, tie_instances

F = Fraction


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _trial_configs():
    """50 seeded configurations spanning d in {3,4,5}, n0 <= 10, kappa <= 3."""
    densities = {0: [], 1: [0.5], 2: [0.6, 0.7], 3: [0.7, 0.8, 0.7]}
    configs = []
    for i in range(18):  # ambient dimension 3
        kappa = (0, 1, 2)[i % 3]
        n0 = 4 + (3 * i) % 7
        configs.append(
            GeneratorConfig(3, n0, kappa, densities=densities[kappa], seed=1000 + i)
        )
    for i in range(16):  # ambient dimension 4
        kappa = (1, 2, 3, 3)[i % 4]
        n0 = (4 + (2 * i) % 5) if kappa < 3 else 4 + i % 3
        configs.append(
            GeneratorConfig(4, n0, kappa, densities=densities[kappa], seed=2000 + i)
        )
    for i in range(16):  # ambient dimension 5
        kappa = (2, 3)[i % 2]
        n0 = (4 + i % 4) if kappa < 3 else 4 + i % 3
        configs.append(
            GeneratorConfig(5, n0, kappa, densities=densities[kappa], seed=3000 + i)
        )
    assert len(configs) == 50
    return configs


@pytest.fixture(scope="module")
def trials():
    results = []
    start = time.perf_counter()
    for cfg in _trial_configs():
        K = generate_complex(cfg)
        results.append((cfg, K, verify_roundtrip(K)))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_roundtrip_exactness(trials):
    results, elapsed = trials
    failures = [
        (cfg.seed, rep.missing, rep.extra)
        for cfg, _, rep in results
        if not rep.exact_match
    ]
    ok = not failures and elapsed < 120.0
    _report(
        1,
        ok,
        f"50/50 exact round trips in {elapsed:.1f}s"
        if ok
        else f"failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_vertex_query_bound(trials):
    results, _ = trials
    bad = [
        (cfg.seed, rep.vertex_queries)
        for cfg, _, rep in results
        if rep.vertex_queries != 2 * cfg.ambient_dim - 1
    ]
    _report(
        2,
        not bad,
        "vertex stage used exactly 2d-1 diagrams in every trial"
        if not bad
        else f"violations={bad}",
    )


def test_criterion_3_predicate_query_bound(trials):
    results, _ = trials
    seen = set()
    bad = []
    for cfg, _, rep in results:
        for k, q in rep.predicate_calls:
            seen.add(k)
            if q != 2 * (2**k - 1):
                bad.append((cfg.seed, k, q))
    ok = not bad and {2, 3} <= seen
    _report(
        3,
        ok,
        f"every predicate call cost exactly 2(2^k-1) diagrams, k values {sorted(seen)}"
        if ok
        else f"violations={bad} k_seen={sorted(seen)}",
    )


def test_criterion_4_edge_query_audit(trials):
    results, _ = trials
    bad = [
        (cfg.seed, rep.edge_queries, rep.edge_bound)
        for cfg, _, rep in results
        if rep.edge_queries > rep.edge_bound
    ]
    worst = max((rep.edge_queries / rep.edge_bound) for _, _, rep in results)
    _report(
        4,
        not bad,
        f"edge-stage queries within budget in every trial (worst ratio {worst:.2f})"
        if not bad
        else f"violations={bad}",
    )


def test_criterion_5_oracle_correctness(trials):
    results, _ = trials
    rng = random.Random(55)

    # (a) tie-break invariance: the diagram equals the definition's under
    # each of 20 random compatible reorderings per tie instance
    reorder_checks = 0
    for K, direction in tie_instances():
        points = [tuple(p) for p in compute_apd(K, direction).points]
        for _ in range(20):
            order = random_compatible_order(K, direction, rng)
            assert points == reference_apd(K, direction, order)
            reorder_checks += 1

    # (b) simplex-count identity at every height, dimension and direction
    count_checks = 0
    for cfg, K, _ in results[::5]:
        for direction in [(1,) + (0,) * (cfg.ambient_dim - 1),
                          tuple(rng.randint(-3, 3) for _ in range(cfg.ambient_dim))]:
            if all(x == 0 for x in direction):
                continue
            dgm = compute_apd(K, direction)
            heights = {p.birth for p in dgm.points} | {
                p.death for p in dgm.points if p.death != INF
            }
            for k in range(K.kappa + 2):
                for c in heights:
                    assert dgm.count_at(k, c) == count_simplices_at(
                        K, direction, k, c
                    )
                    count_checks += 1

    # (c) infinite bars match an independent Z/2 Betti computation
    betti_checks = 0
    for cfg, K, _ in results:
        if K.n > 200:
            continue
        betti = betti_numbers_gf2(K)
        direction = tuple(rng.randint(1, 4) for _ in range(cfg.ambient_dim))
        dgm = compute_apd(K, direction)
        for k in range(K.kappa + 1):
            essential = sum(1 for p in dgm.in_dim(k) if p.essential)
            assert essential == betti[k]
            betti_checks += 1

    _report(
        5,
        reorder_checks >= 120 and count_checks > 0 and betti_checks > 0,
        f"{reorder_checks} reorderings equal to the definition's, {count_checks} count identities, "
        f"{betti_checks} Betti comparisons",
    )


def test_criterion_6_indegree_oracle_equivalence(trials):
    results, _ = trials
    checked = 0
    for cfg, K, _ in results:
        if cfg.ambient_dim < 4 or K.kappa < 1:
            continue
        oracle = Oracle(K)
        points, scale = scale_to_integers([K.vertices[i] for i in sorted(K.vertices)])
        for sigma in K.simplices_of_dim(0) + K.simplices_of_dim(1):
            for k in range(len(sigma), len(sigma) + 2):
                if k > cfg.ambient_dim - 1:
                    continue
                direction, _ = _isolating_direction(sigma, points)
                got = compute_indegree(sigma, direction, k, {}, oracle, points, scale)
                assert got == brute_coface_count(K, sigma, direction, k), (
                    cfg.seed, sigma, k)
                checked += 1
        if checked >= 520:
            break

    # the worked figure: raw count 3, face corrections 1 + 1, indegree 1
    K = cx(4, [
        (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
        (F(1, 3), F(1, 3), 1, -1), (2, 0, F(1, 2), -2), (-1, 0, F(1, 3), -3),
        (0, 2, 1, -4), (1, 2, F(1, 2), -5), (2, 3, F(1, 4), -6),
    ], [(0, 1, 2, 3), (0, 1, 4, 5), (2, 6, 7, 8)])
    oracle = Oracle(K)
    points, scale = scale_to_integers([K.vertices[i] for i in sorted(K.vertices)])
    direction = (0, 0, 0, 1)
    raw = oracle.query(direction)
    memo = {}
    value = compute_indegree((0, 1, 2), direction, 3, memo, oracle, points, scale)
    figure_ok = (
        raw.count_at(3, F(0)) == 3
        and sorted(v for v in memo.values() if v) == [1, 1]
        and value == 3 - 1 - 1 == 1
    )
    _report(
        6,
        checked >= 500 and figure_ok,
        f"{checked} sampled indegrees match brute force; worked figure gives 3-1-1=1",
    )


def test_criterion_7_codimension_zero():
    filled = cx(2, [(0, 0), (F(1, 2), 1), (1, 0)], [(0, 1, 2)])
    glued = cx(2, [(0, 0), (1, 2), (2, 1), (3, 3)], [(0, 1, 2), (1, 2, 3)])
    mixed = cx(
        2,
        [(0, 0), (1, 2), (2, 1), (3, 3), (4, 0)],
        [(0, 1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
    )
    ok = True
    for K in (filled, glued, mixed):
        report = verify_roundtrip(K)
        ok = ok and report.exact_match

    agreements = 0
    for seed in (70, 71, 72):
        K = generate_complex(
            GeneratorConfig(3, 6, 1, densities=[0.5], seed=seed,
                            lift_general_position=True)
        )
        report = verify_roundtrip(K)
        assert report.exact_match
        assert all(k < 3 for k, _ in report.predicate_calls)
        agreements += 1

    _report(
        7,
        ok and agreements == 3,
        "filled, glued and mixed triangles recovered via the lift; "
        f"no lifted call on {agreements} small-kappa runs",
    )


def test_criterion_8_descriptor_consistency(trials):
    results, _ = trials
    rng = random.Random(88)
    probes = 0
    for cfg, K, _ in results:
        d = cfg.ambient_dim
        directions = [
            (1,) + (0,) * (d - 1),
            tuple(rng.randint(1, 3) for _ in range(d)),
        ]
        for direction in directions:
            dgm = compute_apd(K, direction)
            direct = euler_curve_direct(K, direction)
            from_apd = euler_curve_from_apd(dgm)
            heights = direct.heights()
            test_points = list(heights)
            test_points += [(a + b) / 2 for a, b in zip(heights, heights[1:])]
            if heights:
                test_points += [heights[0] - 1, heights[-1] + 1]
            betti = [betti_curve_from_apd(dgm, k) for k in range(K.kappa + 1)]
            for p in test_points:
                assert direct.value_at(p) == from_apd.value_at(p)
                alternating = sum(
                    (-1) ** k * betti[k].value_at(p) for k in range(len(betti))
                )
                assert alternating == ecc_value(direct.value_at(p))
                probes += 1
    _report(8, probes > 0, f"{probes} height probes consistent on all 50 trials")


def test_criterion_9_geometry_kernels():
    rng = random.Random(99)
    crossing_checks = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        h = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
        hp = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(m)]
        assert leftmost_crossing(h, hp) == brute_leftmost_crossing(h, hp)
        crossing_checks += 1

    tilt_checks = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        h = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        hp = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n)]
        s_t = tilt(tilt_weight(h, hp), (F(1), F(0)), (F(0), F(1)))
        lifted = [s_t[0] * a + s_t[1] * b for a, b in zip(h, hp)]
        for i in range(n):
            for j in range(n):
                if h[i] < h[j]:
                    assert lifted[i] < lifted[j]
                elif h[i] == h[j] and hp[i] < hp[j]:
                    assert lifted[i] < lifted[j]
        tilt_checks += 1
    _report(
        9,
        crossing_checks == 200 and tilt_checks == 200,
        "200 crossing instances match brute force; 200 tilts preserve order exactly",
    )
