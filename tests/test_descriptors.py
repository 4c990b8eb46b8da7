import random
from fractions import Fraction

from apdrec import (
    GeneratorConfig,
    betti_curve_from_apd,
    build_complex,
    compute_apd,
    ecc_value,
    euler_curve_direct,
    euler_curve_from_apd,
    generate_complex,
)

from bruteforce import sublevel_parity_counts
from conftest import cx

F = Fraction
E1 = (1, 0)


def hollow_triangle():
    return cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2), (1, 2)])


def full_triangle():
    return cx(2, [(0, 0), (1, 2), (2, 1)], [(0, 1, 2)])


# ---------------------------------------------------------------------------
# Betti curves


def test_betti_curves_hollow_triangle():
    dgm = compute_apd(hollow_triangle(), E1)
    b0 = betti_curve_from_apd(dgm, 0)
    assert b0.breakpoints == ((0, 1),)
    assert [h for h, _ in b0.decorations] == [1, 2]
    assert b0.value_at(F(100)) == 1
    b1 = betti_curve_from_apd(dgm, 1)
    assert b1.breakpoints == ((2, 1),)
    assert b1.value_at(F(3, 2)) == 0 and b1.value_at(2) == 1


def test_betti_curve_empty_complex():
    K = build_complex(2, {}, [])
    dgm = compute_apd(K, E1)
    curve = betti_curve_from_apd(dgm, 0)
    assert curve.breakpoints == () and curve.value_at(0) == 0


def test_betti_curve_single_vertex():
    K = cx(2, [(3, 1)], [])
    curve = betti_curve_from_apd(compute_apd(K, E1), 0)
    assert curve.value_at(F(2)) == 0
    assert curve.value_at(F(3)) == 1
    assert curve.breakpoints == ((3, 1),)


# ---------------------------------------------------------------------------
# Euler curves


def test_euler_pair_full_triangle():
    K = full_triangle()
    curve = euler_curve_from_apd(compute_apd(K, E1))
    assert curve.value_at(F(2)) == (4, 3)
    assert ecc_value(curve.value_at(F(2))) == 1
    assert curve.value_at(F(-1)) == (0, 0)
    assert curve.value_at(F(3, 2)) == (2, 1)


def test_euler_pair_hollow_triangle():
    curve = euler_curve_from_apd(compute_apd(hollow_triangle(), E1))
    assert curve.value_at(F(2)) == (3, 3)
    assert ecc_value(curve.value_at(F(2))) == 0


def test_euler_direct_same_examples():
    for K in (full_triangle(), hollow_triangle()):
        direct = euler_curve_direct(K, E1)
        from_apd = euler_curve_from_apd(compute_apd(K, E1))
        assert direct.breakpoints == from_apd.breakpoints
    assert euler_curve_direct(full_triangle(), E1).value_at(F(3, 2)) == (2, 1)


def _probe_heights(curve):
    hs = curve.heights()
    probes = list(hs)
    probes.extend((a + b) / 2 for a, b in zip(hs, hs[1:]))
    if hs:
        probes.append(hs[0] - 1)
        probes.append(hs[-1] + 1)
    return probes


def test_euler_consistency_random():
    rng = random.Random(12)
    for seed in range(5):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.7, 0.8], seed=seed))
        direction = (rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        dgm = compute_apd(K, direction)
        direct = euler_curve_direct(K, direction)
        from_apd = euler_curve_from_apd(dgm)
        for p in _probe_heights(direct):
            assert direct.value_at(p) == from_apd.value_at(p)
            assert direct.value_at(p) == sublevel_parity_counts(K, direction, p)


def test_euler_reference_shares_no_step_with_the_diagram_curve(monkeypatch):
    """``euler_curve_direct`` counts the complex itself, so a fault in the
    diagram's Euler curve shows against it: with that curve's even and odd
    counts swapped, the reference still gives the brute-force counts and
    differs from the faulty curve."""
    import apdrec.descriptors as descriptors

    original = descriptors.euler_curve_from_apd

    def swapped(apd):
        steps = tuple((h, (odd, even)) for h, (even, odd) in original(apd).breakpoints)
        return descriptors.StepCurve(steps, (), (0, 0))

    monkeypatch.setattr(descriptors, "euler_curve_from_apd", swapped)
    for seed in range(3):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.7, 0.8], seed=seed))
        direction = (1, 2, -1)
        direct = euler_curve_direct(K, direction)
        assert direct != swapped(compute_apd(K, direction))
        for p in _probe_heights(direct):
            assert direct.value_at(p) == sublevel_parity_counts(K, direction, p)


def test_euler_poincare_alternating_sum():
    for seed in range(3):
        K = generate_complex(GeneratorConfig(3, 7, 2, densities=[0.7, 0.8], seed=seed))
        direction = (1, 2, -1)
        dgm = compute_apd(K, direction)
        euler = euler_curve_from_apd(dgm)
        betti = [betti_curve_from_apd(dgm, k) for k in range(K.kappa + 1)]
        for p in _probe_heights(euler):
            alternating = sum((-1) ** k * betti[k].value_at(p) for k in range(len(betti)))
            assert alternating == ecc_value(euler.value_at(p))


def test_betti_curves_match_the_definition_random():
    """Decorations equal the quadratic count from the definition, and
    value_at equals both a linear scan of the breakpoints and the count of
    points with birth <= p < death."""
    rng = random.Random(21)
    for seed in range(6):
        K = generate_complex(GeneratorConfig(3, 8, 3, densities=[0.8, 0.8, 0.7], seed=seed))
        direction = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if all(x == 0 for x in direction):
            direction = (1, 0, 0)
        dgm = compute_apd(K, direction)
        for k in range(K.kappa + 1):
            pts = dgm.in_dim(k)
            curve = betti_curve_from_apd(dgm, k)
            zero_heights = sorted({p.birth for p in pts if p.zero_persistence})
            assert curve.decorations == tuple(
                (c, sum(1 for p in pts if p.birth <= c <= p.death)) for c in zero_heights
            )
            for p in _probe_heights(curve) + zero_heights:
                scan = curve.zero
                for h, value in curve.breakpoints:
                    if h <= p:
                        scan = value
                assert curve.value_at(p) == scan
                assert scan == sum(1 for q in pts if q.birth <= p < q.death)
