import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from apdrec import (
    AugmentedDiagram,
    GeneratorConfig,
    Oracle,
    build_complex,
    generate_complex,
    orthogonal_to_affine_hull,
)


def cx(ambient_dim, points, maximal):
    """Shorthand complex constructor for tests."""
    vertex_map = {i: tuple(Fraction(c) for c in p) for i, p in enumerate(points)}
    return build_complex(ambient_dim, vertex_map, maximal)


def tie_instances():
    """(complex, direction) pairs whose directions give several simplices
    one height: two hand-made complexes in two directions each, and two
    generated complexes in a direction orthogonal to the line through their
    two least vertices."""
    instances = []
    K1 = cx(2, [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1, 2), (1, 2, 3)])
    instances.append((K1, (1, 1)))
    instances.append((K1, (1, 0)))
    K2 = cx(3, [(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 1, 1), (4, 2, 2)],
            [(0, 1, 2), (2, 3), (3, 4), (1, 3)])
    instances.append((K2, (0, 1, 0)))
    instances.append((K2, (1, -1, 1)))
    for seed in (0, 1):
        K = generate_complex(GeneratorConfig(3, 6, 2, densities=[0.7, 0.7], seed=seed))
        pts = sorted(K.vertices.values())
        s = orthogonal_to_affine_hull([pts[0], pts[1]])  # forces a height tie
        instances.append((K, s))
    return instances


def shifted_count(dgm, k, height, delta):
    """The diagram with its k-simplex count at the height moved by delta.

    Only the simplex histogram changes, which is all the reconstruction
    stages read.  The diagram is built from the true one's simplex levels
    and BoundaryTable, so its pairing, run on demand, is the true diagram's:
    its points are true, and its rows' births carry the shift.
    """
    histogram = dict(dgm.histogram)
    row = list(histogram.get(k) or [0] * len(dgm.heights))
    row[dgm.level(height)] += delta
    histogram[k] = row
    return AugmentedDiagram(
        dgm.direction,
        dgm.heights,
        dgm.denominator,
        histogram,
        dgm._level,
        dgm._table,
    )


class TamperedOracle(Oracle):
    """An Oracle whose answer in one direction counts delta more k-simplices
    at one height (see shifted_count); every other answer is true."""

    def __init__(self, complex_, direction, k, height, delta):
        super().__init__(complex_)
        self._tamper = (tuple(Fraction(x) for x in direction), k, height, delta)

    def query(self, direction):
        dgm = super().query(direction)
        target, k, height, delta = self._tamper
        if dgm.direction == target:
            return shifted_count(dgm, k, height, delta)
        return dgm


@pytest.fixture
def filled_triangle_r2():
    return cx(2, [(0, 0), (Fraction(1, 2), 1), (1, 0)], [(0, 1, 2)])


@pytest.fixture
def hollow_triangle_r2():
    return cx(2, [(0, 0), (Fraction(1, 2), 1), (1, 0)], [(0, 1), (0, 2), (1, 2)])
