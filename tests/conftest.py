import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from apdrec import AugmentedDiagram, Oracle, build_complex


def cx(ambient_dim, points, maximal):
    """Shorthand complex constructor for tests."""
    vertex_map = {i: tuple(Fraction(c) for c in p) for i, p in enumerate(points)}
    return build_complex(ambient_dim, vertex_map, maximal)


def shifted_count(dgm, k, height, delta):
    """The diagram with its k-simplex count at the height moved by delta.

    Only the simplex histogram changes, which is all the reconstruction
    stages read; the pairing, read on demand, is the true diagram's.
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
        lambda: (dgm.keys, dgm.rows),
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
