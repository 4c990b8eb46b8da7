"""Betti curves and Euler characteristic curves derived from diagrams.

Both are decorated step functions of the filtration height.  The augmented
Euler curve is integer-pair valued: (count of even-dimensional simplices,
count of odd-dimensional simplices) in the sublevel set; the classical Euler
characteristic is their difference.  The curves of a diagram are one pass
over its levels, so they cost its number of distinct heights, not its
number of points.  The Betti curves read the diagram's event rows, so they
pair the diagram but build none of its points; the Euler curve reads only
its simplex histogram.
``euler_curve_direct`` counts the complex's simplices instead and is the
reference the diagram's Euler curve is checked against.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .complexes import SimplicialComplex
from .geometry import Direction, dot
from .oracle import AugmentedDiagram, _read_direction


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function with zero-measure decorations.

    ``breakpoints`` is a strictly increasing list of (height, value); the
    curve equals ``zero`` before the first breakpoint and the value of the
    last breakpoint at or below p otherwise.  ``decorations`` record values
    attained only at isolated heights (zero-persistence events).
    """

    breakpoints: Tuple[Tuple[Fraction, object], ...]
    decorations: Tuple[Tuple[Fraction, object], ...] = ()
    zero: object = 0

    def value_at(self, p: Fraction):
        i = bisect_right(self.breakpoints, p, key=operator.itemgetter(0))
        return self.zero if i == 0 else self.breakpoints[i - 1][1]

    def heights(self) -> List[Fraction]:
        return [h for h, _ in self.breakpoints]


def betti_curve_from_apd(apd: AugmentedDiagram, k: int) -> StepCurve:
    """k-th augmented Betti curve read off the diagram's event rows.

    Step value at p counts points with birth <= p < death: one pass over the
    levels, stepping by births minus finite deaths, since a zero-persistence
    pair adds one of each and cancels.  Such a pair decorates its level with
    the momentary count of classes alive there (birth <= c <= death): the
    value below the level plus the births at it.
    """
    row = apd.rows.get(k)
    if row is None:
        return StepCurve((), (), 0)
    value = 0
    steps = []
    decorations = []
    for h, born, died, zeros in zip(apd.levels, *row):
        if zeros:
            decorations.append((h, value + born))
        if born != died:
            value += born - died
            steps.append((h, value))
    return StepCurve(tuple(steps), tuple(decorations), 0)


def _euler_steps(entries) -> StepCurve:
    """The pair curve of (height, even count, odd count) entries, increasing
    in height, each adding its counts to the sublevel set."""
    even = odd = 0
    steps = []
    for h, de, do in entries:
        if de or do:
            even += de
            odd += do
            steps.append((h, (even, odd)))
    return StepCurve(tuple(steps), (), (0, 0))


def euler_curve_from_apd(apd: AugmentedDiagram) -> StepCurve:
    """Augmented Euler characteristic curve from the diagram alone.

    The diagram's simplex histogram gives the k-simplices at each level,
    so the counts of each parity sum those of its dimensions, and one pass
    over the levels sums them into the sublevel counts.  It needs no
    pairing.
    """
    parity = [[0] * len(apd.heights), [0] * len(apd.heights)]
    for k, row in apd.histogram.items():
        parity[k % 2] = list(map(operator.add, parity[k % 2], row))
    return _euler_steps(zip(apd.levels, *parity))


def euler_curve_direct(complex_: SimplicialComplex, direction: Direction) -> StepCurve:
    """The same pair curve computed straight from sublevel simplex counts.

    A simplex enters at its lower-star height, the largest height of its
    vertices.  This is the reference the diagram's curve is checked
    against.  Raises InvalidInput for a direction that ``_read_direction``
    refuses: an entry that is no rational, a zero direction, or one whose
    length is not the ambient dimension of the complex.
    """
    direction = _read_direction(direction, complex_.ambient_dim)
    vh = {v: dot(direction, p) for v, p in complex_.vertices.items()}
    deltas: Dict[Fraction, List[int]] = {}
    for s in complex_.simplices:
        cell = deltas.setdefault(max(vh[v] for v in s), [0, 0])
        cell[(len(s) - 1) % 2] += 1
    return _euler_steps((h, *deltas[h]) for h in sorted(deltas))


def ecc_value(pair: Tuple[int, int]) -> int:
    """Euler characteristic from an (even count, odd count) pair."""
    return pair[0] - pair[1]
