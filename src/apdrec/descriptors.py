"""Betti curves and Euler characteristic curves derived from diagrams.

Both are decorated step functions of the filtration height.  The augmented
Euler curve is integer-pair valued: (count of even-dimensional simplices,
count of odd-dimensional simplices) in the sublevel set; the classical Euler
characteristic is their difference.  The curves of a diagram are one pass
over its event table, so they cost its number of distinct heights, not its
number of points.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .complexes import SimplicialComplex
from .geometry import Direction, dot
from .oracle import AugmentedDiagram, _check_direction


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
    """k-th augmented Betti curve read off the diagram's event table.

    Step value at p counts points with birth <= p < death: one pass over the
    levels, stepping by births minus finite deaths, since a zero-persistence
    pair adds one of each and cancels.  Such a pair decorates its level with
    the momentary count of classes alive there (birth <= c <= death): the
    value below the level plus the births at it.
    """
    events = apd.events
    row = events.rows.get(k)
    if row is None:
        return StepCurve((), (), 0)
    value = 0
    steps = []
    decorations = []
    for h, born, died, zeros in zip(events.levels, *row):
        if zeros:
            decorations.append((h, value + born))
        if born != died:
            value += born - died
            steps.append((h, value))
    return StepCurve(tuple(steps), tuple(decorations), 0)


def _pair_steps(deltas: Dict[Fraction, Tuple[int, int]]) -> Tuple:
    even = odd = 0
    out = []
    for h in sorted(deltas):
        de, do = deltas[h]
        if de == 0 and do == 0:
            continue
        even += de
        odd += do
        out.append((h, (even, odd)))
    return tuple(out)


def euler_curve_from_apd(apd: AugmentedDiagram) -> StepCurve:
    """Augmented Euler characteristic curve from the diagram alone.

    Every k-simplex is exactly one diagram event: a birth in dimension k or a
    death in dimension k-1, at its lower-star height.  So at each level the
    births of dimension k and the deaths of dimension k-1 count toward the
    parity of k, and one pass over the levels sums them into the sublevel
    counts.
    """
    events = apd.events
    counts = [[0] * len(events.levels), [0] * len(events.levels)]
    for k, row in events.rows.items():
        counts[k % 2] = list(map(operator.add, counts[k % 2], row.births))
        counts[1 - k % 2] = list(map(operator.add, counts[1 - k % 2], row.deaths))
    even = odd = 0
    steps = []
    for h, de, do in zip(events.levels, *counts):
        if de or do:
            even += de
            odd += do
            steps.append((h, (even, odd)))
    return StepCurve(tuple(steps), (), (0, 0))


def euler_curve_direct(complex_: SimplicialComplex, direction: Direction) -> StepCurve:
    """The same pair curve computed straight from sublevel simplex counts.

    A simplex enters at its lower-star height, the largest height of its
    vertices.  Raises InvalidInput for a zero direction or one whose length
    is not the ambient dimension of the complex.
    """
    _check_direction(direction, complex_.ambient_dim)
    vh = {v: dot(direction, p) for v, p in complex_.vertices.items()}
    deltas: Dict[Fraction, List[int]] = {}
    for s in complex_.simplices:
        cell = deltas.setdefault(max(vh[v] for v in s), [0, 0])
        cell[(len(s) - 1) % 2] += 1
    return StepCurve(
        _pair_steps({h: (c[0], c[1]) for h, c in deltas.items()}), (), (0, 0)
    )


def ecc_value(pair: Tuple[int, int]) -> int:
    """Euler characteristic from an (even count, odd count) pair."""
    return pair[0] - pair[1]
