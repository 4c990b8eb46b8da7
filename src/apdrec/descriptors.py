"""Betti curves and Euler characteristic curves derived from diagrams.

Both are decorated step functions of the filtration height.  The augmented
Euler curve is integer-pair valued: (count of even-dimensional simplices,
count of odd-dimensional simplices) in the sublevel set; the classical Euler
characteristic is their difference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Tuple

from .complexes import SimplicialComplex
from .geometry import Direction
from .oracle import AugmentedDiagram, lower_star_heights


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
        i = bisect_right(self.breakpoints, p, key=itemgetter(0))
        return self.zero if i == 0 else self.breakpoints[i - 1][1]

    def heights(self) -> List[Fraction]:
        return [h for h, _ in self.breakpoints]


def _steps_from_deltas(deltas: Dict[Fraction, int], zero: int = 0) -> Tuple:
    value = zero
    out = []
    for h in sorted(deltas):
        if deltas[h] == 0:
            continue
        value += deltas[h]
        out.append((h, value))
    return tuple(out)


def betti_curve_from_apd(apd: AugmentedDiagram, k: int) -> StepCurve:
    """k-th augmented Betti curve read off the diagram.

    Step value at p counts points with birth <= p < death.  A zero
    persistence pair never steps; it decorates its height with the momentary
    count of classes alive there (birth <= c <= death).  Since no point dies
    before it is born, that count is the number of births at or below c
    minus the number of finite deaths strictly below c, two bisections into
    the sorted lists.
    """
    births: List[Fraction] = []
    finite_deaths: List[Fraction] = []
    deltas: Dict[Fraction, int] = {}
    decoration_heights = set()
    for p in apd.in_dim(k):
        births.append(p.birth)
        if not p.essential:
            finite_deaths.append(p.death)
        if p.zero_persistence:
            decoration_heights.add(p.birth)
            continue
        deltas[p.birth] = deltas.get(p.birth, 0) + 1
        if not p.essential:
            deltas[p.death] = deltas.get(p.death, 0) - 1
    births.sort()
    finite_deaths.sort()
    decorations = tuple(
        (c, bisect_right(births, c) - bisect_left(finite_deaths, c))
        for c in sorted(decoration_heights)
    )
    return StepCurve(_steps_from_deltas(deltas), decorations, 0)


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
    death in dimension k-1, at its lower-star height.  Counting those events
    by parity of the simplex dimension reproduces the sublevel counts.
    """
    deltas: Dict[Fraction, List[int]] = {}

    def bump(height: Fraction, dim: int) -> None:
        cell = deltas.setdefault(height, [0, 0])
        cell[dim % 2] += 1

    for p in apd.points:
        bump(p.birth, p.dim)
        if not p.essential:
            bump(p.death, p.dim + 1)
    return StepCurve(
        _pair_steps({h: (c[0], c[1]) for h, c in deltas.items()}), (), (0, 0)
    )


def euler_curve_direct(complex_: SimplicialComplex, direction: Direction) -> StepCurve:
    """The same pair curve computed straight from sublevel simplex counts."""
    heights = lower_star_heights(complex_, direction)
    deltas: Dict[Fraction, List[int]] = {}
    for s, h in heights.items():
        cell = deltas.setdefault(h, [0, 0])
        cell[(len(s) - 1) % 2] += 1
    return StepCurve(
        _pair_steps({h: (c[0], c[1]) for h, c in deltas.items()}), (), (0, 0)
    )


def ecc_value(pair: Tuple[int, int]) -> int:
    """Euler characteristic from an (even count, odd count) pair."""
    return pair[0] - pair[1]
