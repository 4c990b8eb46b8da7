"""The benchmark's workloads: seeded inputs, one timed call per item, and
the correctness gate that each answer must pass.

Library functions are called through their module attributes
(``harness.verify_roundtrip``, ``descriptors.betti_curve_from_apd``, ...) so
that the wrappers a traced run installs there see every call.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List

from apdrec import complexes, descriptors, harness
from apdrec.errors import ApdrecError
from apdrec.geometry import format_rational, primitive_direction
from apdrec.harness import GeneratorConfig
from apdrec.oracle import Oracle, format_diagram


def acceptance_configs() -> List[GeneratorConfig]:
    """The 50 configurations of ``tests/test_acceptance.py``: d in {3, 4, 5},
    n0 <= 10, kappa <= 3, generator seeds 1000+/2000+/3000+."""
    densities = {0: [], 1: [0.5], 2: [0.6, 0.7], 3: [0.7, 0.8, 0.7]}
    configs = []
    for i in range(18):
        kappa = (0, 1, 2)[i % 3]
        n0 = 4 + (3 * i) % 7
        configs.append(GeneratorConfig(3, n0, kappa, densities=densities[kappa], seed=1000 + i))
    for i in range(16):
        kappa = (1, 2, 3, 3)[i % 4]
        n0 = (4 + (2 * i) % 5) if kappa < 3 else 4 + i % 3
        configs.append(GeneratorConfig(4, n0, kappa, densities=densities[kappa], seed=2000 + i))
    for i in range(16):
        kappa = (2, 3)[i % 2]
        n0 = (4 + i % 4) if kappa < 3 else 4 + i % 3
        configs.append(GeneratorConfig(5, n0, kappa, densities=densities[kappa], seed=3000 + i))
    return configs


def graph_configs() -> List[GeneratorConfig]:
    """40 sparse planar graphs: d = 2, kappa = 1, edge density 0.3, n0 14..23."""
    return [
        GeneratorConfig(2, 14 + i % 10, 1, densities=[0.3], seed=4000 + i)
        for i in range(40)
    ]


def move(complex_, rng: random.Random):
    """The complex under a seeded map that keeps general position.

    Each axis is reflected or not and shifted by an integer; the axes beyond
    the first two are permuted.  Such a map keeps the first-axis heights
    distinct, the projection to the first two axes free of collinear
    triples, and every d+1 points affinely independent, so the moved complex
    is as valid an input as the generated one.  Its simplex counts are
    unchanged, so the work a workload does depends little on the seed, while
    every vertex height, sweep order and answer differs.
    """
    d = complex_.ambient_dim
    axes = [0, 1] + rng.sample(range(2, d), d - 2)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shifts = [rng.randint(-16, 16) for _ in range(d)]
    vertices = {
        v: tuple(signs[i] * p[axes[i]] + shifts[i] for i in range(d))
        for v, p in complex_.vertices.items()
    }
    return complexes.build_complex(d, vertices, complex_.simplices)


def canonical_text(complex_) -> str:
    """Text form independent of vertex numbering: vertices sorted by point."""
    order = sorted(complex_.vertices, key=lambda v: complex_.vertices[v])
    rank = {v: i for i, v in enumerate(order)}
    lines = [f"dim {complex_.ambient_dim}"]
    for v in order:
        lines.append(" ".join(format_rational(x) for x in complex_.vertices[v]))
    simplices = sorted(tuple(sorted(rank[v] for v in s)) for s in complex_.simplices)
    lines.extend(" ".join(map(str, s)) for s in simplices)
    return "\n".join(lines) + "\n"


class Reconstruction:
    """Round trip each complex of a corpus through ``verify_roundtrip``.

    The corpus is generated from fixed configurations; seed 0 uses it as
    generated and any other seed moves every complex (see ``move``).  One
    item is one complex.  The gate demands an exact match and every
    query bound (2d-1 vertex queries, the edge budget, 2(2^k-1) queries per
    predicate).  Since an item passes only when the recovered complex equals
    its ground truth up to vertex numbering, the answer recorded for the
    digest is the canonical text of that complex.
    """

    def __init__(self, name: str, configs) -> None:
        self.name = name
        self._configs = configs
        self._counts: Counter = Counter()
        self.items: List = []

    def setup(self, seed: int) -> None:
        self._counts.clear()
        corpus = [harness.generate_complex(c) for c in self._configs()]
        # a fixed interleaving of small and large complexes, so that a slow
        # spell of the machine does not land on the largest ones together
        random.Random(0).shuffle(corpus)
        if seed == 0:
            self.items = corpus
        else:
            rng = random.Random(seed)
            self.items = [move(c, rng) for c in corpus]

    def start_pass(self) -> None:
        pass

    def run(self, i: int):
        return harness.verify_roundtrip(self.items[i])

    def check(self, i: int, report) -> bool:
        return report.exact_match and report.all_bounds_ok

    def answer(self, i: int, report) -> str:
        return canonical_text(self.items[i])

    def tally(self, report) -> None:
        self._counts["oracle_queries"] += report.total_queries
        self._counts["vertex_queries"] += report.vertex_queries
        self._counts["edge_queries"] += report.edge_queries
        for k, _ in report.predicate_calls:
            self._counts[f"predicate_calls.k{k}"] += 1

    def counts(self) -> Dict[str, int]:
        """Exact query accounting of the items tallied so far."""
        return dict(sorted(self._counts.items()))


class ApdStream:
    """A seeded stream of distinct directions against one dense complex.

    The complex is fixed (d = 3, n0 = 24, kappa = 3, densities 0.8,
    generator seed 0: 2016 simplices); the seed draws the directions.  One
    item is one query followed by the Betti curve of every dimension and the
    Euler curve pair.  Each pass asks a fresh ``Oracle``, so no answer is
    served from the per-direction cache of an earlier pass.
    """

    name = "apd-stream"
    length = 200

    def __init__(self) -> None:
        self.items: List = []
        self.complex = None
        self.oracle = None
        self._dims = 0
        self._sizes: Dict[int, int] = {}

    def setup(self, seed: int) -> None:
        self.complex = harness.generate_complex(
            GeneratorConfig(3, 24, 3, densities=[0.8], seed=0)
        )
        rng = random.Random(seed)
        seen = set()
        directions = []
        while len(directions) < self.length:
            d = tuple(Fraction(rng.randint(-1000, 1000)) for _ in range(3))
            if all(x == 0 for x in d):
                continue
            canon = primitive_direction(d)
            if canon not in seen:
                seen.add(canon)
                directions.append(d)
        self.items = directions
        self._sizes = Counter(len(s) - 1 for s in self.complex.simplices)
        self._dims = max(self._sizes) + 1

    def start_pass(self) -> None:
        self.oracle = Oracle(self.complex)

    def run(self, i: int):
        dgm = self.oracle.query(self.items[i])
        for k in range(self._dims):
            descriptors.betti_curve_from_apd(dgm, k)
        return dgm, descriptors.euler_curve_from_apd(dgm)

    def check(self, i: int, out) -> bool:
        """Euler curve from the diagram equals the direct one, and each
        k-simplex is exactly one event: a birth in k or a death in k-1."""
        dgm, euler = out
        if euler != descriptors.euler_curve_direct(self.complex, self.items[i]):
            return False
        births = Counter(p.dim for p in dgm.points)
        deaths = Counter(p.dim + 1 for p in dgm.points if not p.essential)
        return all(
            births[k] + deaths[k] == self._sizes.get(k, 0)
            for k in range(self._dims + 1)
        )

    def answer(self, i: int, out) -> str:
        return format_diagram(out[0])

    def tally(self, out) -> None:
        pass

    def counts(self) -> Dict[str, int]:
        return {"oracle_queries": self.oracle.log.count}


def make(name: str):
    if name == "roundtrip":
        return Reconstruction("roundtrip", acceptance_configs)
    if name == "graph-sweep":
        return Reconstruction("graph-sweep", graph_configs)
    if name == "apd-stream":
        return ApdStream()
    raise KeyError(name)


WORKLOADS = ("roundtrip", "graph-sweep", "apd-stream")
ITEM_ERRORS = (ApdrecError,)
