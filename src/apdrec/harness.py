"""Random general-position complexes and round-trip verification.

The generator draws vertices as integer numerators over the coordinate
denominator bound, in [-4 * bound, 4 * bound]; a config with more vertices
than the 8 * bound + 1 first coordinates there is refused before any draw.
It rejects a candidate on a first-axis tie or on any witness of a
``complexes.PositionCheck`` over the accepted points (with
``lift_general_position``, also of a second check over their lifted
numerators in dimension d+1); neither a common scale nor the linear map
between the two lifts changes a witness.  The checks keep their direction
buckets and hyperplanes across candidates, so a candidate costs O(i) bucket
steps plus one dot product per cached d-subset, and no rank test once i >= d.
It then grows the simplex set dimension by dimension: a candidate is
eligible only once all its facets were accepted, and is kept with the
configured per-dimension probability.  The output is face-closed and
byte-reproducible per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .complexes import PositionCheck, Simplex, SimplicialComplex, build_complex
from .errors import GenerationFailure, InvalidInput
from .geometry import dot
from .higher import reconstruct
from .oracle import Oracle

_REJECTION_LIMIT = 5000  # vertex candidates rejected before generation fails


@dataclass
class GeneratorConfig:
    ambient_dim: int
    vertex_count: int
    max_dim: int
    densities: Sequence[float] = (0.5,)
    seed: int = 0
    coordinate_denominator_bound: int = 64
    lift_general_position: bool = False  # also keep lifted d+2 subsets independent

    def density(self, dim: int) -> float:
        """Acceptance probability for simplices of the given dimension >= 1."""
        if not self.densities:
            return 0.0
        idx = min(dim - 1, len(self.densities) - 1)
        return float(self.densities[idx])


def generate_complex(config: GeneratorConfig) -> SimplicialComplex:
    """Deterministic random complex satisfying the general position checks.

    Raises InvalidInput for a dimension, count or bound that is no int, a
    density that is no real number, and for any value out of its range."""
    d, n0, kappa = config.ambient_dim, config.vertex_count, config.max_dim
    bound = config.coordinate_denominator_bound
    if not all(isinstance(x, int) for x in (d, n0, kappa, bound)):
        raise InvalidInput("dimensions, counts and bounds must be ints")
    if d < 2:
        raise InvalidInput("generator needs ambient dimension >= 2")
    if n0 < 1:
        raise InvalidInput("need at least one vertex")
    if not 0 <= kappa <= d:
        raise InvalidInput("simplex dimension must lie in 0..ambient dimension")
    if not all(isinstance(x, Real) and 0 <= x <= 1 for x in config.densities):
        raise InvalidInput("densities must be real numbers in [0, 1]")
    if bound < 1:
        raise InvalidInput("coordinate denominator bound must be at least 1")
    span = 4 * bound
    if n0 > 2 * span + 1:
        raise InvalidInput(
            f"{n0} vertices need distinct first coordinates, but denominator "
            f"bound {bound} leaves {2 * span + 1}"
        )
    rng = random.Random(config.seed)

    firsts: Set[int] = set()
    check = PositionCheck(d)
    lifted = PositionCheck(d + 1) if config.lift_general_position else None
    rejections = 0
    while len(check.points) < n0:
        p = tuple(rng.randint(-span, span) for _ in range(d))
        q = p + (dot(p, p),)
        if (
            p[0] in firsts
            or any(check.witnesses(p))
            or lifted is not None
            and any(lifted.witnesses(q))
        ):
            rejections += 1
            if rejections > _REJECTION_LIMIT:
                raise GenerationFailure(f"exceeded {_REJECTION_LIMIT} vertex rejections")
            continue
        firsts.add(p[0])
        check.add(p)
        if lifted is not None:
            lifted.add(q)

    accepted: Dict[int, Set[Simplex]] = {0: {(v,) for v in range(n0)}}
    for dim in range(1, kappa + 1):
        density = config.density(dim)
        accepted[dim] = set()
        lower = accepted[dim - 1]
        # a candidate whose facets are all accepted is one of them extended
        # by a vertex above its last; with the facets in sorted order the
        # candidates run in lexicographic order, so the draws are those of a
        # walk over combinations(range(n0), dim + 1)
        for facet in sorted(lower):
            for v in range(facet[-1] + 1, n0):
                candidate = facet + (v,)
                if all(
                    candidate[:i] + candidate[i + 1 :] in lower for i in range(dim)
                ):
                    if rng.random() < density:
                        accepted[dim].add(candidate)

    simplices = set().union(*accepted.values())
    vertex_map = {
        i: tuple(Fraction(x, bound) for x in p) for i, p in enumerate(check.points)
    }
    return build_complex(d, vertex_map, simplices)


# ---------------------------------------------------------------------------
# round-trip verification


def edge_query_bound(complex_: SimplicialComplex, n0: int) -> int:
    """Concrete per-run budget for the edge stage.

    The stage asks one shared diagram plus one diagram per split.  A piece
    of a vertex's candidates is split only while it holds both an endpoint
    and a non-endpoint, so each of the at most 2 deg(v) + 1 runs of one
    kind in its radial order ends in at most ceil(log2 n0) + 1 nested
    splits.  The budget counts two diagrams a split, a factor 2 to spare
    kept from a search that asked two.
    """
    log_term = (n0 - 1).bit_length() + 1 if n0 > 1 else 1
    degree: Dict[int, int] = {v: 0 for v in complex_.vertices}
    for edge in complex_.simplices_of_dim(1):
        degree[edge[0]] += 1
        degree[edge[1]] += 1
    return 1 + 2 * sum((2 * degree[v] + 1) * log_term for v in complex_.vertices)


@dataclass
class VerificationReport:
    exact_match: bool
    vertex_queries: int
    edge_queries: int
    predicate_calls: List[Tuple[int, int]]
    total_queries: int
    vertex_bound_ok: bool
    edge_bound: int
    edge_bound_ok: bool
    predicate_bound_ok: bool
    missing: List[Simplex] = field(default_factory=list)
    extra: List[Simplex] = field(default_factory=list)
    used_fallback_basis: bool = False

    @property
    def all_bounds_ok(self) -> bool:
        return self.vertex_bound_ok and self.edge_bound_ok and self.predicate_bound_ok


def _in_truth_ids(
    recovered: SimplicialComplex, truth: SimplicialComplex
) -> Optional[Set[Simplex]]:
    """The recovered simplices over ground-truth vertex ids, matched by exact
    coordinates; None unless the vertices match one to one."""
    by_point = {p: vid for vid, p in truth.vertices.items()}
    mapping = {}
    for vid, p in recovered.vertices.items():
        if p not in by_point:
            return None
        mapping[vid] = by_point[p]
    if len(set(mapping.values())) != len(truth.vertices):
        return None
    return {tuple(sorted(mapping[v] for v in s)) for s in recovered.simplices}


def complexes_match(recovered: SimplicialComplex, truth: SimplicialComplex) -> bool:
    """Exact equality of embedded complexes, up to vertex relabeling.

    Reconstruction numbers vertices in sweep order, which need not match the
    ground truth's ids; points are matched by exact coordinates first.
    """
    if recovered.ambient_dim != truth.ambient_dim:
        return False
    return _in_truth_ids(recovered, truth) == set(truth.simplices)


def verify_roundtrip(truth: SimplicialComplex) -> VerificationReport:
    """Reconstruct from a fresh oracle over the truth and audit everything.

    The query counts come from the oracle's log.  Whether the vertex stage
    needed the tilted basis is read off the truth (first coordinates not all
    distinct), not from the code under audit.
    """
    oracle = Oracle(truth)
    recovered = reconstruct(oracle)
    log = oracle.log

    matched = _in_truth_ids(recovered, truth)
    recovered_set = matched or set()
    truth_set = set(truth.simplices)
    missing = sorted(truth_set - recovered_set, key=lambda s: (len(s), s))
    extra = sorted(recovered_set - truth_set, key=lambda s: (len(s), s))
    exact = matched == truth_set

    d = truth.ambient_dim
    n0 = len(truth.vertices)
    first = {p[0] for p in truth.vertices.values()}
    used_fallback = len(first) != n0
    vertex_queries = log.queries("vertices")
    edge_queries = log.queries("edges")
    predicate_calls = log.predicate_calls
    bound = edge_query_bound(truth, n0)
    return VerificationReport(
        exact_match=exact,
        vertex_queries=vertex_queries,
        edge_queries=edge_queries,
        predicate_calls=predicate_calls,
        total_queries=log.count,
        vertex_bound_ok=vertex_queries == 2 * d - 1 + (2 if used_fallback else 0),
        edge_bound=bound,
        edge_bound_ok=edge_queries <= bound,
        predicate_bound_ok=all(q == 2 * (2**k - 1) for k, q in predicate_calls),
        missing=missing,
        extra=extra,
        used_fallback_basis=used_fallback,
    )
