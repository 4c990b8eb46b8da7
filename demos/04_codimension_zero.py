"""Recovering full-dimensional simplices through the parabolic lift.

A wedge cannot be formed around a d-simplex in d-space, so filled shapes in
the plane are invisible to the plain predicate.  Lifting every vertex v to
(v, v.v) makes room: the lifted oracle answers diagrams in d+1 dimensions,
and the same predicate then decides the top-dimensional simplices.

No option switches this on.  Every diagram holds one event per simplex, so
the first diagram of the vertex stage already counts the d-simplices, and
``reconstruct`` runs the lifted pass exactly when that count is nonzero.
"""

from apdrec import Oracle, build_complex, compute_apd, lift, reconstruct

# two filled triangles glued along an edge
truth = build_complex(
    2,
    {0: (0, 0), 1: (1, 2), 2: (2, 1), 3: (3, 3)},
    [(0, 1, 2), (1, 2, 3)],
)
print("hidden shape: two filled triangles sharing edge (1, 2)")

lifted = lift(truth)
print("\nparabolic lift of the vertices:")
for vid in sorted(truth.vertices):
    before, after = (", ".join(map(str, c.vertices[vid])) for c in (truth, lifted))
    print(f"  ({before}) -> ({after})")

# the vertex stage's first query; any one diagram would show the same count
sweep = compute_apd(truth, (1, 0))
print("\n2-simplices counted by the e1 diagram:", sweep.simplex_count(2))

oracle = Oracle(truth)
recovered = reconstruct(oracle)
print("recovered 2-simplices:", recovered.simplices_of_dim(2))
lifted_calls = [q for k, q in oracle.log.predicate_calls if k == 2]
print(f"lifted predicate calls: {len(lifted_calls)}, {sum(lifted_calls)} queries")
assert recovered.simplices == truth.simplices
print("exact recovery, including both filled triangles")
