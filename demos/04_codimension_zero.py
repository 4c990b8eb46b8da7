"""Recovering full-dimensional simplices through the parabolic lift.

A wedge cannot be formed around a d-simplex in d-space, so filled shapes in
the plane are invisible to the plain predicate.  Lifting every vertex v to
(v, v.v) makes room: the lifted oracle answers diagrams in d+1 dimensions,
and the same predicate then decides the top-dimensional simplices.
"""

from fractions import Fraction

from apdrec import Oracle, build_complex, lift, reconstruct

F = Fraction

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
    print(f"  {truth.vertices[vid]} -> {lifted.vertices[vid]}")

oracle = Oracle(truth)
recovered = reconstruct(oracle, codim_zero=True)
print("\nrecovered 2-simplices:", recovered.simplices_of_dim(2))
assert recovered.simplices == truth.simplices
print("exact recovery, including both filled triangles")
