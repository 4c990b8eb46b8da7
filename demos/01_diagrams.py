"""Augmented diagrams from lower-star filtrations, step by step.

Builds a small embedded complex, queries a few directions, and shows why the
zero-persistence points matter: with them, every simplex of the complex is
visible as exactly one birth or death event, at its own height.
"""

from fractions import Fraction

from apdrec import build_complex, compute_apd, format_diagram

F = Fraction

# a filled triangle glued to a dangling edge, embedded in the plane
K = build_complex(
    2,
    {0: (0, 0), 1: (1, 2), 2: (2, 1), 3: (3, 3)},
    [(0, 1, 2), (2, 3)],
)
print(f"complex: {len(K.vertices)} vertices, "
      f"{K.n_k(1)} edges, {K.n_k(2)} triangles\n")

for direction in [(1, 0), (0, 1), (-1, 0), (F(1, 2), F(1, 3))]:
    dgm = compute_apd(K, direction)
    print(format_diagram(dgm))

# Lemma-style accounting: births in dim k plus deaths in dim k-1 at height c
# equal the number of k-simplices entering at c.
direction = (1, 0)
dgm = compute_apd(K, direction)
print("simplex-count identity in direction (1, 0):")
for k in range(3):
    for c in sorted({p.birth for p in dgm.points}):
        got = dgm.count_at(k, c)
        if got:
            print(f"  {got} simplices of dim {k} enter at height {c}")

events = len(dgm.points) + sum(1 for p in dgm.points if not p.essential)
print(f"\nbirth+death events: {events} == total simplices: {K.n}")
