"""Reconstructing an unknown complex purely from diagram queries.

The reconstruction code never touches the ground-truth complex: it sees only
an oracle answering directional diagram queries.  This demo generates a
random general-position complex, hides it behind the oracle, reconstructs
it, and audits how many diagrams each stage consumed against the analytic
budgets.
"""

from apdrec import (
    GeneratorConfig,
    Oracle,
    complexes_match,
    edge_query_bound,
    generate_complex,
    reconstruct,
    serialize_complex,
)

config = GeneratorConfig(
    ambient_dim=4, vertex_count=7, max_dim=3, densities=[0.7, 0.8, 0.7], seed=42
)
truth = generate_complex(config)
print("hidden complex:",
      {k: truth.n_k(k) for k in range(truth.kappa + 1)}, "simplices by dim\n")

oracle = Oracle(truth)
recovered = reconstruct(oracle)  # each stage accounts for itself in oracle.log

print("exact reconstruction:", complexes_match(recovered, truth))

d, n0 = config.ambient_dim, config.vertex_count
print(f"\nvertex stage:  {oracle.log.queries('vertices')} diagrams "
      f"(budget: exactly {2*d-1})")
print(f"edge stage:    {oracle.log.queries('edges')} diagrams "
      f"(budget: <= {edge_query_bound(truth, n0)})")
by_k = {}
for k, q in oracle.log.predicate_calls:
    by_k.setdefault(k, []).append(q)
for k, qs in sorted(by_k.items()):
    assert set(qs) == {2 * (2**k - 1)}
    print(f"dim-{k} predicate: {len(qs)} calls x {2*(2**k-1)} diagrams each")
print(f"total:         {oracle.log.count} diagrams")

print("\nrecovered complex, serialized:")
print(serialize_complex(recovered))
