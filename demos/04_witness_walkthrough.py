#!/usr/bin/env python3
"""Step-by-step run of the constructive witness.

Given a non-canonical graph that shares its degree sequence with a union of
k cliques, the construction produces an independent set of size k + 1
without any exhaustive search: strip clique components, take a greedy
maximal set in the minimum-degree layers (repairing by a swap if it is too
small), then absorb one new vertex per remaining layer in a single extension
step.
"""

from kpartite import (
    base_independent_set,
    clique_union_profile_from_degrees,
    cycle_graph,
    decode_graph6,
    degree_sequence,
    extend_independent_set,
    initial_proof_state,
    max_independent_set,
    path_graph,
    strip_clique_components,
    validate_certificate,
    witness_independent_set,
)

print("=== P5: one extension round ===")
p5 = path_graph(5)
profile = clique_union_profile_from_degrees(degree_sequence(p5))
print(f"degrees {list(degree_sequence(p5))} -> clique sizes {profile.parts}, k={profile.k}")
state = initial_proof_state(p5, profile)
# Each layer is a vertex mask on the graph's rows; print it as its vertices.
layers = tuple(tuple(v for v in range(p5.n) if mask >> v & 1) for mask in state.layers)
print("layers (by degree):", layers)
state = base_independent_set(state)
print("greedy base in the minimum layers:", list(state.independent))
state = extend_independent_set(state)
print("after extension:", state.independent)
print("exact alpha:", max_independent_set(p5).size)

print()
print("=== C6: the base step already finishes ===")
c6 = cycle_graph(6)
profile = clique_union_profile_from_degrees(degree_sequence(c6))
state = initial_proof_state(c6, profile)
print(f"k = {profile.k}; both parts have the minimum size, so the core is the whole graph")
print("base set:", list(base_independent_set(state).independent))

print()
print("=== Stripping clique components first ===")
from kpartite import complete_graph, disjoint_union

g = disjoint_union([complete_graph(2), path_graph(5)])
profile = clique_union_profile_from_degrees(degree_sequence(g))
print(f"K2 u P5 has clique sizes {profile.parts} (k={profile.k})")
remainder, reduced = strip_clique_components(g, profile)
print(f"stripping removes the K2: remainder n={remainder.n}, profile {reduced.parts}")
cert = witness_independent_set(g)
print(f"final witness: {cert.sorted_vertices()} (size {cert.size} >= k+1 = {profile.k + 1})")
print("valid:", validate_certificate(g, cert))

print()
print("=== A 10-vertex example from the K3 u K3 u K4 class ===")
g = decode_graph6("IBHJCA@c?")
cert = witness_independent_set(g)
print("edges:", g.edges())
print(f"witness: {cert.sorted_vertices()}, exact alpha = {max_independent_set(g).size}")
