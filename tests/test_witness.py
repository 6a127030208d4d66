import hashlib
import tracemalloc

import numpy as np
import pytest

from kpartite import (
    CanonicalGraphError,
    Graph,
    OpCounter,
    OutsideFamilyError,
    PartitionProfile,
    ProofState,
    ProofStateError,
    base_independent_set,
    clique_union,
    clique_union_profile_from_degrees,
    complement,
    complete_graph,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    encode_graph6,
    enumerate_realizations,
    extend_independent_set,
    initial_proof_state,
    is_clique_union,
    iter_profiles,
    max_independent_set,
    multipartite_profile_from_degrees,
    path_graph,
    random_switch_walk,
    strip_clique_components,
    validate_certificate,
    witness_clique,
    witness_independent_set,
)
from kpartite import witness as witness_module
from kpartite.sequences import CLIQUE_SIZES


def test_witness_on_c6():
    cert = witness_independent_set(cycle_graph(6))
    assert cert.sorted_vertices() == (0, 2, 4)
    assert validate_certificate(cycle_graph(6), cert)


def test_witness_on_p5():
    cert = witness_independent_set(path_graph(5))
    assert cert.sorted_vertices() == (0, 2, 4)


def test_witness_rejects_canonical_and_foreign_graphs():
    with pytest.raises(CanonicalGraphError):
        witness_independent_set(clique_union([3, 3, 4]))
    with pytest.raises(OutsideFamilyError):
        witness_independent_set(path_graph(4))


def test_witness_swap_repair_branch():
    # a relabeling of C6 whose greedy core set has exactly the minimum size,
    # forcing the swap of one chosen vertex for two of its neighbors
    g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4), (2, 5)])
    cert = witness_independent_set(g)
    assert validate_certificate(g, cert)
    assert cert.size >= 3


def test_witness_strips_clique_components():
    g = disjoint_union([complete_graph(2), path_graph(5)])
    cert = witness_independent_set(g)
    assert validate_certificate(g, cert)
    assert cert.size >= 4  # k = 3 parts (2, 2, 3)

    g = disjoint_union([path_graph(5), complete_graph(3)])
    cert = witness_independent_set(g)
    assert validate_certificate(g, cert)
    assert cert.size >= 4


def test_witness_with_small_clique_components_inside_core():
    # P3 u P4 realizes the degrees of K2 u K2 u K3; its min layers hold the
    # four leaves, and the stripped graph has no clique components even
    # though the core induces isolated vertices.
    g = disjoint_union([path_graph(3), path_graph(4)])
    cert = witness_independent_set(g)
    assert validate_certificate(g, cert)
    assert cert.size >= 4


def test_strip_examples():
    g = disjoint_union([path_graph(5), complete_graph(3)])
    remainder, reduced = strip_clique_components(g, PartitionProfile((2, 3, 3)))
    assert remainder.n == 5 and reduced.parts == (2, 3)

    g = clique_union([3, 3])
    remainder, reduced = strip_clique_components(g, PartitionProfile((3, 3)))
    assert remainder.n == 0 and reduced.parts == ()

    c6 = cycle_graph(6)
    remainder, reduced = strip_clique_components(c6, PartitionProfile((3, 3)))
    assert remainder == c6 and reduced.parts == (3, 3)


def test_strip_names_the_parts_left_when_a_clique_has_no_part():
    with pytest.raises(ProofStateError, match=r"size 2 has no matching part in \[1, 3\]$"):
        strip_clique_components(clique_union([2, 3]), PartitionProfile((1, 3)))


def test_strip_keeps_one_mask_at_a_time():
    # 20000 isolated vertices and a C6: the certificate has 20003 vertices.
    # The 20000 closed masks of the isolated vertices take about 27 MB
    # together, so the strip keeps one at a time.
    g = disjoint_union([Graph(20000), cycle_graph(6)])
    tracemalloc.start()
    try:
        cert = witness_independent_set(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.size == 20003 and validate_certificate(g, cert)
    assert peak < 4 * 2**20


def test_base_independent_set_on_c6():
    state = initial_proof_state(cycle_graph(6), PartitionProfile((3, 3)))
    state = base_independent_set(state)
    assert state.independent == (0, 2, 4)
    # Both layers are minimum layers: k + 1 members and no free vertex left.
    assert state.level == 0 and state.free == 0


def test_base_independent_set_on_c9():
    state = initial_proof_state(cycle_graph(9), PartitionProfile((3, 3, 3)))
    state = base_independent_set(state)
    assert state.independent == (0, 2, 4, 6)
    assert state.chosen == 0b1010101


def test_extension_on_p5():
    g = path_graph(5)
    state = initial_proof_state(g, PartitionProfile((2, 3)))
    state = base_independent_set(state)
    assert state.independent == (0, 4)
    assert state.blocked == 0b11011
    state = extend_independent_set(state)
    assert set(state.independent) == {0, 2, 4}
    with pytest.raises(ProofStateError):
        extend_independent_set(state)


def test_initial_proof_state_rejects_empty_profile():
    with pytest.raises(ProofStateError):
        initial_proof_state(Graph(0), PartitionProfile((), CLIQUE_SIZES))


def test_witness_clique_duals():
    cert = witness_clique(complement(cycle_graph(6)))
    assert cert.size == 3
    assert validate_certificate(complement(cycle_graph(6)), cert)

    cert = witness_clique(complement(path_graph(5)))
    assert cert.size == 3

    from kpartite import complete_multipartite

    with pytest.raises(CanonicalGraphError):
        witness_clique(complete_multipartite([3, 3, 4]))


def _min_degree_greedy(g: Graph) -> list[int]:
    """Griggs's greedy: take a vertex of least degree among those left,
    lowest index on ties, and delete its closed neighbourhood, until no
    vertex is left.  The independent set it returns has at least the
    Caro-Wei bound, sum 1/(d(v) + 1), many vertices."""
    rows = g.adjacency_masks()
    left = (1 << g.n) - 1
    chosen = []
    while left:
        v = min(
            (u for u in range(g.n) if left >> u & 1),
            key=lambda u: (rows[u] & left).bit_count(),
        )
        chosen.append(v)
        left &= ~(rows[v] | 1 << v)
    return chosen


def test_witness_sound_on_every_noncanonical_realization_up_to_10():
    # The paper's constructive direction, exhaustively: every non-canonical
    # realization of every clique-union profile up to total 10 gets a valid
    # certificate with k + 1 <= size <= alpha.  A second oracle, independent
    # of the witness and of the exact solver: Caro-Wei is exactly k on the
    # class, and the min-degree greedy finds k vertices only on the clique
    # union, so it finds at least k + 1 on every other member.
    noncanonical = 0
    for profile in iter_profiles(10):
        k = profile.k
        for g in enumerate_realizations(profile.degree_sequence()):
            greedy = _min_degree_greedy(g)
            assert not any(g.has_edge(u, v) for u in greedy for v in greedy)
            if is_clique_union(g) is not None:
                assert len(greedy) == k
                with pytest.raises(CanonicalGraphError):
                    witness_independent_set(g)
                continue
            noncanonical += 1
            assert len(greedy) >= k + 1
            cert = witness_independent_set(g)
            assert validate_certificate(g, cert)
            assert cert.size >= k + 1
            assert cert.size <= max_independent_set(g).size
    assert noncanonical == 2313


def test_witness_on_large_random_family_members():
    rng = np.random.Generator(np.random.PCG64(17))
    for n in [60, 120, 200]:
        parts = []
        left = n
        while left > 0:
            a = int(rng.integers(2, min(left, 9) + 1)) if left > 1 else 1
            parts.append(a)
            left -= a
        profile = PartitionProfile(tuple(parts))
        canonical = clique_union(profile.parts)
        g = random_switch_walk(canonical, steps=4 * canonical.m, seed=n)
        if is_clique_union(g) is not None:
            continue
        counter = OpCounter()
        cert = witness_independent_set(g, counter=counter)
        assert validate_certificate(g, cert)
        assert cert.size >= profile.k + 1
        # Linear in counted steps; a step works on n-bit rows.
        assert counter.count <= 2 * (n + g.m)


def _switched_clique_union(n, seed):
    """A seeded non-canonical clique-union-class member on n vertices."""
    parts, total = [], 0
    while total < n:
        parts.append(min(n - total, 2 + (len(parts) * 5) % 7))
        total += parts[-1]
    canonical = clique_union(parts)
    return random_switch_walk(canonical, steps=4 * canonical.m, seed=seed)


def _digest_corpus():
    """Every non-canonical realization up to 9 vertices and three switched
    members with 200-500 vertices."""
    corpus = [
        g
        for profile in iter_profiles(9)
        for g in enumerate_realizations(profile.degree_sequence())
        if is_clique_union(g) is None
    ]
    return corpus + [_switched_clique_union(n, seed=n) for n in (200, 350, 500)]


def test_witness_certificates_match_recorded_digest():
    # Both witnesses on the corpus; the digest pins every certificate, so any
    # change to one shows here.
    corpus = _digest_corpus()
    digest = hashlib.sha256()
    for g in corpus:
        independent = witness_independent_set(g).sorted_vertices()
        clique = witness_clique(complement(g)).sorted_vertices()
        digest.update(f"{encode_graph6(g)} {independent} {clique}\n".encode())
    assert len(corpus) == 510
    assert digest.hexdigest() == (
        "630a77d6caf96d2520d7d8a7fd8e8c5082b3575171080b074c83c5ed7d63b1ef"
    )


def test_public_steps_are_the_production_path():
    # The public steps from the initial state give the production certificate
    # on the remainder of every graph of the digest corpus after its clique
    # components are stripped; a graph without any is its own remainder.
    for g in _digest_corpus():
        profile = clique_union_profile_from_degrees(degree_sequence(g))
        h, reduced = strip_clique_components(g, profile)
        counter = OpCounter()
        state = base_independent_set(initial_proof_state(h, reduced), counter)
        while len(state.independent) < reduced.k + 1:
            state = extend_independent_set(state, counter)
        assert state.independent == witness_independent_set(h).sorted_vertices()
        # Linear in counted steps, as for the whole witness.
        assert counter.count <= 2 * (h.n + h.m)


def test_one_extension_call_adds_every_remaining_layer():
    # One call brings in all layers the base step leaves, with one counted
    # step per layer, and ends at k + 1 members with no layer left.
    several_left = 0
    for g in _digest_corpus():
        profile = clique_union_profile_from_degrees(degree_sequence(g))
        h, reduced = strip_clique_components(g, profile)
        state = base_independent_set(initial_proof_state(h, reduced))
        left = reduced.k - state.min_part_count - state.level
        if left < 2:
            continue
        several_left += 1
        counter = OpCounter()
        state = extend_independent_set(state, counter)
        assert counter.count == left
        assert len(state.independent) == reduced.k + 1
        with pytest.raises(ProofStateError, match="no further layers"):
            extend_independent_set(state)
    assert several_left > 0


def test_witness_builds_three_states(monkeypatch):
    # Initial, base and extended: the number of states does not grow with
    # the number of layers, and this member leaves 763 after the base step.
    built = []

    def counted(*fields):
        built.append(fields)
        return ProofState(*fields)

    g = _switched_clique_union(5333, seed=1)
    monkeypatch.setattr(witness_module, "ProofState", counted)
    cert = witness_independent_set(g)
    assert validate_certificate(g, cert)
    assert 0 < len(built) <= 3


def test_witness_clique_on_dense_8000_vertex_member():
    # A complete-multipartite-class member with 8000 vertices and about
    # 32 million edges, built in memory.
    g = complement(_switched_clique_union(8000, seed=1))
    assert g.m > 31_000_000
    cert = witness_clique(g)
    assert cert.size >= multipartite_profile_from_degrees(degree_sequence(g)).k + 1
    assert validate_certificate(g, cert)
