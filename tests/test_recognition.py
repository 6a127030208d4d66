import tracemalloc
from itertools import combinations

from kpartite import (
    OpCounter,
    PartitionProfile,
    clique_union,
    clique_union_profile_from_degrees,
    complement,
    complete_multipartite,
    connected_components,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_clique_union,
    is_complete_multipartite,
    multipartite_profile_from_degrees,
    path_graph,
    strip_clique_components,
)
from kpartite.recognition import clique_classes


def brute_force_is_multipartite(g):
    """Definitional check: the parts must be the components of the complement,
    with every cross-part pair adjacent and every intra-part pair not."""
    parts = connected_components(complement(g))
    for part in parts:
        for u, v in combinations(sorted(part), 2):
            if g.has_edge(u, v):
                return None
    for i, p1 in enumerate(parts):
        for p2 in parts[i + 1 :]:
            for u in p1:
                for v in p2:
                    if not g.has_edge(u, v):
                        return None
    return tuple(sorted(len(p) for p in parts))


def brute_force_clique_components(g):
    return [
        comp
        for comp in connected_components(g)
        if all(g.has_edge(u, v) for u, v in combinations(sorted(comp), 2))
    ]


def brute_force_is_clique_union(g):
    comps = connected_components(g)
    if len(brute_force_clique_components(g)) != len(comps):
        return None
    return tuple(sorted(len(c) for c in comps))


def test_examples():
    assert is_complete_multipartite(cycle_graph(4)).parts == (2, 2)
    assert is_complete_multipartite(path_graph(4)) is None
    assert is_complete_multipartite(complete_multipartite([3, 3, 4])).parts == (3, 3, 4)
    assert is_clique_union(clique_union([3, 3, 4])).parts == (3, 3, 4)
    assert is_clique_union(cycle_graph(6)) is None
    assert is_clique_union(empty_graph(3)).parts == (1, 1, 1)


def test_empty_graph_gives_empty_profiles():
    g = empty_graph(0)
    assert is_complete_multipartite(g).parts == ()
    assert is_clique_union(g).parts == ()


def test_exhaustive_agreement_small(small_graph_corpus, family_neighbour_corpus):
    """Every graph up to 6 vertices, plus members of both families with up to
    300 vertices, their 2-switch neighbours and complements."""
    for g in small_graph_corpus + family_neighbour_corpus:
        expected_mp = brute_force_is_multipartite(g)
        got_mp = is_complete_multipartite(g)
        assert (got_mp.parts if got_mp else None) == expected_mp

        expected_cu = brute_force_is_clique_union(g)
        got_cu = is_clique_union(g)
        assert (got_cu.parts if got_cu else None) == expected_cu

        comps = connected_components(g)
        cliques = brute_force_clique_components(g)
        profile = PartitionProfile(tuple(len(c) for c in comps))
        remainder, reduced = strip_clique_components(g, profile)
        kept = sorted(set(range(g.n)).difference(*cliques))
        assert remainder == induced_subgraph(g, kept)
        assert reduced.parts == tuple(sorted(len(c) for c in comps if c not in cliques))


def test_exhaustive_duality_small(small_graph_corpus, family_neighbour_corpus):
    for g in small_graph_corpus + family_neighbour_corpus:
        assert (is_complete_multipartite(g) is not None) == (
            is_clique_union(complement(g)) is not None
        )


def test_degree_conditions_match_realizations(small_graph_corpus):
    """A degree sequence admits a clique-union profile iff some graph with
    that degree sequence is a clique union (and dually), checked across every
    sequence realized by a small graph."""
    clique_union_sequences = set()
    multipartite_sequences = set()
    all_sequences = set()
    for g in small_graph_corpus:
        ds = degree_sequence(g)
        all_sequences.add(ds)
        if is_clique_union(g) is not None:
            clique_union_sequences.add(ds)
        if is_complete_multipartite(g) is not None:
            multipartite_sequences.add(ds)
    for ds in all_sequences:
        assert (clique_union_profile_from_degrees(ds) is not None) == (
            ds in clique_union_sequences
        )
        assert (multipartite_profile_from_degrees(ds) is not None) == (
            ds in multipartite_sequences
        )


def test_probe_counts_stay_linear():
    n = 600
    cu = clique_union([3] * (n // 3))
    counter = OpCounter()
    assert is_clique_union(cu, counter=counter) is not None
    assert counter.count <= 4 * (cu.n + cu.m)

    mp = complete_multipartite([2, n - 2])
    counter = OpCounter()
    assert is_complete_multipartite(mp, counter=counter) is not None
    assert counter.count <= 4 * (mp.n + mp.m)


def test_from_degrees_touch_only_multiplicities():
    ds = degree_sequence(clique_union([3] * 50 + [7] * 20))
    counter = OpCounter()
    clique_union_profile_from_degrees(ds, counter=counter)
    assert counter.count == len(ds.multiplicities)


def test_clique_classes_are_lowest_member_and_size():
    g = disjoint_union([path_graph(3), clique_union([2, 1, 3])])
    rows = g.adjacency_masks()
    assert clique_classes(g.n, lambda v: rows[v] | 1 << v) == [(3, 2), (5, 1), (6, 3)]


def test_recognition_keeps_one_mask_at_a_time():
    # An edgeless graph: its 20000 closed masks 1 << v take about 27 MB
    # together, so keeping one at a time stays under 4 MB.  The multipartite
    # rule builds no mask and keeps one count per vertex.
    g = empty_graph(20000)
    tracemalloc.start()
    try:
        assert is_clique_union(g).parts == (1,) * 20000
        assert is_complete_multipartite(g).parts == (20000,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
