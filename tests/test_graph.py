import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

from kpartite import (
    DegreeSequence,
    Graph,
    PartitionProfile,
    clique_union,
    complement,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    decode_graph6,
    degree_sequence,
    disjoint_union,
    empty_graph,
    encode_graph6,
    four_copies,
    havel_hakimi_realize,
    induced_subgraph,
    is_isomorphic,
    max_clique,
    max_independent_set,
    path_graph,
    petersen_graph,
    random_switch_walk,
    turan_graph,
)
from kpartite.formats import decode_dimacs, decode_edge_list, encode_dimacs
from kpartite.graph import iter_bits

from .conftest import graphs_strategy


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_numpy_integer_endpoints():
    g = Graph(64, [(np.int64(0), np.int64(63)), (np.int32(1), np.uint8(2))])
    assert g.m == 2 and g.has_edge(0, 63) and g.edges() == [(0, 63), (1, 2)]
    assert all(type(row) is int for row in g.adjacency_masks())
    with pytest.raises(TypeError):
        Graph(3, [(0.0, 1.0)])


def test_integer_arguments_reject_floats_and_accept_numpy():
    # Counts and sizes are read as integers, never truncated: 2.7 is an error,
    # not a 2.
    for build in (DegreeSequence, PartitionProfile, complete_multipartite, clique_union):
        with pytest.raises(TypeError):
            build([2.7, 2.2, 2.9])
    with pytest.raises(TypeError):
        Graph(3.9)
    sizes = np.array([2, 3], dtype=np.int64)
    assert DegreeSequence(sizes) == DegreeSequence([2, 3])
    assert all(type(d) is int for d in DegreeSequence(sizes))
    assert PartitionProfile(sizes).parts == (2, 3)
    assert Graph(np.int64(3)) == Graph(3)
    assert complete_multipartite(sizes) == complete_multipartite([2, 3])
    assert clique_union(sizes) == clique_union([2, 3])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_graph_equality_and_hash():
    g = cycle_graph(4)
    h = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != path_graph(4)


def test_complement_of_complete_graph_is_edgeless():
    assert complement(complete_graph(5)) == empty_graph(5)


def test_complement_of_c4_is_perfect_matching():
    g = complement(cycle_graph(4))
    assert g.m == 2
    assert sorted(g.degrees()) == [1, 1, 1, 1]


def test_complement_of_clique_union_is_multipartite():
    assert is_isomorphic(
        complement(clique_union([3, 3, 4])), complete_multipartite([3, 3, 4])
    )


@given(graphs_strategy())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs_strategy())
def test_complement_degree_duality(g):
    left = sorted(degree_sequence(complement(g)))
    right = sorted(g.n - 1 - d for d in degree_sequence(g))
    assert left == right


def test_degree_sequence_examples():
    assert sorted(degree_sequence(cycle_graph(4))) == [2, 2, 2, 2]
    assert sorted(degree_sequence(clique_union([3, 3, 4]))) == [2] * 6 + [3] * 4
    assert sorted(degree_sequence(complete_multipartite([3, 3, 4]))) == [6] * 4 + [7] * 6


@given(graphs_strategy())
def test_degree_sum_is_twice_edges(g):
    assert sum(degree_sequence(g)) == 2 * g.m


def test_degrees_are_row_bit_counts_after_every_constructor():
    rng = random.Random(11)
    c6 = cycle_graph(6)
    sparse = Graph(40, [e for e in combinations(range(40), 2) if rng.random() < 0.1])
    graphs = [
        Graph(5, [(0, 1), (1, 0), (3, 4)]),
        Graph(3, [(0, 1), (1, 2)]),
        complement(sparse),
        induced_subgraph(sparse, range(0, 40, 3)),
        disjoint_union([c6, sparse, Graph(2)]),
        empty_graph(4),
        complete_graph(5),
        path_graph(5),
        c6,
        complete_multipartite([1, 2, 3]),
        clique_union([1, 2, 3]),
        petersen_graph(),
        turan_graph(10, 3),
        four_copies(petersen_graph()),
        decode_graph6(encode_graph6(sparse)),
        decode_edge_list("n=9\na b\nb c\na b\nc a\n"),
        decode_dimacs(encode_dimacs(sparse)),
        havel_hakimi_realize(DegreeSequence([3, 3, 2, 2, 2, 1, 1])),
        # C6 after the 2-switch (0, 1), (3, 4) -> (0, 4), (1, 3).
        Graph(6, [(1, 2), (2, 3), (4, 5), (0, 5), (0, 4), (1, 3)]),
        random_switch_walk(sparse, 500, 3),
        # Over half of all pairs: walked on the complement.
        random_switch_walk(complement(sparse), 500, 3),
    ]
    for g in graphs:
        degrees = g.degrees()
        assert degrees == tuple(row.bit_count() for row in g.adjacency_masks())
        assert [g.degree(v) for v in range(g.n)] == list(degrees)
        assert sum(degrees) == 2 * g.m
    for v in (-1, 6):
        with pytest.raises(ValueError):
            c6.degree(v)


def _bin_scan_edges(g: Graph) -> list[tuple[int, int]]:
    """``Graph.edges`` as written before it popped low bits: each row above
    its own vertex is read through ``iter_bits``'s ``bin`` scan.  The oracle
    for the bit-popping loop."""
    return [
        (u, u + 1 + w)
        for u, row in enumerate(g.adjacency_masks())
        for w in iter_bits(row >> (u + 1))
    ]


def test_edges_match_bin_scan():
    rng = random.Random(12)
    graphs = [Graph(0), Graph(1), Graph(50), complete_graph(2), complete_graph(60)]
    for n in (100, 3000):
        # Sparse on high labels, with a few edges down to low ones.
        pairs = [(rng.randrange(n - 60, n), rng.randrange(n - 60, n)) for _ in range(80)]
        pairs += [(rng.randrange(10), rng.randrange(n - 10, n)) for _ in range(5)]
        graphs.append(Graph(n, [(u, v) for u, v in pairs if u != v]))
    for n in (10, 80, 200):
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
    for g in graphs:
        edges = g.edges()
        assert edges == _bin_scan_edges(g)
        assert len(edges) == g.m


def test_induced_subgraph_full_is_identity():
    g = cycle_graph(5)
    assert induced_subgraph(g, range(5)) == g


def test_induced_subgraph_of_k4_is_k3():
    assert induced_subgraph(complete_graph(4), [0, 2, 3]) == complete_graph(3)


def test_induced_c5_minus_vertex_is_p4():
    assert is_isomorphic(induced_subgraph(cycle_graph(5), [0, 1, 2, 3]), path_graph(4))


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(4), [0, 5])


def test_disjoint_union_examples():
    g = disjoint_union([complete_graph(3), complete_graph(3), complete_graph(4)])
    assert g.n == 10 and g.m == 3 + 3 + 6
    assert disjoint_union([]) == Graph(0)
    c5 = cycle_graph(5)
    assert disjoint_union([c5]) == c5


def test_connected_components():
    comps = connected_components(clique_union([3, 3, 4]))
    assert sorted(len(c) for c in comps) == [3, 3, 4]
    assert len(connected_components(cycle_graph(6))) == 1
    assert connected_components(empty_graph(4)) == [frozenset({v}) for v in range(4)]


def test_components_of_disjoint_union_round_trip():
    sizes = [2, 3, 5]
    comps = connected_components(clique_union(sizes))
    assert sorted(len(c) for c in comps) == sizes


def test_alpha_equals_omega_of_complement_small(small_graph_corpus):
    for g in small_graph_corpus:
        assert max_independent_set(g).size == max_clique(complement(g)).size


def test_empty_graph_is_union_identity():
    g = disjoint_union([Graph(0), cycle_graph(3), Graph(0)])
    assert g == cycle_graph(3)
