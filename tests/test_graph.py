import numpy as np
import pytest
from hypothesis import given

from kpartite import (
    Graph,
    clique_union,
    complement,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_isomorphic,
    max_clique,
    max_independent_set,
    path_graph,
)

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


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_graph_equality_and_hash():
    g = cycle_graph(4)
    h = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != path_graph(4)


def test_from_adjacency_requires_symmetry():
    g = Graph.from_adjacency([[1], [0, 2], [1]])
    assert g == path_graph(3)
    with pytest.raises(ValueError):
        Graph.from_adjacency([[1], []])


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
