import networkx as nx
import pytest
from hypothesis import given, settings

from kpartite import (
    FormatError,
    Graph,
    clique_union,
    complement,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    is_isomorphic,
    load_graph,
    load_graphs,
    petersen_graph,
    random_switch_walk,
    save_graph,
    save_graphs,
)
from kpartite.formats import (
    decode_dimacs,
    decode_edge_list,
    encode_dimacs,
    encode_edge_list,
    infer_format,
)

from .conftest import graphs_strategy


@given(graphs_strategy(max_n=12))
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@given(graphs_strategy(max_n=9))
@settings(max_examples=60)
def test_graph6_matches_networkx(g):
    ours = encode_graph6(g)
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == theirs


def test_graph6_header_and_errors():
    g = cycle_graph(5)
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g
    with pytest.raises(FormatError):
        decode_graph6("")
    with pytest.raises(FormatError):
        decode_graph6("D?")  # truncated body for n=5


def test_graph6_long_form():
    g = Graph(63, [(0, 62)])
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_matches_networkx_at_1001_vertices_sparse_and_dense():
    # 1001 vertices take the long-form header, and the body's last byte
    # carries two padding bits.
    sparse = random_switch_walk(clique_union([7] * 143), steps=6000, seed=5)
    for g in (sparse, complement(sparse)):
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        ours = encode_graph6(g)
        assert ours[0] == "~" and ours == theirs
        assert decode_graph6(theirs) == g
        # Nonzero padding bits are ignored, not rejected.
        padded = theirs[:-1] + chr(((ord(theirs[-1]) - 63) | 0b11) + 63)
        assert padded != theirs and decode_graph6(padded) == g


@given(graphs_strategy(max_n=9))
@settings(max_examples=40)
def test_edge_list_round_trip_up_to_isomorphism(g):
    h = decode_edge_list(encode_edge_list(g))
    assert h.n == g.n and h.m == g.m
    assert is_isomorphic(g, h)


def test_edge_list_header_and_labels():
    g = decode_edge_list("n=5\nalpha beta\nbeta gamma\n")
    assert g.n == 5 and g.m == 2
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(FormatError):
        decode_edge_list("n=1\n0 1\n")
    with pytest.raises(FormatError):
        decode_edge_list("0 0\n")
    with pytest.raises(FormatError):
        decode_edge_list("0 1 2\n")
    # Header counts stop at the graph6 limit and are checked before any row
    # is built, so a 13-byte file cannot ask for a billion rows.
    assert decode_edge_list("n=258047\n").n == 258047
    for text in ("n=258048\n0 1\n", "n=1000000000\n", "n=-1\n"):
        with pytest.raises(FormatError):
            decode_edge_list(text)


@given(graphs_strategy(max_n=9))
@settings(max_examples=40)
def test_dimacs_round_trip_exact(g):
    assert decode_dimacs(encode_dimacs(g)) == g


def test_dimacs_parsing():
    text = "c comment\np edge 4 2\ne 1 2\ne 3 4\n"
    g = decode_dimacs(text)
    assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]
    with pytest.raises(FormatError):
        decode_dimacs("e 1 2\n")
    with pytest.raises(FormatError):
        decode_dimacs("p edge 2 5\ne 1 2\n")
    with pytest.raises(FormatError):
        decode_dimacs("p edge 2 1\ne 1 5\n")
    assert decode_dimacs("p edge 258047 0\n").n == 258047
    for text in ("p edge 258048 1\ne 1 2\n", "p edge 1000000000 0\n", "p edge -1 0\n"):
        with pytest.raises(FormatError):
            decode_dimacs(text)


def test_file_io_and_format_inference(tmp_path):
    g = petersen_graph()
    for name in ["g.g6", "g.edges", "g.col"]:
        path = tmp_path / name
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert is_isomorphic(loaded, g)
    assert infer_format("x.g6") == "graph6"
    assert infer_format("x.col") == "dimacs"
    assert infer_format("x.edges") == "edges"


def test_multi_graph_file(tmp_path):
    graphs = [cycle_graph(n) for n in range(3, 8)]
    path = tmp_path / "all.g6"
    save_graphs(graphs, str(path))
    loaded = load_graphs(str(path))
    assert loaded == graphs
    with pytest.raises(FormatError):
        load_graph(str(path))
