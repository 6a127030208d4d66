import random
import re

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


def test_edge_list_second_header_is_an_error():
    # A second ``n=`` header is a format error that names the line, as a
    # second DIMACS problem line is; the last header no longer wins.
    for text, line in (
        ("n=9\n0 1\nn=3\n", "n=3"),
        ("n=3\nn=3\n", "n=3"),
        ("0 1\nn=2\n1 2\n  n=x \n", "  n=x "),
    ):
        with pytest.raises(FormatError, match=re.escape(f"second vertex-count header: {line!r}")):
            decode_edge_list(text)


def _edge_tuple_decode(text: str) -> Graph:
    """The edge-list decoder as written before rows were built from
    neighbour lists: labels numbered on first sight, one ``(u, v)`` tuple per
    line, and the validating ``Graph(n, edges)``; a second ``n=`` header is
    an error, as it is in the decoder.  The oracle for ``decode_edge_list``."""
    header_n = None
    labels: dict[str, int] = {}
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("n="):
            if header_n is not None:
                raise FormatError(f"second vertex-count header: {raw!r}")
            try:
                n = int(line[2:])
                if not 0 <= n <= 258047:
                    raise FormatError(f"vertex count must be in 0..258047, got {n}")
                header_n = n
            except ValueError as exc:
                raise FormatError(f"bad vertex-count header: {raw!r}") from exc
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"expected 'u v' pair, got {raw!r}")
        pair = []
        for tok in tokens:
            if tok not in labels:
                labels[tok] = len(labels)
            pair.append(labels[tok])
        if pair[0] == pair[1]:
            raise FormatError(f"loop {raw!r} not allowed")
        edges.append((pair[0], pair[1]))
    n = len(labels)
    if header_n is not None:
        if n > header_n:
            raise FormatError(f"header says n={header_n} but {n} distinct labels appear")
        n = header_n
    return Graph(n, edges)


def _edge_list_texts() -> list[str]:
    """Seeded edge-list texts: arbitrary string labels, duplicate edges in
    both orientations, blank and whitespace-only lines, headers above and
    below the label count, at the vertex cap and one past it, malformed
    headers, and now and then a loop or a line of 1 or 3 tokens, so that
    texts with several faults show which one is reported first."""
    rng = random.Random(20261019)
    pool = ["0", "1", "7", "007", "a", "B", "v-12", "x_y", "ä", "3.5", "-4", "n", "N=2", "1e3"]
    texts = [
        "",
        "n=258047\n",
        "n=258048\n",
        "n=258047\na b\nb c\n",
        "n=258048\na b\n",
        "a a\n",
        "a\n",
        "a b c\n",
        "n=2\na b\nb c\n",
        "n=x\n",
        "n=-1\n",
        "n=\n",
        "a b\nb a\na b\n\n   \n\t\n",
        "a b\nc c\nd\n",
        "a b\nd\nc c\n",
    ]
    for _ in range(300):
        labels = rng.sample(pool, rng.randint(2, len(pool)))
        lines: list[str] = []
        pairs: list[list[str]] = []
        # Half of the texts have no fault lines beyond their headers.
        faults = 1.0 if rng.random() < 0.5 else 0.9
        for _ in range(rng.randint(0, 30)):
            kind = rng.random()
            if kind < 0.6 or not pairs or kind >= faults:
                pairs.append(rng.sample(labels, 2))
                lines.append(rng.choice([" ", "  ", "\t"]).join(pairs[-1]))
            elif kind < 0.7:
                u, v = rng.choice(pairs)
                lines.append(f" {v} {u} ")
            elif kind < 0.8:
                lines.append(rng.choice(["", "   ", "\t \t"]))
            elif kind < 0.9:
                n = rng.choice([0, 1, 3, len(labels) - 1, len(labels), len(labels) + 5, 258048])
                lines.append(f"n={n}")
            elif kind < 0.94:
                u = rng.choice(labels)
                lines.append(f"{u} {u}")
            elif kind < 0.97:
                lines.append(rng.choice(labels))
            else:
                lines.append(" ".join(rng.sample(labels, 2) + ["0"]))
        texts.append("\n".join(lines) + rng.choice(["", "\n"]))
    return texts


def _decode_outcome(decode, text: str):
    try:
        return decode(text).adjacency_masks()
    except FormatError as exc:
        return f"FormatError: {exc}"


def test_edge_list_decoder_matches_edge_tuple_decoder():
    outcomes = []
    for text in _edge_list_texts():
        ours = _decode_outcome(decode_edge_list, text)
        assert ours == _decode_outcome(_edge_tuple_decode, text), text
        outcomes.append(ours)
    # The corpus reaches every error and plenty of accepted graphs.
    errors = {o.split(":")[1].split()[0] for o in outcomes if isinstance(o, str)}
    assert errors == {"vertex", "bad", "expected", "loop", "header", "second"}, errors
    assert sum(not isinstance(o, str) for o in outcomes) >= 100


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
    # Non-integer fields, loops and a second problem line are format errors
    # that name the line, not a ValueError from int() or from the Graph
    # constructor.
    for text, line in (
        ("p edge x 1\n", "p edge x 1"),
        ("p edge 2 y\n", "p edge 2 y"),
        ("p edge 2 1\ne 1 y\n", "e 1 y"),
        ("p edge 2 1\ne 1 1\n", "e 1 1"),
        ("p edge 5 1\ne 4 5\np edge 2 1\n", "p edge 2 1"),
        ("p edge 2 1\np edge 5 1\ne 4 5\n", "p edge 5 1"),
    ):
        with pytest.raises(FormatError, match=re.escape(repr(line))):
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
