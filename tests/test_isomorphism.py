import hashlib
import random
from collections import Counter
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpartite import (
    Graph,
    GraphTooLargeError,
    canonical_key,
    clique_union,
    complete_graph,
    complete_multipartite,
    contains_induced,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    is_isomorphic,
    max_clique,
    max_independent_set,
    path_graph,
    petersen_graph,
)
from kpartite.isomorphism import (
    _code,
    _rank_slots,
    _ranks_by_descending_value,
    _refine_ranks,
    _search_smaller,
)

from .conftest import (
    all_graphs_up_to_iso,
    graphs_strategy,
    random_graph,
    random_graph_corpus,
)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(graphs_strategy(), st.randoms(use_true_random=False))
def test_canonical_key_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


@given(graphs_strategy(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_is_isomorphic_matches_networkx(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    # agree on a positive case
    assert is_isomorphic(g, h)
    # and on a perturbed case, in both directions
    if g.n >= 2:
        flipped = _flip_one_pair(h, rnd)
        ours = is_isomorphic(g, flipped)
        theirs = nx.is_isomorphic(_to_nx(g), _to_nx(flipped))
        assert ours == theirs


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.empty_graph(g.n)
    out.add_edges_from(g.edges())
    return out


def _flip_one_pair(g: Graph, rnd) -> Graph:
    u = rnd.randrange(g.n)
    v = rnd.randrange(g.n)
    if u == v:
        return g
    edges = set(map(tuple, g.edges()))
    pair = (min(u, v), max(u, v))
    if pair in edges:
        edges.discard(pair)
    else:
        edges.add(pair)
    return Graph(g.n, sorted(edges))


def test_known_pairs():
    assert is_isomorphic(cycle_graph(4), complete_multipartite([2, 2]))
    assert not is_isomorphic(cycle_graph(6), clique_union([3, 3]))
    # equal degree sequences, different triangle counts
    assert not is_isomorphic(path_graph(5), clique_union([3, 2]))


def test_symmetric_graphs_have_stable_keys():
    assert canonical_key(petersen_graph()) == canonical_key(
        relabel(petersen_graph(), [3, 4, 0, 1, 2, 8, 9, 5, 6, 7])
    )
    assert canonical_key(empty_graph(10)) == canonical_key(empty_graph(10))
    assert canonical_key(complete_graph(12))[0] == 12


def test_canonical_keys_match_recorded_digest():
    # Seeded graphs with up to 12 vertices plus four vertex-transitive or
    # twin-rich ones; the digest pins every key, so a change to the search
    # that alters a canonical code shows here.
    corpus = random_graph_corpus(3000, 12, seed=2026) + [
        petersen_graph(),
        cycle_graph(12),
        complete_multipartite([3, 3, 3, 3]),
        clique_union([2, 3, 3, 4]),
    ]
    digest = hashlib.sha256()
    for g in corpus:
        n, code = canonical_key(g)
        digest.update(f"{n} {code}\n".encode())
    assert digest.hexdigest() == (
        "33c8dec304bb9b021309f2abcb93531d880ad0f00394e31ca9ff147685d9967a"
    )


def test_canonical_keys_of_the_digest_corpus_match_networkx():
    # The recorded digest above pins the keys; this checks that they are
    # right.  Graphs with one key must be isomorphic, and the class
    # representatives must not be, where the degree sequences leave it open.
    classes: dict[tuple[int, int], list[Graph]] = {}
    for g in random_graph_corpus(3000, 12, seed=2026):
        classes.setdefault(canonical_key(g), []).append(g)
    by_degrees: dict[tuple[int, ...], list[nx.Graph]] = {}
    for first, *rest in classes.values():
        rep = _to_nx(first)
        assert all(nx.is_isomorphic(rep, _to_nx(g)) for g in rest), first.edges()
        by_degrees.setdefault(tuple(sorted(first.degrees())), []).append(rep)
    pairs = 0
    for reps in by_degrees.values():
        for a, b in combinations(reps, 2):
            assert not nx.is_isomorphic(a, b), (list(a.edges()), list(b.edges()))
            pairs += 1
    assert (len(classes), pairs) == (1440, 224)


def _column(mv, placed):
    """Adjacency of a vertex with row ``mv`` to ``placed``, first one high."""
    seg = 0
    for u in placed:
        seg = (seg << 1) | ((mv >> u) & 1)
    return seg


def _relabel_rows(masks, order):
    """Rows of the graph with vertex ``order[i]`` renamed i."""
    return tuple(
        sum(1 << i for i, u in enumerate(order) if masks[v] >> u & 1) for v in order
    )


def _candidate_list_search(masks, ranks, incumbent):
    """The canonicity search as written before the bit-parallel pass: each
    node builds every candidate's column, sorts the ``(column, vertex)``
    list and skips a vertex whose twin class it already tried.  Returns the
    vertices of the first ordering whose column segments are smaller than
    ``incumbent``'s, or None.  The oracle for ``_search_smaller``."""
    n = len(masks)
    rank_seq = sorted(ranks)
    rows = Counter(masks)
    twin = [mv if rows[mv] > 1 else mv | 1 << v for v, mv in enumerate(masks)]
    placed: list[int] = []

    def dfs(depth, used, tight):
        if depth == n:
            return not tight
        seen_twins = set()
        cands = []
        for v in range(n):
            if used >> v & 1 or ranks[v] != rank_seq[depth] or twin[v] in seen_twins:
                continue
            seen_twins.add(twin[v])
            cands.append((_column(masks[v], placed), v))
        cands.sort()
        for seg, v in cands:
            if tight and seg > incumbent[depth]:
                break
            placed.append(v)
            if dfs(depth + 1, used | 1 << v, tight and seg == incumbent[depth]):
                return True
            placed.pop()
        return False

    return placed if dfs(0, 0, True) else None


def _twin_rich_graph(n, rng):
    """Each vertex takes one of a few types; two vertices are adjacent when
    their types are, and a type is a clique or an independent set, so most
    vertices have open or closed twins."""
    k = int(rng.integers(1, 5))
    types = rng.integers(0, k, n)
    joined = rng.random((k, k)) < 0.5
    joined = joined | joined.T
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if joined[types[u], types[v]]
    ]
    return Graph(n, edges)


def test_search_matches_candidate_list_dfs():
    # Seeded graphs with 1-11 vertices, half of them twin-rich.  Ranks as the
    # enumerator passes them (sorted target-degree ranks of another degree
    # vector) and as canonical_key does (refined, unsorted); the incumbent is
    # the own labeling of the graph relabelled by the identity or by a
    # random rank-respecting ordering.  The search returns only the prefix
    # through its first position d below the incumbent: the oracle's
    # ordering shares the tight positions before d, and at d it takes the
    # least column, which the search's vertex cannot undercut.
    rng = np.random.Generator(np.random.PCG64(1998))
    outcomes = Counter()
    for trial in range(8000):
        n = int(rng.integers(1, 12))
        if trial % 2:
            g = _twin_rich_graph(n, rng)
        else:
            g = random_graph(n, float(rng.uniform(0.05, 0.95)), rng)
        masks = g.adjacency_masks()
        targets = tuple(sorted(rng.integers(0, n, n).tolist(), reverse=True))
        refined = _refine_ranks(masks, _ranks_by_descending_value(g.degrees()))
        for ranks in (_ranks_by_descending_value(targets), refined):
            orders = [list(range(n))]
            for _ in range(2):
                tiebreak = rng.random(n)
                orders.append(sorted(range(n), key=lambda v: (ranks[v], tiebreak[v])))
            for order in orders:
                rows = _relabel_rows(masks, order)
                own_ranks = tuple(ranks[v] for v in order)
                incumbent = [_column(rows[v], range(v)) for v in range(n)]
                expected = _candidate_list_search(rows, own_ranks, incumbent)
                slots = _rank_slots(own_ranks)
                found = _search_smaller(rows, slots)
                context = (g.edges(), ranks, order, found, expected)
                assert (found is None) == (expected is None), context
                if found is not None:
                    d = len(found) - 1
                    v = found[d]
                    column = _column(rows[v], found[:d])
                    assert found[:d] == expected[:d], context
                    assert slots[d] >> v & 1 and v not in found[:d], context
                    assert column < incumbent[d], context
                    assert _column(rows[expected[d]], expected[:d]) <= column, context
                outcomes[expected is None] += 1
    assert outcomes[True] >= 10000 and outcomes[False] >= 10000, outcomes


def test_canonical_key_is_the_minimum_code():
    # Brute force over every ordering that respects the refined classes:
    # the classes in rank order, each one in all its internal orders.  The
    # enumerated graphs come nearly canonical, so each is shuffled first:
    # otherwise one search would settle most keys.
    rng = random.Random(11)
    trees = []
    for _ in range(40):
        n = rng.randint(7, 10)
        trees.append(Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]))
    graphs = [g for n in range(8) for g in all_graphs_up_to_iso(n)] + trees
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        masks = g.adjacency_masks()
        ranks = _refine_ranks(masks, _ranks_by_descending_value(g.degrees()))
        classes = [[v for v in range(g.n) if ranks[v] == r] for r in sorted(set(ranks))]
        least = min(
            _code(_relabel_rows(masks, [v for part in parts for v in part]))
            for parts in product(*map(permutations, classes))
        )
        assert canonical_key(g) == (g.n, least), g.edges()
    assert len(graphs) == 1293


def test_size_cap():
    with pytest.raises(GraphTooLargeError):
        canonical_key(empty_graph(13))
    with pytest.raises(GraphTooLargeError):
        is_isomorphic(empty_graph(13), empty_graph(13))


def test_contains_induced_examples():
    assert contains_induced(cycle_graph(5), path_graph(4))
    assert not contains_induced(complete_graph(4), path_graph(4))
    assert not contains_induced(cycle_graph(6), cycle_graph(5))


def test_contains_induced_pattern_cap():
    with pytest.raises(GraphTooLargeError):
        contains_induced(empty_graph(8), path_graph(7))


def test_contains_induced_trivial_cases():
    assert contains_induced(cycle_graph(4), Graph(0))
    assert not contains_induced(Graph(2), cycle_graph(3))


@given(graphs_strategy(max_n=7))
@settings(max_examples=30)
def test_induced_subgraph_patterns_found(g):
    # every 4-subset of g induces a pattern that contains_induced must confirm
    if g.n < 4:
        return
    rng = np.random.Generator(np.random.PCG64(g.n * 31 + g.m))
    subset = sorted(rng.choice(g.n, size=4, replace=False).tolist())
    pattern = induced_subgraph(g, subset)
    assert contains_induced(g, pattern)


def brute_force_contains_induced(g: Graph, pattern: Graph) -> bool:
    """Oracle: some p-subset of ``g`` induces a graph isomorphic to ``pattern``."""
    return any(
        is_isomorphic(induced_subgraph(g, subset), pattern)
        for subset in combinations(range(g.n), pattern.n)
    )


def test_contains_induced_matches_subset_oracle():
    # Seeded hosts with 0-9 vertices and patterns with 0-5 vertices, checked
    # against every p-subset of the host.
    rng = np.random.Generator(np.random.PCG64(26))
    outcomes = []
    for _ in range(80):
        host = random_graph(int(rng.integers(0, 10)), float(rng.uniform(0.1, 0.9)), rng)
        for _ in range(4):
            p = int(rng.integers(0, 6))
            pattern = random_graph(p, float(rng.uniform(0.1, 0.9)), rng)
            expected = brute_force_contains_induced(host, pattern)
            assert contains_induced(host, pattern) == expected, (host.edges(), pattern.edges())
            outcomes.append(expected)
    assert outcomes.count(True) >= 80 and outcomes.count(False) >= 80


def test_contains_induced_on_a_48_vertex_host():
    # C(48, 6) is about 12 million 6-subsets; the backtracking search only
    # extends partial maps that already induce the pattern's first vertices.
    rng = np.random.Generator(np.random.PCG64(48))
    host = random_graph(48, 0.3, rng)
    omega, alpha = max_clique(host).size, max_independent_set(host).size
    assert (omega, alpha) == (5, 11)
    assert contains_induced(host, complete_graph(5))
    assert not contains_induced(host, complete_graph(6))
    assert contains_induced(host, empty_graph(6))
    assert contains_induced(host, cycle_graph(6))
    assert contains_induced(host, path_graph(6))
    # A complete multipartite graph has no induced K1 + K2, so no induced P6.
    parts = complete_multipartite([4, 5, 6, 7, 8, 9, 9])
    assert parts.n == 48
    assert not contains_induced(parts, path_graph(6))
    assert contains_induced(parts, complete_multipartite([1, 2, 3]))
