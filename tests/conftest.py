"""Shared fixtures and strategies for the test suite."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import strategies as st

from kpartite import (
    DegreeSequence,
    Graph,
    clique_union,
    complement,
    enumerate_realizations,
    is_graphical,
    random_switch_walk,
)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi sample from a seeded generator."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_graph_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    """Deterministic corpus of random graphs with varied size and density."""
    rng = np.random.Generator(np.random.PCG64(seed))
    graphs = []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        p = float(rng.uniform(0.05, 0.95))
        graphs.append(random_graph(n, p, rng))
    return graphs


def all_graphs_up_to_iso(n: int) -> list[Graph]:
    """Every graph on n vertices, one per isomorphism class, via the
    realization enumerator over all graphical degree sequences."""
    graphs: list[Graph] = []
    for seq in combinations_with_replacement(range(max(n, 1)), n):
        ds = DegreeSequence(seq)
        if not is_graphical(ds):
            continue
        graphs.extend(enumerate_realizations(ds))
    return graphs


@pytest.fixture(scope="session")
def small_graph_corpus() -> list[Graph]:
    """All graphs with up to 6 vertices, one per isomorphism class."""
    graphs = []
    for n in range(0, 7):
        graphs.extend(all_graphs_up_to_iso(n))
    return graphs


@pytest.fixture(scope="session")
def family_neighbour_corpus() -> list[Graph]:
    """Seeded clique unions with 50-300 vertices, 2-switch neighbours of each
    (after one switch proposal and after n / 10), and the complements of all
    of these: complete multipartite graphs and their 2-switch neighbours."""
    rng = np.random.Generator(np.random.PCG64(4))
    graphs = []
    for n in (50, 120, 200, 300):
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, 13)))
        member = clique_union(sizes)
        for g in (
            member,
            random_switch_walk(member, steps=1, seed=n),
            random_switch_walk(member, steps=n // 10, seed=n),
        ):
            graphs.extend((g, complement(g)))
    return graphs


def graphs_strategy(max_n: int = 8):
    """Hypothesis strategy for arbitrary small graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(n, [e for e, keep in zip(pairs, mask) if keep])

    return build()
