"""Immutable simple undirected graphs on vertices 0..n-1.

A graph is stored as one integer bitmask row per vertex: bit v of row u is
set exactly when uv is an edge.  Neighbor sets, degrees and edge lists are
read off the rows, and the constructors here (complement, induced subgraphs,
disjoint unions, the named families) build rows directly.  Public functions
take and return vertex sets as plain ``frozenset[int]``; inside the package a
vertex subset is a mask over the host's own rows, never a relabelled copy of
the graph.  All operations are pure functions of immutable values, so graphs
can be shared freely across threads or processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import index

from .sequences import DegreeSequence


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative ``mask``, ascending.

    Scans one ``bin`` string, so the cost is linear in the width of the
    mask instead of one big-integer operation per set bit.
    """
    s = bin(mask)
    top = len(s) - 1
    i = s.rfind("1")
    while i >= 0:
        yield top - i
        i = s.rfind("1", 0, i)


class Graph:
    """Simple graph stored as one integer bitmask row per vertex.

    Build with ``Graph(n, edges)``; loops and out-of-range endpoints are
    rejected, duplicate edges collapse.
    """

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            u, v = index(u), index(v)  # NumPy integers would overflow in 1 << v
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(tuple(rows))

    @classmethod
    def _from_rows(cls, rows: tuple[int, ...]) -> "Graph":
        """Trusted constructor: ``rows`` must be symmetric, loop-free and
        have no bit at or above ``len(rows)``."""
        g = cls.__new__(cls)
        g._set_rows(rows)
        return g

    def _set_rows(self, rows: tuple[int, ...]) -> None:
        self.n = len(rows)
        self._rows = rows
        self._m = sum(r.bit_count() for r in rows) // 2

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "Graph":
        n = len(adjacency)
        edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
        g = cls(n, edges)
        # Reject asymmetric input: every listed neighbor must appear both ways.
        for u in range(n):
            if set(adjacency[u]) != g.neighbors(u):
                raise ValueError("adjacency lists are not symmetric or contain loops")
        return g

    @property
    def m(self) -> int:
        """Edge count."""
        return self._m

    def _row(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._rows[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self._row(v)))

    def degree(self, v: int) -> int:
        return self._row(v).bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self._rows)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge query ({u}, {v}) out of range")
        return (self._rows[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [
            (u, u + 1 + w)
            for u, row in enumerate(self._rows)
            for w in iter_bits(row >> (u + 1))
        ]

    def adjacency_masks(self) -> tuple[int, ...]:
        """The stored rows: bit v of row u is set iff uv is an edge."""
        return self._rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def complement(g: Graph) -> Graph:
    """Graph with edge {u,v} exactly where g has none."""
    full = (1 << g.n) - 1
    return Graph._from_rows(
        tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adjacency_masks()))
    )


def degree_sequence(g: Graph) -> DegreeSequence:
    return DegreeSequence(g.degrees())


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0..|S|-1 in ascending
    order of the original indices."""
    kept = sorted(set(vertices))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(kept)}
    rows = g.adjacency_masks()
    return Graph._from_rows(
        tuple(
            sum(1 << index[v] for v in iter_bits(rows[u]) if v in index)
            for u in kept
        )
    )


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; vertex blocks are offset cumulatively, no cross edges."""
    rows: list[int] = []
    for p in parts:
        offset = len(rows)
        rows.extend(row << offset for row in p.adjacency_masks())
    return Graph._from_rows(tuple(rows))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest member."""
    rows = g.adjacency_masks()
    components: list[frozenset[int]] = []
    unseen = (1 << g.n) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reached = 0
            for v in iter_bits(frontier):
                reached |= rows[v]
            frontier = reached & ~component
            component |= frontier
        unseen ^= component
        components.append(frozenset(iter_bits(component)))
    return components


# Named constructors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return complement(Graph(n))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts are consecutive vertex blocks in the
    given size order, all cross-part pairs adjacent."""
    sizes = [index(a) for a in sizes]
    if any(a < 1 for a in sizes):
        raise ValueError("part sizes must be positive")
    full = (1 << sum(sizes)) - 1
    rows: list[int] = []
    for a in sizes:
        block = ((1 << a) - 1) << len(rows)
        rows.extend([full ^ block] * a)
    return Graph._from_rows(tuple(rows))


def clique_union(sizes: Iterable[int]) -> Graph:
    """Disjoint union of cliques with the given sizes, in order."""
    return disjoint_union([complete_graph(a) for a in sizes])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
