"""Recognition of complete multipartite graphs and clique unions.

Each family is read off a counting rule that keeps one count per vertex.

Clique unions, :func:`clique_classes`: count each vertex under the lowest
member of its closed neighbourhood ``row | 1 << v`` when that member has the
same closed neighbourhood ``M``.  A count of ``d + 1 = |M|`` under a vertex
of degree ``d`` means that ``|M|`` distinct vertices, each inside ``M``, hold
``M``: exactly its own members.  Each is adjacent to the rest of ``M`` and to
nothing outside it, so ``M`` is a clique component, and every clique
component qualifies.  Equal closed neighbourhoods have equal sizes, so the
masks are built and compared only when a vertex and its lowest neighbour have
the same degree; that skips no match.  An isolated vertex is its own lowest
member and builds no mask.

Complete multipartite graphs, :func:`is_complete_multipartite`: two vertices
share a part exactly when their rows are equal, so every row ``r`` must be
held by exactly ``n - |r|`` vertices.  That suffices: no holder of ``r`` lies
in ``r``, so the holders are exactly the ``n - |r|`` vertices outside ``r``,
an independent set joined to every other vertex.  The rows are compared as
they are; no complement mask is built.

Both rules take ``O(n)`` comparisons or mask builds of ``O(n / w)`` machine
words each, for word size ``w``, and ``O(n)`` extra memory.  Combined with
the degree-multiplicity tests in :mod:`kpartite.sequences` this covers the
four membership questions for a graph or its degree sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import Graph
from .instrument import OpCounter
from .sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, PartitionProfile


def clique_classes(
    rows: Sequence[int], degrees: Sequence[int], counter: OpCounter | None = None
) -> list[tuple[int, int]]:
    """``(lowest member, size)`` of every clique component of the graph with
    ``rows`` and ``degrees``, by ascending lowest member; ``counter`` counts
    one step per vertex.

    Each vertex is counted under the lowest member of its closed
    neighbourhood when that member has the same closed neighbourhood.  The
    two masks are built and compared only when the degrees are equal, so
    only one mask is alive at a time, and an isolated vertex builds none.
    """
    held = [0] * len(rows)
    for v, row in enumerate(rows):
        low = (row & -row).bit_length() - 1
        if not 0 <= low < v:
            held[v] += 1
        elif degrees[low] == degrees[v] and rows[low] | 1 << low == row | 1 << v:
            held[low] += 1
    if counter is not None:
        counter.bump(len(rows))
    return [(v, h) for v, h in enumerate(held) if h and h == degrees[v] + 1]


def is_complete_multipartite(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Part sizes if ``g`` is complete multipartite, else None.

    Each vertex is counted under the lowest vertex outside its row (the
    lowest member of its part) when that vertex holds the same row;
    ``counter`` counts one step per vertex.
    """
    n = g.n
    rows = g.adjacency_masks()
    degrees = g.degrees()
    held = [0] * n
    for v, row in enumerate(rows):
        # ``row ^ (row + 1)`` is the trailing ones plus the lowest zero bit.
        low = (row ^ (row + 1)).bit_length() - 1
        if rows[low] == row:
            held[low] += 1
    if counter is not None:
        counter.bump(n)
    sizes = [h for v, h in enumerate(held) if h and h == n - degrees[v]]
    return PartitionProfile(tuple(sizes), MULTIPARTITE_PARTS) if sum(sizes) == n else None


def is_clique_union(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes if every connected component of ``g`` is complete, else None."""
    sizes = [q for _, q in clique_classes(g.adjacency_masks(), g.degrees(), counter)]
    return PartitionProfile(tuple(sizes), CLIQUE_SIZES) if sum(sizes) == g.n else None
