"""Recognition of complete multipartite graphs and clique unions.

Each family is read off a counting rule that keeps one count per vertex.

Clique unions, :func:`clique_classes`: give every vertex a mask that contains
the vertex itself; a mask ``M`` that occurs exactly ``|M|`` times is held by
``|M|`` distinct vertices, each inside ``M``, so it is held by exactly its
own members, its lowest member among them.  Applied to the closed
neighbourhoods ``row | 1 << v``, every member of such an ``M`` is adjacent to
the rest of ``M`` and to nothing outside it: ``M`` is a clique component, and
every clique component qualifies.  An isolated vertex passes 0 for its closed
neighbourhood, so the rule builds masks only for vertices with neighbours.

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

from collections.abc import Callable, Sequence

from .graph import Graph
from .instrument import OpCounter
from .sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, PartitionProfile


def clique_classes(
    n: int, closed: Callable[[int], int], counter: OpCounter | None = None
) -> list[tuple[int, int]]:
    """``(lowest member, size)`` of every mask that occurs exactly as often as
    it has set bits, by ascending lowest member.  ``closed(v)`` is vertex
    ``v``'s mask, which contains ``v``, or 0 when that mask is ``v`` alone;
    ``counter`` counts one step per vertex.

    Each vertex is counted under the lowest member of its mask when that
    member holds the same mask, so only one mask is alive at a time.
    """
    held = [0] * n
    for v in range(n):
        mask = closed(v)
        low = (mask & -mask).bit_length() - 1 if mask else v
        if low == v or closed(low) == mask:
            held[low] += 1
    if counter is not None:
        counter.bump(n)
    return [
        (v, h) for v, h in enumerate(held) if h and h == (closed(v).bit_count() or 1)
    ]


def closed_neighbourhoods(rows: Sequence[int]) -> Callable[[int], int]:
    """``closed`` for :func:`clique_classes` on a graph's ``rows``: ``v``'s
    closed neighbourhood, or 0 for an isolated vertex, so no ``v``-bit mask
    is built for it."""
    return lambda v: rows[v] and rows[v] | 1 << v


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
    held = [0] * n
    for v, row in enumerate(rows):
        # ``row ^ (row + 1)`` is the trailing ones plus the lowest zero bit.
        low = (row ^ (row + 1)).bit_length() - 1
        if rows[low] == row:
            held[low] += 1
    if counter is not None:
        counter.bump(n)
    sizes = [h for v, h in enumerate(held) if h and h == n - rows[v].bit_count()]
    return PartitionProfile(tuple(sizes), MULTIPARTITE_PARTS) if sum(sizes) == n else None


def is_clique_union(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes if every connected component of ``g`` is complete, else None."""
    closed = closed_neighbourhoods(g.adjacency_masks())
    sizes = [size for _, size in clique_classes(g.n, closed, counter)]
    return PartitionProfile(tuple(sizes), CLIQUE_SIZES) if sum(sizes) == g.n else None
