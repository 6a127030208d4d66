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

:func:`is_clique_union` stops at the first vertex ``v`` whose lowest
neighbour ``low < v`` has another closed neighbourhood: a vertex of a clique
component shares its closed neighbourhood with each neighbour, so ``v`` lies
in no clique component and the answer is None.  A scan that never stops has
equal closed neighbourhoods along every edge ``uv``, ``u < v``, by induction
on ``v``: ``v``'s lowest neighbour ``w`` shares ``v``'s, and if ``w < u``
then ``wu`` is an edge below ``v``.  So every component is a clique, and the
count under its lowest member is its size.

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

from collections.abc import Iterator, Sequence

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
    for low in _holders(rows, degrees):
        if low >= 0:
            held[low] += 1
    if counter is not None:
        counter.bump(len(rows))
    return [(v, h) for v, h in enumerate(held) if h and h == degrees[v] + 1]


def _holders(rows: Sequence[int], degrees: Sequence[int]) -> Iterator[int]:
    """Per vertex, ascending: the vertex it is counted under, or -1 when its
    lowest neighbour is below it and has another closed neighbourhood."""
    for v, row in enumerate(rows):
        low = (row & -row).bit_length() - 1
        if not 0 <= low < v:
            yield v
        elif degrees[low] == degrees[v] and rows[low] | 1 << low == row | 1 << v:
            yield low
        else:
            yield -1


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
    """Clique sizes if every connected component of ``g`` is complete, else None.

    The scan stops at the first vertex that lies in no clique component;
    ``counter`` counts one step per vertex scanned.
    """
    held = [0] * g.n
    for v, low in enumerate(_holders(g.adjacency_masks(), g.degrees())):
        if low < 0:
            if counter is not None:
                counter.bump(v + 1)
            return None
        held[low] += 1
    if counter is not None:
        counter.bump(g.n)
    return PartitionProfile(tuple(h for h in held if h), CLIQUE_SIZES)
