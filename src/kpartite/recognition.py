"""Recognition of complete multipartite graphs and clique unions.

Both recognizers make O(n) operations on the graph's bitmask rows; combined
with the degree-multiplicity tests in :mod:`kpartite.sequences` this covers
the four membership questions for a graph or its degree sequence.
"""

from __future__ import annotations

from collections import defaultdict

from .graph import Graph, connected_components, iter_bits
from .instrument import OpCounter
from .sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, PartitionProfile


def is_complete_multipartite(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Part sizes if ``g`` is complete multipartite, else None.

    A vertex in a part of size ``a`` must have degree ``n - a``, so candidate
    parts are read off the degree classes: the part of ``v`` is the set of
    same-degree vertices not adjacent to ``v``.  Each part is checked to have
    no edge inside it; a counting argument on the degrees makes that
    sufficient.

    ``counter`` counts one step per vertex; each step is one AND of two
    ``n``-bit rows, so it costs ``O(n / w)`` machine words for word size ``w``.
    """
    n = g.n
    if n == 0:
        return PartitionProfile((), MULTIPARTITE_PARTS)
    rows = g.adjacency_masks()
    degrees = g.degrees()

    # Per degree, the vertices not yet placed in a part, as a bitmask.
    unplaced: dict[int, int] = defaultdict(int)
    for v in range(n):
        unplaced[degrees[v]] |= 1 << v

    placed = [False] * n
    parts: list[int] = []
    for v in range(n):
        if placed[v]:
            continue
        size = n - degrees[v]
        members = unplaced[degrees[v]] & ~rows[v]
        if members.bit_count() != size:
            return None
        unplaced[degrees[v]] ^= members
        for u in iter_bits(members):
            if counter is not None:
                counter.bump()
            if rows[u] & members:
                return None
            placed[u] = True
        parts.append(size)
    return PartitionProfile(tuple(parts), MULTIPARTITE_PARTS)


def is_clique_union(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes if every connected component of ``g`` is complete, else None."""
    if g.n == 0:
        return PartitionProfile((), CLIQUE_SIZES)
    degrees = g.degrees()
    sizes = []
    for comp in connected_components(g):
        q = len(comp)
        for v in comp:
            if counter is not None:
                counter.bump()
            if degrees[v] != q - 1:
                return None
        sizes.append(q)
    return PartitionProfile(tuple(sizes), CLIQUE_SIZES)
