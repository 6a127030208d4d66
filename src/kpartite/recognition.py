"""Linear-time recognition of complete multipartite graphs and clique unions.

Both recognizers run in O(n + m) adjacency probes; combined with the
degree-multiplicity tests in :mod:`kpartite.sequences` this covers the four
membership questions for a graph or its degree sequence.
"""

from __future__ import annotations

from collections import defaultdict

from .graph import Graph, connected_components
from .instrument import OpCounter
from .sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, PartitionProfile


def is_complete_multipartite(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Part sizes if ``g`` is complete multipartite, else None.

    A vertex in a part of size ``a`` must have degree ``n - a``, so candidate
    parts are read off the degree classes: the part of ``v`` is the set of
    same-degree vertices not adjacent to ``v``.  The partition is then
    verified by checking that no edge stays inside a part; a counting argument
    on the degrees makes that sufficient.
    """
    n = g.n
    if n == 0:
        return PartitionProfile((), MULTIPARTITE_PARTS)
    adjacency = g.adjacency
    degrees = g.degrees()

    by_degree: dict[int, list[int]] = defaultdict(list)
    for v in range(n):
        by_degree[degrees[v]].append(v)
    for d, bucket in by_degree.items():
        if counter is not None:
            counter.bump()
        size = n - d
        if len(bucket) % size != 0:
            return None

    part_id = [-1] * n
    parts: list[int] = []
    for v in range(n):
        if part_id[v] != -1:
            continue
        size = n - degrees[v]
        bucket = by_degree[degrees[v]]
        members = []
        neigh = adjacency[v]
        for u in bucket:
            if counter is not None:
                counter.bump()
            if part_id[u] == -1 and (u == v or u not in neigh):
                members.append(u)
        if len(members) != size:
            return None
        pid = len(parts)
        for u in members:
            part_id[u] = pid
        parts.append(size)
        by_degree[degrees[v]] = [u for u in bucket if part_id[u] == -1]

    for u in range(n):
        for w in adjacency[u]:
            if counter is not None:
                counter.bump()
            if u < w and part_id[u] == part_id[w]:
                return None
    return PartitionProfile(tuple(parts), MULTIPARTITE_PARTS)


def is_clique_union(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes if every connected component of ``g`` is complete, else None."""
    if g.n == 0:
        return PartitionProfile((), CLIQUE_SIZES)
    sizes = []
    for comp in connected_components(g):
        q = len(comp)
        for v in comp:
            if counter is not None:
                counter.bump()
            if len(g.adjacency[v]) != q - 1:
                return None
        sizes.append(q)
    return PartitionProfile(tuple(sizes), CLIQUE_SIZES)
