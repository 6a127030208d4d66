"""Recognition of complete multipartite graphs and clique unions.

Both families are read off one counting rule, :func:`clique_classes`.  Give
every vertex a mask that contains the vertex itself; a mask ``M`` that occurs
exactly ``|M|`` times is held by ``|M|`` distinct vertices, each inside ``M``,
so it is held by exactly its own members.  Applied to the closed
neighbourhoods ``row | 1 << v``, every member of such an ``M`` is adjacent to
the rest of ``M`` and to nothing outside it: ``M`` is a clique component, and
every clique component qualifies.  A complete k-partite graph is the
complement of a union of k cliques, and ``full ^ row`` is the closed
neighbourhood in the complement, so the same rule on those masks returns the
parts without building the complement.  A graph is in the family when the
returned masks cover all its vertices.

The rule hashes one ``n``-bit mask per vertex (``O(n)`` operations of
``O(n / w)`` machine words each for word size ``w``); combined with the
degree-multiplicity tests in :mod:`kpartite.sequences` this covers the four
membership questions for a graph or its degree sequence.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from .graph import Graph
from .instrument import OpCounter
from .sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, PartitionProfile


def clique_classes(closed: Iterable[int], counter: OpCounter | None = None) -> list[int]:
    """The masks that occur exactly as often as they have set bits, in order
    of first occurrence.  ``closed`` holds one mask per vertex, containing
    that vertex; ``counter`` counts one step per vertex."""
    counts = Counter(closed)
    if counter is not None:
        counter.bump(counts.total())
    return [mask for mask, count in counts.items() if count == mask.bit_count()]


def _covering_profile(
    n: int, closed: Iterable[int], flavor: str, counter: OpCounter | None
) -> PartitionProfile | None:
    sizes = [mask.bit_count() for mask in clique_classes(closed, counter)]
    return PartitionProfile(tuple(sizes), flavor) if sum(sizes) == n else None


def is_complete_multipartite(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Part sizes if ``g`` is complete multipartite, else None: the parts are
    the clique components of the complement."""
    full = (1 << g.n) - 1
    closed = (full ^ row for row in g.adjacency_masks())
    return _covering_profile(g.n, closed, MULTIPARTITE_PARTS, counter)


def is_clique_union(
    g: Graph, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes if every connected component of ``g`` is complete, else None."""
    closed = (row | 1 << v for v, row in enumerate(g.adjacency_masks()))
    return _covering_profile(g.n, closed, CLIQUE_SIZES, counter)
