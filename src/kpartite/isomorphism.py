"""Canonical labeling, isomorphism testing, and induced-pattern search.

The canonical key of a graph is the lexicographically smallest upper-triangle
bit string of its adjacency matrix, read column by column, minimized over all
vertex orderings that respect the degree partition, refined until no class
splits by its members' neighbour counts in each class.

One search serves both uses: it reads the graph's own labeling off its
rows and returns the prefix of some ordering with a smaller code, or None.
It walks only prefixes whose columns equal the own labeling's, holding the
candidates of a position as a bitmask: one pass over the placed rows splits
them into those whose column equals the own one and those already below
it.  The first vertex below ends the search with the prefix through it;
otherwise the search recurses into the equal ones, skipping each one with
the open or closed neighbourhood of one already tried there (a twin):
swapping two unused twins is an automorphism that fixes the prefix.  This
keeps highly symmetric graphs cheap.  The orderly enumerator accepts a
labeling when nothing beats it.  ``canonical_key`` relabels the graph by
the rank-sorted ordering, then by each smaller prefix found, completed by
the unused vertices in index order, until nothing is smaller; every step
lowers the code, so it reaches the unique minimum.

Intended for small graphs; hard cap of 12 vertices.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import GraphTooLargeError
from .graph import Graph, iter_bits

MAX_CANONICAL_VERTICES = 12
MAX_PATTERN_VERTICES = 6


def _ranks_by_descending_value(values: tuple[int, ...]) -> tuple[int, ...]:
    """Rank 0 for the largest value, 1 for the next, ..., per vertex."""
    order = sorted(set(values), reverse=True)
    index = {val: i for i, val in enumerate(order)}
    return tuple(index[v] for v in values)


def _refine_ranks(masks: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Colour refinement, stable and isomorphism-invariant: split each rank
    class by its members' neighbour counts in every class, until a round
    splits none.  A round can only split classes, so it counts them."""
    while True:
        classes = dict.fromkeys(_rank_slots(ranks))
        sigs = [(rank, *[(mv & c).bit_count() for c in classes]) for mv, rank in zip(masks, ranks)]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(order) == len(classes):
            return ranks
        ranks = tuple(order[sig] for sig in sigs)


def _rank_slots(ranks: tuple[int, ...]) -> list[int]:
    """Per position of a rank-respecting ordering, the mask of the vertices
    that may sit there: those of the position's rank.  With sorted ranks,
    the table of the whole ordering serves every prefix: a prefix's search
    reads only its own positions, and masks out the vertices past it."""
    by_rank: dict[int, int] = {}
    for v, rank in enumerate(ranks):
        by_rank[rank] = by_rank.get(rank, 0) | 1 << v
    return [by_rank[rank] for rank in sorted(ranks)]


def _search_smaller(masks: tuple[int, ...], slots: Sequence[int]) -> list[int] | None:
    """The vertices, by position, of a prefix of an ordering that puts a
    vertex of ``slots[i]`` at each position i and whose adjacency code is
    smaller than that of the graph's own labeling: every position but the
    last keeps the own column, the last is below it.  None when no ordering
    beats the own labeling.

    The search walks only tight prefixes, whose columns equal the own
    labeling's: vertex ``depth``'s column has bit i of ``masks[depth]`` at
    placed position i.  At a tight node one pass over the placed rows,
    first placed (most significant) first, splits the unused vertices of
    the position's slot into ``eq``, whose column so far equals the own
    one, and ``lt``, already below it: where the own bit is 1, the members
    of ``eq`` not adjacent to that placed vertex move to ``lt``; where it
    is 0, the adjacent ones drop out.

    A nonzero ``lt`` ends the search with the prefix through its lowest
    vertex: every completion of that prefix is smaller.  Otherwise the
    search recurses into ``eq`` in ascending index, and on taking a vertex
    v drops from ``eq`` every w with ``masks[w] == masks[v]`` or
    ``masks[w] | 1 << w == masks[v] | 1 << v``: swapping two unused twins
    is an automorphism that fixes the placed prefix and the slots, so w's
    subtree mirrors v's.
    """
    n = len(masks)
    placed: list[int] = []

    def dfs(depth: int, unused: int) -> list[int] | None:
        if depth == n:
            return None
        eq = unused & slots[depth]
        lt = 0
        own = masks[depth]
        for row in placed:
            if own & 1:
                lt |= eq & ~row
                eq &= row
            else:
                eq &= ~row
            if not eq:
                break
            own >>= 1
        if lt:
            return [(lt & -lt).bit_length() - 1]
        while eq:
            bit = eq & -eq
            v = bit.bit_length() - 1
            mv = masks[v]
            rest = eq = eq ^ bit
            while rest:  # drop v's twins: equal open or closed neighbourhoods
                low = rest & -rest
                mw = masks[low.bit_length() - 1]
                if mw == mv or mw | low == mv | bit:
                    eq ^= low
                rest ^= low
            placed.append(mv)
            found = dfs(depth + 1, unused ^ bit)
            if found is not None:
                found.append(v)
                return found
            placed.pop()
        return None

    # dfs builds the prefix last position first.
    found = dfs(0, (1 << n) - 1)
    return None if found is None else found[::-1]


def _code(rows: tuple[int, ...]) -> int:
    """The adjacency code of the labeling ``rows``: vertex by vertex, its
    column against the earlier vertices, the first one most significant."""
    code = 0
    for v, row in enumerate(rows):
        for u in range(v):
            code = code << 1 | row >> u & 1
    return code


def labeling_is_canonical(masks: tuple[int, ...], slots: Sequence[int]) -> bool:
    """True iff the graph's own labeling attains the minimum code over the
    orderings that respect the rank slots (:func:`_rank_slots`)."""
    return _search_smaller(masks, slots) is None


def canonical_key(g: Graph) -> tuple[int, int]:
    """Canonical form of ``g`` as ``(n, code)``; equal keys iff isomorphic."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise GraphTooLargeError(
            f"canonical labeling supports at most {MAX_CANONICAL_VERTICES} vertices"
        )
    n = g.n
    rows = g.adjacency_masks()
    ranks = _refine_ranks(rows, _ranks_by_descending_value(g.degrees()))
    # The relabelled ranks stay sorted, so ascending index is rank order:
    # a smaller prefix completed by the unused vertices in index order
    # respects the one slot table, and its code is smaller.
    slots = _rank_slots(tuple(sorted(ranks)))
    order = sorted(range(n), key=ranks.__getitem__)
    while order is not None:
        rows = tuple(sum(1 << i for i, u in enumerate(order) if rows[v] >> u & 1) for v in order)
        prefix = _search_smaller(rows, slots)
        order = None if prefix is None else prefix + [v for v in range(n) if v not in prefix]
    return n, _code(rows)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for graphs with at most 12 vertices."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_key(g) == canonical_key(h)


def check_pattern_cap(n: int) -> None:
    """Raise GraphTooLargeError if ``n`` pattern vertices exceed ``MAX_PATTERN_VERTICES``."""
    if n > MAX_PATTERN_VERTICES:
        raise GraphTooLargeError(
            f"pattern is limited to {MAX_PATTERN_VERTICES} vertices"
        )


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """True iff some vertex subset of ``g`` induces a copy of ``pattern``.

    Backtracks over maps of the pattern's vertices into ``g``, in index
    order: the next image must be adjacent to the images of earlier pattern
    neighbours and distinct from and non-adjacent to the other images.  At
    worst about ``n^p`` maps; ``pattern`` is capped at 6 vertices.
    """
    check_pattern_cap(pattern.n)
    p = pattern.n
    rows = g.adjacency_masks()
    pattern_rows = pattern.adjacency_masks()
    full = (1 << g.n) - 1

    def extend(images: tuple[int, ...]) -> bool:
        if len(images) == p:
            return True
        row = pattern_rows[len(images)]
        cands = full
        for j, u in enumerate(images):
            cands &= rows[u] if (row >> j) & 1 else ~(rows[u] | 1 << u)
        return any(extend((*images, v)) for v in iter_bits(cands))

    return extend(())
