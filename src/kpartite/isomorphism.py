"""Canonical labeling, isomorphism testing, and induced-pattern search.

The canonical key of a graph is the lexicographically smallest upper-triangle
bit string of its adjacency matrix, read column by column, minimized over all
vertex orderings that respect the degree partition (iteratively refined by
neighbor-degree signatures).

One search serves both uses: given an incumbent ordering's column segments,
a depth-first search returns the first ordering with a smaller code, or
None.  It tries candidates in ascending column order, cuts any prefix that
rises above the incumbent, and places only one vertex of each class of
interchangeable (twin) vertices, which keeps highly symmetric graphs cheap.
The orderly enumerator accepts a labeling when nothing beats it;
``canonical_key`` starts from the rank-sorted ordering and replaces the
incumbent until nothing is smaller, which reaches the unique minimum code.

Intended for small graphs; hard cap of 12 vertices.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import GraphTooLargeError
from .graph import Graph, iter_bits

MAX_CANONICAL_VERTICES = 12
MAX_PATTERN_VERTICES = 6


def _ranks_by_descending_value(values: tuple[int, ...]) -> tuple[int, ...]:
    """Rank 0 for the largest value, 1 for the next, ..., per vertex."""
    order = sorted(set(values), reverse=True)
    index = {val: i for i, val in enumerate(order)}
    return tuple(index[v] for v in values)


def _refine_ranks(
    n: int, masks: tuple[int, ...], ranks: tuple[int, ...]
) -> tuple[int, ...]:
    """Iterated neighbor-rank refinement; stable and isomorphism-invariant."""
    while True:
        sigs = []
        for v in range(n):
            neigh = sorted(ranks[u] for u in iter_bits(masks[v]))
            sigs.append((ranks[v], tuple(neigh)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple(order[sig] for sig in sigs)
        if new == ranks:
            return ranks
        ranks = new


def _twin_classes(masks: tuple[int, ...]) -> list[int]:
    """Class key per vertex; two vertices share a key exactly when they have
    equal open or equal closed neighborhoods, so swapping them is a graph
    automorphism.

    A vertex with an equal-row (non-adjacent) twin is keyed by its row, any
    other by its closed row.  No vertex has both kinds of twin: if u and v
    share a row and w is an adjacent twin of v, then w lies in N(v) = N(u),
    so u lies in N[w] = N[v], which puts u in its own row.  A row never
    equals a closed row either, since no row holds its own vertex.
    """
    rows = Counter(masks)
    return [mv if rows[mv] > 1 else mv | 1 << v for v, mv in enumerate(masks)]


def _column(mv: int, placed: Iterable[int]) -> int:
    """Adjacency of a vertex with row ``mv`` to ``placed``, first one high."""
    seg = 0
    for u in placed:
        seg = (seg << 1) | ((mv >> u) & 1)
    return seg


def _search_min_segments(
    masks: tuple[int, ...], ranks: tuple[int, ...], incumbent: Sequence[int]
) -> list[int] | None:
    """Column segments of the first rank-respecting ordering, in search
    order, whose adjacency code is smaller than ``incumbent``'s; None when
    no ordering beats it.
    """
    n = len(masks)
    rank_seq = sorted(ranks)
    twin = _twin_classes(masks)
    placed: list[int] = []
    segs: list[int] = []

    def dfs(depth: int, used: int, tight: bool) -> bool:
        # ``tight``: the segments so far equal the incumbent's.
        if depth == n:
            return not tight
        seen_twins: set[int] = set()
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
            segs.append(seg)
            if dfs(depth + 1, used | 1 << v, tight and seg == incumbent[depth]):
                return True
            placed.pop()
            segs.pop()
        return False

    return segs if dfs(0, 0, True) else None


def compose_code(segments: list[int]) -> int:
    """Pack per-position column segments into one integer code."""
    code = 0
    for width, seg in enumerate(segments):
        code = (code << width) | seg
    return code


def labeling_is_canonical(
    masks: tuple[int, ...], ranks: tuple[int, ...], own: Sequence[int]
) -> bool:
    """True iff ``own`` (the graph's current labeling) attains the minimum code
    over rank-respecting orderings."""
    return _search_min_segments(masks, ranks, own) is None


def canonical_key(g: Graph) -> tuple[int, int]:
    """Canonical form of ``g`` as ``(n, code)``; equal keys iff isomorphic."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise GraphTooLargeError(
            f"canonical labeling supports at most {MAX_CANONICAL_VERTICES} vertices"
        )
    n = g.n
    masks = g.adjacency_masks()
    ranks = _refine_ranks(n, masks, _ranks_by_descending_value(g.degrees()))
    placed = sorted(range(n), key=ranks.__getitem__)
    best = [_column(masks[v], placed[:depth]) for depth, v in enumerate(placed)]
    while (smaller := _search_min_segments(masks, ranks, best)) is not None:
        best = smaller
    return n, compose_code(best)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for graphs with at most 12 vertices."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_key(g) == canonical_key(h)


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """True iff some vertex subset of ``g`` induces a copy of ``pattern``.

    Backtracks over maps of the pattern's vertices into ``g``, in index
    order: the next image must be adjacent to the images of earlier pattern
    neighbours and distinct from and non-adjacent to the other images.  At
    worst about ``n^p`` maps; ``pattern`` is capped at 6 vertices.
    """
    p = pattern.n
    if p > MAX_PATTERN_VERTICES:
        raise GraphTooLargeError(
            f"pattern is limited to {MAX_PATTERN_VERTICES} vertices"
        )
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
