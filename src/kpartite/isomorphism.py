"""Canonical labeling, isomorphism testing, and induced-pattern search.

The canonical key of a graph is the lexicographically smallest upper-triangle
bit string of its adjacency matrix, read column by column, minimized over all
vertex orderings that respect the degree partition (iteratively refined by
neighbor-degree signatures).  The search backtracks with prefix pruning and
explores only one representative per class of interchangeable (twin)
vertices, which keeps highly symmetric graphs cheap.

Intended for small graphs; hard cap of 12 vertices.
"""

from __future__ import annotations

from functools import lru_cache

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


def _twin_classes(n: int, masks: tuple[int, ...]) -> list[int]:
    """Class id per vertex; two vertices share a class when swapping them is a
    graph automorphism (equal open or closed neighborhoods, transitively)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    open_groups: dict[int, int] = {}
    closed_groups: dict[int, int] = {}
    for v in range(n):
        key = masks[v]
        if key in open_groups:
            union(open_groups[key], v)
        else:
            open_groups[key] = v
        ckey = masks[v] | (1 << v)
        if ckey in closed_groups:
            union(closed_groups[ckey], v)
        else:
            closed_groups[ckey] = v
    return [find(v) for v in range(n)]


class _Abort(Exception):
    pass


def _search_min_segments(
    n: int,
    masks: tuple[int, ...],
    ranks: tuple[int, ...],
    incumbent: list[int] | None = None,
    abort_on_smaller: bool = False,
) -> tuple[list[int], bool]:
    """Minimize the column segments of the adjacency code over rank-respecting
    orderings.

    Returns (best_segments, found_smaller_than_incumbent).  With
    ``abort_on_smaller`` the search stops at the first ordering that beats the
    incumbent, which makes canonicity rejection cheap.
    """
    rank_seq = sorted(ranks)
    twin = _twin_classes(n, masks)
    best: list[int] | None = list(incumbent) if incumbent is not None else None
    version = 0
    placed: list[int] = []
    segs: list[int] = []
    used = 0

    def dfs(depth: int, rel_eq: bool, ver: int) -> None:
        nonlocal best, version, used
        if depth == n:
            if best is None:
                best = segs.copy()
                version += 1
            elif not rel_eq:
                best = segs.copy()
                version += 1
                if abort_on_smaller:
                    raise _Abort
            return
        required = rank_seq[depth]
        cands: list[tuple[int, int]] = []
        seen_twins: set[int] = set()
        for v in range(n):
            if used & (1 << v) or ranks[v] != required:
                continue
            cls = twin[v]
            if cls in seen_twins:
                continue
            seen_twins.add(cls)
            mv = masks[v]
            seg = 0
            for u in placed:
                seg = (seg << 1) | ((mv >> u) & 1)
            cands.append((seg, v))
        cands.sort()
        for seg, v in cands:
            if best is not None:
                if ver != version:
                    # Any update since we entered came from our own subtree,
                    # so the new best shares this node's prefix.
                    rel_eq = True
                    ver = version
                if rel_eq:
                    ref = best[depth]
                    if seg > ref:
                        break  # candidates sorted ascending
                    child_eq = seg == ref
                else:
                    child_eq = False
            else:
                child_eq = True
            placed.append(v)
            segs.append(seg)
            used |= 1 << v
            dfs(depth + 1, child_eq, version)
            placed.pop()
            segs.pop()
            used &= ~(1 << v)

    found_smaller = False
    try:
        dfs(0, True, version if best is not None else 0)
    except _Abort:
        found_smaller = True
    assert best is not None
    return best, found_smaller


def compose_code(segments: list[int]) -> int:
    """Pack per-position column segments into one integer code."""
    code = 0
    for width, seg in enumerate(segments):
        code = (code << width) | seg
    return code


def labeling_is_canonical(
    n: int, masks: tuple[int, ...], ranks: tuple[int, ...], own: list[int]
) -> bool:
    """True iff ``own`` (the graph's current labeling) attains the minimum code
    over rank-respecting orderings."""
    _, smaller = _search_min_segments(
        n, masks, ranks, incumbent=own, abort_on_smaller=True
    )
    return not smaller


@lru_cache(maxsize=8192)
def _canonical_key_cached(g: Graph) -> tuple[int, int]:
    n = g.n
    masks = g.adjacency_masks()
    ranks = _refine_ranks(n, masks, _ranks_by_descending_value(g.degrees()))
    best, _ = _search_min_segments(n, masks, ranks)
    return n, compose_code(best)


def canonical_key(g: Graph) -> tuple[int, int]:
    """Canonical form of ``g`` as ``(n, code)``; equal keys iff isomorphic."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise GraphTooLargeError(
            f"canonical labeling supports at most {MAX_CANONICAL_VERTICES} vertices"
        )
    return _canonical_key_cached(g)


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
