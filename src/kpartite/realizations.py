"""Degree-sequence realizations: one witness graph, exhaustive enumeration up
to isomorphism, seeded 2-switch sampling, and the four-copies reduction.

Enumeration builds graphs one vertex at a time in non-increasing target-degree
order, deciding each new vertex's back-edges as a column of the adjacency
triangle.  A partial graph survives only if its labeling attains the minimum
column code over all orderings that respect the target degrees; the prefix of
a minimal labeling is itself minimal, so every isomorphism class is emitted
exactly once without storing previously seen graphs.  Degree feasibility of
every partial graph is checked with residual-capacity and Erdos-Gallai
pruning.

The 2-switch sampler draws from the standard library's ``random.Random``
seeded with the walk seed.  Only its ``random()`` floats are used, the one
stream Python keeps the same across versions, so walks replay from the seed
on every platform.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .errors import GraphTooLargeError, NonGraphicalError
from .graph import Graph, complement, disjoint_union
from .isomorphism import (
    _ranks_by_descending_value,
    compose_code,
    labeling_is_canonical,
)
from .sequences import DegreeSequence, _erdos_gallai_sorted, is_graphical

ENUMERATION_CAP = 10


def havel_hakimi_realize(degrees: DegreeSequence) -> Graph:
    """One realization of a graphical degree sequence.

    Vertex i receives the i-th largest degree; each round links the vertex of
    largest remaining degree (lowest index on ties) to the next-largest ones.
    By the Havel-Hakimi theorem a round runs out of neighbours exactly when
    the sequence is not graphical, so the rounds are the graphicality test:
    that round raises NonGraphicalError.
    """
    remaining = list(degrees.sorted(descending=True))
    rows = [0] * degrees.n
    alive = [v for v, d in enumerate(remaining) if d > 0]
    while alive:
        # Stable sort of an index-ordered list: ties stay lowest index first.
        order = sorted(alive, key=remaining.__getitem__, reverse=True)
        v = order[0]
        need = remaining[v]
        if need >= len(order):
            raise NonGraphicalError(f"{degrees!r} is not graphical")
        for u in order[1 : need + 1]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            remaining[u] -= 1
        remaining[v] = 0
        alive = [u for u in alive if remaining[u] > 0]
    return Graph._from_rows(tuple(rows))


def enumerate_realizations(degrees: DegreeSequence) -> Iterator[Graph]:
    """Stream every simple graph with the given degree sequence, exactly one
    representative per isomorphism class, in a fixed deterministic order.

    The cap and graphicality are checked at the call, before the first graph
    is produced.
    """
    if degrees.n > ENUMERATION_CAP:
        raise GraphTooLargeError(
            f"enumeration supports at most {ENUMERATION_CAP} vertices, got {degrees.n}"
        )
    if not is_graphical(degrees):
        raise NonGraphicalError(f"{degrees!r} is not graphical")
    return _enumerate_graphs(degrees)


def _enumerate_graphs(degrees: DegreeSequence) -> Iterator[Graph]:
    n = degrees.n
    targets = degrees.sorted(descending=True)
    if n == 0:
        yield Graph(0)
        return
    ranks = _ranks_by_descending_value(targets)

    masks = [0] * n
    residual = [0] * n
    segs: list[int] = [0]
    residual[0] = targets[0]
    # Codes of the graphs emitted so far: no class may be emitted twice.
    emitted: set[int] = set()
    # The shared masks/residual/segs state is mutated depth-first; the stream
    # must be consumed from a single thread.

    def feasible(placed: int) -> bool:
        future = n - placed
        total_placed = 0
        for v in range(placed):
            r = residual[v]
            if r > future:
                return False
            total_placed += r
        # Parity needs no test: residuals plus future targets sum to the even
        # degree total minus twice the placed edges.
        future_targets = targets[placed:]
        supply = sum(min(t, placed) for t in future_targets)
        if total_placed > supply:
            return False
        combined = sorted(residual[:placed] + list(future_targets), reverse=True)
        return _erdos_gallai_sorted(tuple(combined))

    def extend(r: int):
        # vertices 0..r-1 placed; place vertex r.
        if r == n:
            if all(residual[v] == 0 for v in range(n)):
                code = compose_code(segs)
                if code in emitted:
                    raise AssertionError("enumeration emitted two isomorphic graphs")
                emitted.add(code)
                yield Graph._from_rows(tuple(masks))
            return
        t = targets[r]
        future = n - r - 1
        eligible = [u for u in range(r) if residual[u] > 0]
        low = max(0, t - future)
        high = min(t, len(eligible))
        prev_seg = segs[-1] if r >= 1 else 0
        same_rank = r >= 1 and ranks[r] == ranks[r - 1]
        for size in range(low, high + 1):
            for chosen in combinations(eligible, size):
                seg = 0
                for u in range(r):
                    seg = (seg << 1) | (1 if u in chosen else 0)
                # A minimal labeling has non-decreasing columns within one
                # target-degree block (restricted to shared positions).
                if same_rank and (seg >> 1) < prev_seg:
                    continue
                for u in chosen:
                    residual[u] -= 1
                    masks[u] |= 1 << r
                    masks[r] |= 1 << u
                residual[r] = t - size
                segs.append(seg)
                if feasible(r + 1) and labeling_is_canonical(
                    r + 1, tuple(masks[: r + 1]), ranks[: r + 1], segs
                ):
                    yield from extend(r + 1)
                segs.pop()
                residual[r] = 0
                for u in chosen:
                    residual[u] += 1
                    masks[u] &= ~(1 << r)
                    masks[r] &= ~(1 << u)

    # The one-vertex prefix is trivially canonical; start the search there.
    if feasible(1):
        yield from extend(1)


@dataclass(frozen=True)
class SwitchStep:
    """One degree-preserving edge swap: remove two disjoint edges, add one of
    the two possible rewirings of their four endpoints."""

    removed: tuple[tuple[int, int], tuple[int, int]]
    added: tuple[tuple[int, int], tuple[int, int]]


def two_switch(g: Graph, step: SwitchStep) -> Graph:
    """Apply a validated 2-switch; raises ValueError on an invalid step."""
    (a, b), (c, d) = step.removed
    endpoints = {a, b, c, d}
    if len(endpoints) != 4:
        raise ValueError("2-switch needs four distinct vertices")
    added_endpoints = {v for e in step.added for v in e}
    if added_endpoints != endpoints:
        raise ValueError("added edges must rewire the removed endpoints")
    for u, v in step.removed:
        if not g.has_edge(u, v):
            raise ValueError(f"removed edge ({u}, {v}) not present")
    for u, v in step.added:
        if g.has_edge(u, v):
            raise ValueError(f"added edge ({u}, {v}) already present")
    # The checks above leave no loop and no removed edge among the added
    # edges; int() keeps NumPy integers out of the rows.
    rows = list(g.adjacency_masks())
    for u, v in (*step.removed, *step.added):
        rows[u] ^= 1 << int(v)
        rows[v] ^= 1 << int(u)
    return Graph._from_rows(tuple(rows))


def inverse_step(step: SwitchStep) -> SwitchStep:
    return SwitchStep(removed=step.added, added=step.removed)


def random_switch_walk(g: Graph, steps: int, seed: int) -> Graph:
    """Walk ``steps`` proposed 2-switches from ``g``; proposals that would
    create loops or duplicate edges are rejected but still consume a step.

    Deterministic: proposals are drawn from ``random.Random(seed)``.  Each
    edge slot is ``int(random() * count)`` (non-uniform by less than
    count / 2**53) and the rewiring coin is ``random() < 0.5``.  A graph with
    more than half of all possible edges is walked on its complement and the
    walk's endpoint complemented back.  Negative seeds raise ValueError.
    Every visited graph has the degree sequence of ``g``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if 4 * g.m > g.n * (g.n - 1):
        # More than half of all pairs are edges, so almost every proposal
        # would hit an existing edge.  A 2-switch of the complement is a
        # 2-switch of ``g``, so walk the sparser complement instead.
        return complement(random_switch_walk(complement(g), steps, seed))
    draw = random.Random(seed).random
    edges = g.edges()
    rows = list(g.adjacency_masks())
    m = len(edges)
    for _ in range(steps):
        if m < 2:
            break
        i = int(draw() * m)
        j = int(draw() * (m - 1))
        if j >= i:
            j += 1
        a, b = edges[i]
        c, d = edges[j]
        if len({a, b, c, d}) != 4:
            continue
        if draw() < 0.5:
            new1, new2 = (a, c), (b, d)
        else:
            new1, new2 = (a, d), (b, c)
        if (rows[new1[0]] >> new1[1]) & 1 or (rows[new2[0]] >> new2[1]) & 1:
            continue
        for u, v in ((a, b), (c, d), new1, new2):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        edges[i] = tuple(sorted(new1))
        edges[j] = tuple(sorted(new2))
    return Graph._from_rows(tuple(rows))


def four_copies(g: Graph) -> Graph:
    """Disjoint union of four copies of a cubic graph; the result is
    degree-equivalent to a union of 4-cliques and has four times the
    independence number of ``g``."""
    if any(d != 3 for d in g.degrees()):
        raise ValueError("four_copies requires a cubic (3-regular) graph")
    return disjoint_union([g, g, g, g])
