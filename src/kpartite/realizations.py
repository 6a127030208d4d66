"""Degree-sequence realizations: one witness graph, exhaustive enumeration up
to isomorphism, seeded 2-switch sampling, and the four-copies reduction.

Enumeration builds graphs one vertex at a time in non-increasing target-degree
order, deciding each new vertex's back-edges as a column of the adjacency
triangle.  A partial graph survives only if its labeling attains the minimum
column code over all orderings that respect the target degrees; the prefix of
a minimal labeling is itself minimal, so this canonicity test is what makes
every isomorphism class appear exactly once; the rows of emitted graphs are
kept only as a guard that fails loudly otherwise.  Degree-0 vertices are not
searched: they are appended to every emitted graph.

Degree feasibility is read off one residual vector per node, the degree
each placed vertex still needs.  A child may leave a placed vertex no more
residual than there are vertices still to place, so a vertex that needs
one more than that joins every child; the residual sum after a child
depends only on the child's size, so what the future targets can take
bounds the size from below; Erdos-Gallai on the child's residuals and the
future targets runs only on the children that pass both.

Each node of the search tests in this order: the children are generated with
the cheap tests (the column-order filter, then feasibility); only once the
first child passes them is the node's own labeling tested for canonicity,
and then its children are entered in order.  The filter compares a new
column with the previous vertex's row, within a target-degree block, and
the canonicity test reads the prefix's own rows against one slot table of
the whole ordering, so the rows are the only record of a labeling.
A leaf is tested when it is reached.  This is exact: a prefix with no
admissible child has no leaf below it, canonical or not, so skipping its
test drops no graph, and the children keep their order, so the emitted
graphs and their order are those of testing every child before entering it.
The last two prefixes are not tested at all.  The last vertex must join
every vertex with residual degree left, so the prefix one short of a leaf
has at most one child, built directly with only the column-order filter,
and below the prefix two short lies one forced column.  A leaf whose
prefix is not minimal is not minimal, so the leaves' own tests decide, and
no deeper subtree is walked in vain.  Deferring the test one level further
ran a campaign over totals <= 10 slower than this rule, and deferring it
to the first leaf below a prefix, which walks the dead subtrees under
non-canonical prefixes, about 1.5 times slower.

The 2-switch sampler draws from the standard library's ``random.Random``
seeded with the walk seed.  Only its ``random()`` floats are used, the one
stream Python keeps the same across versions, so walks replay from the seed
on every platform.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Iterator
from itertools import combinations

from .errors import GraphTooLargeError, NonGraphicalError
from .graph import Graph, complement, disjoint_union
from .isomorphism import _rank_slots, _ranks_by_descending_value, labeling_is_canonical
from .sequences import DegreeSequence, _erdos_gallai_sorted, is_graphical

ENUMERATION_CAP = 10


def havel_hakimi_realize(degrees: DegreeSequence) -> Graph:
    """One realization of a graphical degree sequence.

    Vertex i receives the i-th largest degree; each round links the vertex of
    largest remaining degree (lowest index on ties) to the next-largest ones.
    By the Havel-Hakimi theorem a round runs out of neighbours exactly when
    the sequence is not graphical, so the rounds are the graphicality test:
    that round raises NonGraphicalError.

    The live vertices sit in buckets by remaining degree, each ascending by
    index, so the rounds never sort: a round takes whole buckets from the top
    and a prefix of the last one, and moves each taken group down one bucket.
    A whole bucket moves as it is; only the two groups at the boundary are
    merged, by one slice insertion unless they interleave.
    """
    n = degrees.n
    remaining = degrees.sorted(descending=True)
    if n and remaining[0] >= n:
        # The first round would fail; fail before sizing the buckets by it.
        raise NonGraphicalError(f"{degrees!r} is not graphical")
    rows = [0] * n
    buckets: list[list[int]] = [[] for _ in range(max(remaining, default=0) + 1)]
    for v, d in enumerate(remaining):
        buckets[d].append(v)
    live = n - len(buckets[0])
    top = len(buckets) - 1
    while live:
        while not buckets[top]:
            top -= 1
        if top >= live:
            raise NonGraphicalError(f"{degrees!r} is not graphical")
        group = buckets[top]
        v = group.pop(0)
        live -= 1
        bit = 1 << v
        # Walk down from the top bucket: bucket d keeps its untaken vertices
        # plus the group taken from bucket d + 1, which lost one degree.
        left = d = top
        moved: list[int] = []
        while left:
            if left >= len(group):
                taken = group
                buckets[d] = moved
            else:
                taken = group[:left]
                del group[:left]
                _merge_into(group, moved)
            left -= len(taken)
            row = rows[v]
            for u in taken:
                rows[u] |= bit
                row |= 1 << u
            rows[v] = row
            moved = taken
            d -= 1
            group = buckets[d]
        if d:
            _merge_into(group, moved)
        else:  # the last group taken has no degree left
            live -= len(moved)
    return Graph._from_rows(tuple(rows))


def _merge_into(group: list[int], moved: list[int]) -> None:
    """Merge ``moved`` into ``group``, both ascending: one slice insertion
    when ``moved`` fits between two neighbours of ``group``."""
    if not moved:
        return
    at = bisect(group, moved[0])
    if at == bisect(group, moved[-1], at):
        group[at:at] = moved
    else:
        group += moved
        group.sort()


def check_enumeration_cap(n: int) -> None:
    """Raise GraphTooLargeError if ``n`` vertices exceed ``ENUMERATION_CAP``."""
    if n > ENUMERATION_CAP:
        raise GraphTooLargeError(
            f"enumeration supports at most {ENUMERATION_CAP} vertices, got {n}"
        )


def enumerate_realizations(degrees: DegreeSequence) -> Iterator[Graph]:
    """Stream every simple graph with the given degree sequence, exactly one
    representative per isomorphism class, in a fixed deterministic order.

    The cap and graphicality are checked at the call, before the first graph
    is produced.
    """
    check_enumeration_cap(degrees.n)
    if not is_graphical(degrees):
        raise NonGraphicalError(f"{degrees!r} is not graphical")
    return _enumerate_graphs(degrees)


def _enumerate_graphs(degrees: DegreeSequence) -> Iterator[Graph]:
    """The orderly search on the positive targets, with the degree-0 vertices
    appended to each leaf.  The order is that of a search over all targets:
    the zeros sort last and take the last rank, so the other ranks stay; an
    all-zero column can neither make a canonical prefix non-canonical nor be
    reordered into a smaller code; and each extra child that search tries is
    one the feasibility tests cut.  ``n`` counts the positive targets only,
    so isolated vertices are no capacity."""
    targets = degrees.sorted(descending=True)
    n = len(targets) - targets.count(0)
    isolated = (0,) * (len(targets) - n)
    if n == 0:
        yield Graph._from_rows(isolated)
        return
    targets = targets[:n]
    # One slot table serves every prefix.  supply[p]: the most edges the
    # targets after p placed vertices can take from those p.
    slots = _rank_slots(_ranks_by_descending_value(targets))
    supply = [sum(min(t, p) for t in targets[p:]) for p in range(n + 1)]
    # Rows of the graphs emitted so far: no class may be emitted twice.
    emitted: set[tuple[int, ...]] = set()

    def extend(rows: tuple[int, ...]):
        # ``rows`` holds the placed vertices; one vertex is canonical.  No
        # graphical sequence has one positive target, so the root is no leaf.
        r = len(rows)
        if r == n - 1:
            leaf = _last_child(rows, targets)
            if leaf is None or not labeling_is_canonical(leaf, slots):
                return
            if leaf in emitted:
                raise AssertionError("enumeration emitted two isomorphic graphs")
            emitted.add(leaf)
            yield Graph._from_rows(leaf + isolated)
            return
        # The canonicity test waits for the first admissible child: a prefix
        # with none yields nothing, canonical or not.  The (n-2)-prefix is
        # not tested: below it are only forced leaves, which are tested.
        below = _children(rows, targets, supply)
        first = next(below, None)
        if first is None:
            return
        if 1 < r < n - 2 and not labeling_is_canonical(rows, slots):
            return
        yield from extend(first)
        for child in below:
            yield from extend(child)

    # is_graphical() is the feasibility test of the one-vertex prefix.
    yield from extend((0,))


def _last_child(
    rows: tuple[int, ...], targets: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The leaf's rows that ``rows`` forces, or None if the last column fails
    the column-order filter of ``_children``.  The child test that made
    ``rows`` (is_graphical() for a one-vertex root) held every residual to at
    most 1 and their sum to at most the last target, and Erdos-Gallai held
    the sum to at least it, so the vertices with one left are the column."""
    r = len(rows)
    col = 0
    for u, (target, row) in enumerate(zip(targets, rows)):
        if row.bit_count() < target:
            col |= 1 << u
    prev = rows[r - 1] if targets[r] == targets[r - 1] else 0
    differ = (col & ((1 << (r - 1)) - 1)) ^ prev
    if prev & differ & -differ:
        return None
    bit = 1 << r
    return (*(row | bit if col >> u & 1 else row for u, row in enumerate(rows)), col)


def _children(
    rows: tuple[int, ...], targets: tuple[int, ...], supply: list[int]
) -> Iterator[tuple[int, ...]]:
    """Every placement of vertex r = len(rows) that passes the column-order
    filter and the feasibility tests, as the child's rows, in size order
    and then combinations() order."""
    n = len(targets)
    r = len(rows)
    t = targets[r]
    future = n - r - 1
    res = [target - row.bit_count() for target, row in zip(targets, rows)]
    # A child leaves each placed vertex at most ``future`` residual degree.
    # The parent's child test held every residual to ``future + 1`` (and
    # is_graphical() the first vertex's), so a vertex with ``future + 1``
    # joins every child and none has more.
    must = [u for u in range(r) if res[u] > future]
    free = [u for u in range(r) if 0 < res[u] <= future]
    # A child of any ``size`` leaves the residual sum sum(res) + t - 2 size,
    # which the future targets must be able to take.
    low = max(len(must), t - future, (sum(res) + t - supply[r + 1] + 1) // 2)
    high = min(t, len(must) + len(free))
    if low > high:
        return
    base_rows = list(rows)
    base_col = 0
    for u in must:
        base_rows[u] |= 1 << r
        base_col |= 1 << u
        res[u] -= 1
    res += targets[r + 1 :]
    # A minimal labeling has non-decreasing columns within one target-degree
    # block, compared on the shared positions, first position first: the
    # new column is below the previous vertex's (its row, ``prev``) when
    # the first position where they differ is set in ``prev``.  Outside a
    # block ``prev`` is 0, which nothing is below.
    prev = rows[r - 1] if t == targets[r - 1] else 0
    shared = (1 << (r - 1)) - 1
    for size in range(low, high + 1):
        for chosen in combinations(free, size - len(must)):
            col = base_col
            for u in chosen:
                col |= 1 << u
            # The first position is the most significant, so combinations()
            # of one size come in decreasing code order: the first column
            # below the previous one ends the size.
            differ = (col & shared) ^ prev
            if prev & differ & -differ:
                break
            # Erdos-Gallai on the residuals and the future targets.  Parity
            # needs no test: they sum to the even degree total minus twice
            # the placed edges.
            left = res.copy()
            for u in chosen:
                left[u] -= 1
            left.append(t - size)
            left.sort(reverse=True)
            if not _erdos_gallai_sorted(left):
                continue
            child = base_rows.copy()
            for u in chosen:
                child[u] |= 1 << r
            yield (*child, col)


def random_switch_walk(g: Graph, steps: int, seed: int) -> Graph:
    """Walk ``steps`` proposed 2-switches from ``g``; proposals that would
    create loops or duplicate edges are rejected but still consume a step.

    Deterministic: proposals are drawn from ``random.Random(seed)``.  Each
    edge slot is ``int(random() * count)`` (non-uniform by less than
    count / 2**53) and the rewiring coin is ``random() < 0.5``.  A graph with
    more than half of all possible edges is walked on its complement and the
    walk's endpoint complemented back.  Negative seeds and negative step
    counts raise ValueError.  Every visited graph has the degree sequence of
    ``g``.

    Slot i holds the edge ``(tails[i], heads[i])``, tail below head, and
    the edge set is kept as packed keys ``tail * n + head``: a proposal
    costs a few comparisons and at most two set lookups, and no row is
    touched until the result is built from the final slots.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if 4 * g.m > g.n * (g.n - 1):
        # More than half of all pairs are edges, so almost every proposal
        # would hit an existing edge.  A 2-switch of the complement is a
        # 2-switch of ``g``, so walk the sparser complement instead.
        return complement(random_switch_walk(complement(g), steps, seed))
    draw = random.Random(seed).random
    n = g.n
    edges = g.edges()
    tails = [u for u, _ in edges]
    heads = [v for _, v in edges]
    present = {u * n + v for u, v in edges}
    m = len(edges)
    for _ in range(steps if m >= 2 else 0):
        i = int(draw() * m)
        j = int(draw() * (m - 1))
        if j >= i:
            j += 1
        a = tails[i]
        b = heads[i]
        c = tails[j]
        d = heads[j]
        if a == c or a == d or b == c or b == d:
            continue
        # Rewire to (a, x) and (b, y).
        if draw() < 0.5:
            x, y = c, d
        else:
            x, y = d, c
        if a < x:
            t1, h1 = a, x
        else:
            t1, h1 = x, a
        if b < y:
            t2, h2 = b, y
        else:
            t2, h2 = y, b
        key1 = t1 * n + h1
        key2 = t2 * n + h2
        if key1 in present or key2 in present:
            continue
        present.remove(a * n + b)
        present.remove(c * n + d)
        present.add(key1)
        present.add(key2)
        tails[i] = t1
        heads[i] = h1
        tails[j] = t2
        heads[j] = h2
    rows = [0] * n
    for u, v in zip(tails, heads):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_rows(tuple(rows))


def four_copies(g: Graph) -> Graph:
    """Disjoint union of four copies of a cubic graph; the result is
    degree-equivalent to a union of 4-cliques and has four times the
    independence number of ``g``."""
    if any(d != 3 for d in g.degrees()):
        raise ValueError("four_copies requires a cubic (3-regular) graph")
    return disjoint_union([g, g, g, g])
