"""Constructive independent-set witnesses for non-canonical members of the
clique-union degree-equivalence family (dually, clique witnesses in the
complete-multipartite family).

For a graph degree-equivalent to a union of k cliques that is not that clique
union itself, the construction returns an independent set of size at least
k + 1 in polynomial time:

1. Strip every connected component that is itself a clique; each removal
   shrinks the part profile by one and contributes one vertex to the final
   set.  A non-canonical input leaves a non-empty remainder with no clique
   components.
2. Partition the remainder into layers by degree: the layer for part size a
   holds a vertices of degree a - 1; equal sizes are split into index-sorted
   chunks.  Write a_1 = ... = a_c < a_{c+1} <= ... for the c minimum parts.
3. Core step: inside the subgraph induced by the c minimum layers, any
   maximal independent set has at least c vertices (each chosen vertex
   dominates at most a_1 vertices of the c * a_1 total).  If greedy gives
   exactly c, the counting forces the chosen neighborhoods to be pairwise
   disjoint and to cover everything else; some chosen vertex then has two
   non-adjacent neighbors (otherwise the remainder would contain a clique
   component), and swapping it for that pair yields c + 1 vertices.
4. Extension step: the remaining layers are added one at a time, in order.
   All current members have degree at most one less than their layer's part
   size, so they cannot dominate the strictly larger next layer; an
   index-ascending scan finds a vertex non-adjacent to all members.

Steps 2-4 run on the input's own rows, limited to the vertices the strip keeps.
Each step is deterministic, so certificates are reproducible.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import CanonicalGraphError, OutsideFamilyError, ProofStateError
from .exact import CLIQUE, INDEPENDENT_SET, WitnessCertificate, _greedy_independent
from .graph import Graph, complement, degree_sequence, induced_subgraph, iter_bits
from .instrument import OpCounter
from .recognition import clique_classes
from .sequences import CLIQUE_SIZES, PartitionProfile, clique_union_profile_from_degrees


@dataclass(frozen=True)
class ProofState:
    """Working state of the constructive search.  Vertex sets are masks on the
    host's ``rows``: ``layers`` holds one mask per part, in ascending part
    size (the masks are disjoint, so a sum of them is their union);
    ``chosen`` holds the members, ``blocked`` the members and their
    neighbours, ``free`` the vertices outside ``blocked`` of the layers in
    play (the c minimum layers and ``level`` more)."""

    rows: tuple[int, ...]
    profile: PartitionProfile
    min_part_count: int
    layers: tuple[int, ...]
    level: int
    chosen: int
    blocked: int
    free: int

    @property
    def independent(self) -> tuple[int, ...]:
        """The members, ascending."""
        return tuple(iter_bits(self.chosen))


def strip_clique_components(
    g: Graph, profile: PartitionProfile
) -> tuple[Graph, PartitionProfile]:
    """Remove every connected component that is a complete graph; drop one
    matching part per removal.  The remainder is degree-equivalent to the
    reduced profile and has no clique components."""
    kept, reduced, _ = _strip(g, profile)
    return induced_subgraph(g, kept), reduced


def _strip(
    g: Graph, profile: PartitionProfile, counter: OpCounter | None = None
) -> tuple[list[int], PartitionProfile, list[int]]:
    """The vertices outside clique components, the reduced profile and the
    lowest vertex of each clique component, all ascending."""
    left = Counter(profile.parts)
    rows = g.adjacency_masks()
    lowest = []
    covered = bytearray(g.n)
    for low, q in clique_classes(rows, g.degrees(), counter):
        if not left[q]:
            raise ProofStateError(
                f"clique component of size {q} has no matching part in "
                f"{sorted(left.elements())}"
            )
        left[q] -= 1
        lowest.append(low)
        # The component is its lowest vertex and that vertex's neighbours.
        covered[low] = 1
        for u in iter_bits(rows[low]):
            covered[u] = 1
    kept = [v for v, c in enumerate(covered) if not c]
    return kept, PartitionProfile(tuple(left.elements()), CLIQUE_SIZES), lowest


def initial_proof_state(g: Graph, profile: PartitionProfile) -> ProofState:
    """State for a stripped graph: layers assigned, no vertices chosen yet."""
    return _proof_state(g, range(g.n), profile)


def _proof_state(
    g: Graph, kept: Iterable[int], profile: PartitionProfile
) -> ProofState:
    """State on the rows of ``g``.  The layers split the ascending ``kept``
    vertices (components, none a clique) by the sorted part sizes: the layer
    for size a is the mask of a vertices of degree a - 1, in index order."""
    parts = profile.parts
    if not parts:
        raise ProofStateError("empty profile; graph was fully stripped")
    rows, degrees = g.adjacency_masks(), g.degrees()
    by_degree: dict[int, list[int]] = {}
    for v in kept:
        by_degree.setdefault(degrees[v], []).append(v)
    layers: list[int] = []
    cursor: dict[int, int] = {}
    for a in parts:
        bucket = by_degree.get(a - 1, [])
        start = cursor.get(a, 0)
        chunk = bucket[start : start + a]
        if len(chunk) != a:
            raise ProofStateError(
                f"degree class {a - 1} too small for part of size {a}"
            )
        cursor[a] = start + a
        # Shift the chunk's span once, not each vertex across all n bits.
        low = chunk[0]
        layers.append(sum(1 << (v - low) for v in chunk) << low)
    c = parts.count(parts[0])
    return ProofState(rows, profile, c, tuple(layers), 0, 0, 0, sum(layers[:c]))


def base_independent_set(
    state: ProofState, counter: OpCounter | None = None
) -> ProofState:
    """Install an independent set of size >= c + 1 in the c minimum layers.

    Greedy (ascending index) gives a maximal independent set of size >= c; if
    it has exactly c members, one of them must have two non-adjacent
    neighbors, and the swap repair replaces it by that pair.  A set larger
    than c + 1 fast-forwards the layer induction by its surplus.
    """
    rows = state.rows
    c = state.min_part_count
    core = sum(state.layers[:c])
    if counter is not None:
        counter.bump(core.bit_count())
    chosen = _greedy_independent(core, rows)
    if chosen.bit_count() < c:
        raise ProofStateError(
            "maximal independent set smaller than the minimum-part count"
        )
    if chosen.bit_count() == c:
        chosen = _swap_repair(chosen, core, rows, counter)
    level = min(chosen.bit_count() - c - 1, state.profile.k - c)
    blocked = 0
    for v in iter_bits(chosen):
        blocked |= rows[v] | 1 << v
    free = sum(state.layers[: c + level]) & ~blocked
    return ProofState(
        rows, state.profile, c, state.layers, level, chosen, blocked, free
    )


def _swap_repair(
    chosen: int, core: int, rows: tuple[int, ...], counter: OpCounter | None
) -> int:
    """Swap a member of ``chosen`` for two non-adjacent neighbours in ``core``."""
    for x in iter_bits(chosen):
        neighborhood = rows[x] & core
        # The lowest neighbour y with a non-adjacent partner, and its lowest
        # such partner z, are the first non-adjacent pair in ascending order.
        for y in iter_bits(neighborhood):
            if counter is not None:
                counter.bump()
            apart = neighborhood & ~(rows[y] | 1 << y)
            if apart:
                return (chosen ^ 1 << x) | 1 << y | apart & -apart
    raise ProofStateError(
        "all chosen neighborhoods are cliques; the stripped graph would "
        "contain a clique component"
    )


def extend_independent_set(
    state: ProofState, counter: OpCounter | None = None
) -> ProofState:
    """Bring every remaining layer into play, in order, and for each add the
    lowest-indexed vertex of the layers in play that is non-adjacent to all
    members: one counted step and O(n / w) word operations per layer.  The
    result is at level k - c and has one more member per layer added."""
    c = state.min_part_count
    level = state.profile.k - c
    if state.level >= level:
        raise ProofStateError("no further layers to extend into")
    rows, chosen, blocked, free = state.rows, state.chosen, state.blocked, state.free
    for layer in state.layers[c + state.level :]:
        free = (free | layer) & ~blocked
        if counter is not None:
            counter.bump()
        if not free:
            raise ProofStateError(
                "extension scan found no vertex; degree bookkeeping violated"
            )
        low = free & -free
        chosen |= low
        blocked |= rows[low.bit_length() - 1] | low
    free &= ~blocked
    return ProofState(rows, state.profile, c, state.layers, level, chosen, blocked, free)


def witness_independent_set(
    g: Graph, counter: OpCounter | None = None
) -> WitnessCertificate:
    """Independent set of size >= k + 1 for a non-canonical graph that is
    degree-equivalent to a union of k cliques.

    Raises OutsideFamilyError when the degree sequence does not match any
    clique union, CanonicalGraphError when the graph is the clique union
    itself (its independence number is exactly k).
    """
    profile = clique_union_profile_from_degrees(degree_sequence(g))
    if profile is None:
        raise OutsideFamilyError(
            "degree sequence does not match any disjoint clique union"
        )
    kept, reduced, lowest = _strip(g, profile, counter)
    if not kept:  # every component is a clique
        raise CanonicalGraphError(
            "graph is the canonical clique union; no larger independent set exists"
        )
    state = _proof_state(g, kept, reduced)
    state = base_independent_set(state, counter)
    if state.level < reduced.k - state.min_part_count:
        state = extend_independent_set(state, counter)
    chosen = frozenset([*iter_bits(state.chosen), *lowest])
    certificate = WitnessCertificate(chosen, INDEPENDENT_SET)
    if certificate.size < profile.k + 1:
        raise ProofStateError("constructed witness smaller than required")
    return certificate


def witness_clique(g: Graph, counter: OpCounter | None = None) -> WitnessCertificate:
    """Clique of size >= k + 1 for a non-canonical graph degree-equivalent to
    a complete k-partite graph; runs the independent-set construction on the
    complement."""
    try:
        cert = witness_independent_set(complement(g), counter)
    except OutsideFamilyError:
        raise OutsideFamilyError(
            "degree sequence does not match any complete multipartite graph"
        ) from None
    except CanonicalGraphError:
        raise CanonicalGraphError(
            "graph is the canonical complete multipartite graph; "
            "no larger clique exists"
        ) from None
    return WitnessCertificate(cert.vertices, CLIQUE)
