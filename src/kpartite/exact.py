"""Exact independence and clique numbers with certificates.

The solver is a bitset branch-and-bound over independent sets: it branches on
the vertex of maximum remaining degree (ties to the lowest index) and prunes
with a greedy clique-cover upper bound.  Each connected component is solved
as a vertex mask over the graph's own rows, and the masks are merged.
``brute_force_alpha`` is a deliberately separate subset-enumeration oracle
used to cross-validate the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphTooLargeError
from .graph import Graph, complement, connected_components, iter_bits

INDEPENDENT_SET = "independent-set"
CLIQUE = "clique"

DEFAULT_SOLVER_CAP = 64
DEFAULT_BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class WitnessCertificate:
    """Vertex set claimed independent (or complete), with its size."""

    vertices: frozenset[int]
    kind: str

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


def validate_certificate(g: Graph, certificate: WitnessCertificate) -> bool:
    """Independent check that a certificate is what it claims on ``g``."""
    members = sorted(certificate.vertices)
    if members and not (0 <= members[0] and members[-1] < g.n):
        return False
    rows = g.adjacency_masks()
    chosen = sum(1 << v for v in members)
    for u in members:
        others = rows[u] & chosen
        if certificate.kind == INDEPENDENT_SET and others:
            return False
        if certificate.kind == CLIQUE and others != chosen ^ (1 << u):
            return False
    return True


def _clique_cover_bound(cand: int, masks: tuple[int, ...]) -> int:
    """Number of cliques in a greedy cover of the candidate set; an upper
    bound for the independence number of the induced subgraph."""
    cliques: list[int] = []
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        mv = masks[v]
        for i, members in enumerate(cliques):
            if members & ~mv == 0:
                cliques[i] = members | low
                break
        else:
            cliques.append(low)
    return len(cliques)


def _greedy_independent(cand: int, masks: tuple[int, ...]) -> int:
    chosen = 0
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        chosen |= low
        rest &= ~(masks[v] | low)
    return chosen


def _mis_component(cand: int, masks: tuple[int, ...]) -> int:
    """Maximum independent set of the component ``cand`` (a vertex mask over
    the graph's bitmask rows ``masks``); returns the set as a bitmask.
    Deterministic: the first largest set found in branch order."""
    seed = _greedy_independent(cand, masks)
    best_mask = seed
    best_size = seed.bit_count()

    def solve(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_mask, best_size
        if cand == 0:
            # Equal-size leaves need no tie rule: none can decide the result.
            # An exclude-leaf follows a one-vertex candidate set, whose
            # include-leaf came first and is one larger.  An include-leaf
            # that ties had a parent past the clique-cover prune, so that
            # candidate set is no clique, yet the branch vertex (of maximum
            # degree) is adjacent to all of it.  Two non-adjacent candidates
            # then beat the tie by one, and the exclude branch finds a set
            # that large before the search ends.
            if cur_size > best_size:
                best_mask, best_size = cur_mask, cur_size
            return
        if cur_size + cand.bit_count() <= best_size:
            return
        if cur_size + _clique_cover_bound(cand, masks) <= best_size:
            return
        # Branch vertex: maximum degree inside the candidate set, lowest index.
        branch = -1
        branch_deg = -1
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            dv = (masks[v] & cand).bit_count()
            if dv > branch_deg:
                branch, branch_deg = v, dv
        bit = 1 << branch
        solve(cand & ~(masks[branch] | bit), cur_mask | bit, cur_size + 1)
        solve(cand & ~bit, cur_mask, cur_size)

    solve(cand, 0, 0)
    return best_mask


def max_independent_set(g: Graph, cap: int = DEFAULT_SOLVER_CAP) -> WitnessCertificate:
    """Maximum independent set of ``g`` as a validated certificate."""
    if g.n > cap:
        raise GraphTooLargeError(f"graph has {g.n} vertices, solver cap is {cap}")
    rows = g.adjacency_masks()
    chosen = 0
    for comp in connected_components(g):
        chosen |= _mis_component(sum(1 << v for v in comp), rows)
    return WitnessCertificate(frozenset(iter_bits(chosen)), INDEPENDENT_SET)


def max_clique(g: Graph, cap: int = DEFAULT_SOLVER_CAP) -> WitnessCertificate:
    """Maximum clique, solved as an independent set of the complement.  The
    cap is checked before the O(n^2) complement is built."""
    if g.n > cap:
        raise GraphTooLargeError(f"graph has {g.n} vertices, solver cap is {cap}")
    cert = max_independent_set(complement(g), cap=cap)
    return WitnessCertificate(cert.vertices, CLIQUE)


def brute_force_alpha(g: Graph) -> int:
    """Independence number by checking all 2^n subsets (oracle; at most
    ``DEFAULT_BRUTE_FORCE_CAP`` vertices)."""
    n = g.n
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise GraphTooLargeError(
            f"graph has {g.n} vertices, brute-force cap is {DEFAULT_BRUTE_FORCE_CAP}"
        )
    masks = g.adjacency_masks()
    independent = bytearray(1 << n)
    independent[0] = 1
    best = 0
    for subset in range(1, 1 << n):
        low = subset & -subset
        v = low.bit_length() - 1
        rest = subset ^ low
        if independent[rest] and not (masks[v] & rest):
            independent[subset] = 1
            size = subset.bit_count()
            if size > best:
                best = size
    return best
