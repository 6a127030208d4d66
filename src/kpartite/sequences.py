"""Degree sequences, part-size profiles, and the arithmetic recognition tests
that work on degree multiplicities alone.

A vertex in a part of size ``a`` of a complete multipartite graph on ``n``
vertices has degree ``n - a``; a vertex in a clique of size ``a`` has degree
``a - 1``.  Both graph families are therefore recognizable from the degree
multiset by divisibility: the multiplicity of degree ``d`` must be a multiple
of ``n - d`` (multipartite) or of ``d + 1`` (clique union).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index

from .errors import FormatError
from .instrument import OpCounter

CLIQUE_SIZES = "clique-sizes"
MULTIPARTITE_PARTS = "multipartite-parts"


class DegreeSequence:
    """Multiset of vertex degrees with a multiplicity index.

    Accepts any multiset of non-negative integers so that non-graphical
    sequences can be represented and rejected by :func:`is_graphical`.
    """

    __slots__ = ("_sorted", "_multiplicities")

    def __init__(self, degrees: Iterable[int]) -> None:
        values = sorted(index(d) for d in degrees)
        if values and values[0] < 0:
            raise ValueError("degrees must be non-negative")
        self._sorted = tuple(values)
        self._multiplicities = Counter(values)

    @property
    def n(self) -> int:
        return len(self._sorted)

    @property
    def multiplicities(self) -> Mapping[int, int]:
        return dict(self._multiplicities)

    def sorted(self, descending: bool = False) -> tuple[int, ...]:
        if descending:
            return tuple(reversed(self._sorted))
        return self._sorted

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self._sorted)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DegreeSequence):
            return self._sorted == other._sorted
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sorted)

    def __repr__(self) -> str:
        return f"DegreeSequence({list(self._sorted)})"

    def complement(self) -> "DegreeSequence":
        """Degree sequence of the complement graph: d -> n - 1 - d."""
        n = self.n
        return DegreeSequence(n - 1 - d for d in self._sorted)


@dataclass(frozen=True)
class PartitionProfile:
    """Sorted part sizes ``a_1 <= ... <= a_k`` of a complete multipartite
    graph (flavor ``multipartite-parts``) or a clique union (``clique-sizes``)."""

    parts: tuple[int, ...]
    flavor: str = field(default=CLIQUE_SIZES, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(sorted(index(a) for a in self.parts))
        if parts and parts[0] < 1:
            raise ValueError("part sizes must be positive")
        object.__setattr__(self, "parts", parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def degree_sequence(self) -> DegreeSequence:
        """Degrees of the canonical graph with these part sizes."""
        n = self.n
        if self.flavor == MULTIPARTITE_PARTS:
            return DegreeSequence(n - a for a in self.parts for _ in range(a))
        return DegreeSequence(a - 1 for a in self.parts for _ in range(a))

    def __repr__(self) -> str:
        return f"PartitionProfile({list(self.parts)}, {self.flavor!r})"


def multipartite_profile_from_degrees(degrees: DegreeSequence) -> PartitionProfile | None:
    """Part sizes of a complete multipartite graph with this degree multiset,
    or None if no such graph exists.

    The complement of a complete multipartite graph is the union of cliques
    on its parts, so this is the clique rule on the complementary degrees:
    the multiplicity of each degree ``d`` must be a multiple of ``n - d``.
    Raises ValueError naming the smallest degree that is ``n`` or more.
    """
    n = degrees.n
    too_large = [d for d in degrees.multiplicities if d >= n]
    if too_large:
        raise ValueError(
            f"degree {min(too_large)} impossible in a simple graph on {n} vertices"
        )
    profile = clique_union_profile_from_degrees(degrees.complement())
    if profile is None:
        return None
    return PartitionProfile(profile.parts, MULTIPARTITE_PARTS)


def clique_union_profile_from_degrees(
    degrees: DegreeSequence, counter: OpCounter | None = None
) -> PartitionProfile | None:
    """Clique sizes of a disjoint clique union with this degree multiset, or
    None if no such graph exists.

    The multiplicity of each degree ``d`` must be a multiple of ``d + 1``;
    every ``d + 1`` vertices of degree ``d`` form one clique.
    """
    parts: list[int] = []
    for d, mult in degrees.multiplicities.items():
        if counter is not None:
            counter.bump()
        size = d + 1
        if mult % size != 0:
            return None
        parts.extend([size] * (mult // size))
    return PartitionProfile(tuple(parts), CLIQUE_SIZES)


def is_graphical(degrees: DegreeSequence) -> bool:
    """Erdos-Gallai test: True iff some simple graph has this degree multiset."""
    seq = degrees.sorted(descending=True)
    n = len(seq)
    if n == 0:
        return True
    if seq[0] >= n:
        return False
    if sum(seq) % 2 != 0:
        return False
    return _erdos_gallai_sorted(seq)


def _erdos_gallai_sorted(seq: Sequence[int]) -> bool:
    # seq sorted non-increasing, all in [0, n), even sum.
    n = len(seq)
    # suffix[i] = sum(seq[i:]); seq[:w] are the entries >= k.
    suffix = list(accumulate(reversed(seq), initial=0))[::-1]
    w = n
    prefix = 0
    for k in range(1, n + 1):
        prefix += seq[k - 1]
        while w and seq[w - 1] < k:
            w -= 1
        # sum(min(d, k) for d in seq[k:]): entries before max(w, k) give k.
        j = max(w, k)
        if prefix > k * (k - 1) + k * (j - k) + suffix[j]:
            return False
        if k < n and seq[k] <= k:
            # Remaining prefixes cannot fail once the k-th largest degree
            # drops to k or below (standard early exit).
            break
    return True


def parse_degree_list(text: str) -> DegreeSequence:
    """Parse comma- or whitespace-separated degrees, e.g. ``"2,2,2,2"``."""
    tokens = text.replace(",", " ").split()
    try:
        return DegreeSequence(int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"invalid degree list: {text!r}") from exc
