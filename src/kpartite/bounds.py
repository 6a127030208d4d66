"""Closed-form lower bounds on independence and clique numbers, the Turan
graph construction, the family-sharpened bounds, and a per-graph comparison
report.

All rational bounds are computed exactly with :class:`fractions.Fraction`, so
dominance comparisons in tests are exact; only the mean-square-degree clique
bound needs floating point (a square root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar

from .errors import OutsideFamilyError
from .exact import max_clique, max_independent_set
from .formats import encode_graph6
from .graph import Graph, complete_multipartite, degree_sequence
from .recognition import is_clique_union, is_complete_multipartite
from .sequences import (
    DegreeSequence,
    PartitionProfile,
    clique_union_profile_from_degrees,
    multipartite_profile_from_degrees,
)

REPORT_SCHEMA_VERSION = 1


def caro_wei(degrees: DegreeSequence) -> Fraction:
    """Independence bound: sum of 1/(d_i + 1), exact, one term per degree."""
    terms = (Fraction(count, d + 1) for d, count in degrees.multiplicities.items())
    return sum(terms, Fraction(0))


def turan_alpha(n: int, m: int) -> Fraction:
    """Independence bound n^2 / (n + 2m)."""
    if n < 1:
        raise ValueError("turan_alpha needs at least one vertex")
    return Fraction(n * n, n + 2 * m)


def hansen_zheng(n: int, m: int) -> int:
    """Independence bound ceil((2n - 2m/t) / (t + 1)) with t = floor(2m/n).

    For t = 0 (average degree below one) the formula degenerates; the value
    is then n - m, which every graph attains by dropping one endpoint per
    edge and equals the edgeless limit n at m = 0.
    """
    if n < 1:
        raise ValueError("hansen_zheng needs at least one vertex")
    t = (2 * m) // n
    if t == 0:
        return n - m
    return math.ceil(Fraction(2 * n * t - 2 * m, t * (t + 1)))


def myers_liu(n: int, m: int) -> Fraction:
    """Clique bound n^2 / (n^2 - 2m)."""
    if n < 1:
        raise ValueError("myers_liu needs at least one vertex")
    return Fraction(n * n, n * n - 2 * m)


def edwards_elphick(degrees: DegreeSequence) -> float:
    """Clique bound n / (n - sqrt(mean of d_i^2))."""
    n = degrees.n
    if n < 1:
        raise ValueError("edwards_elphick needs at least one vertex")
    mean_square = sum(d * d for d in degrees) / n
    return n / (n - math.sqrt(mean_square))


def turan_graph(n: int, k: int) -> Graph:
    """Complete k-partite graph on n vertices with parts of size floor(n/k)
    and ceil(n/k)."""
    sizes = turan_part_sizes(n, k)
    return complete_multipartite(sizes)


def turan_part_sizes(n: int, k: int) -> tuple[int, ...]:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    big = n % k
    return tuple([n // k] * (k - big) + [n // k + 1] * big)


def turan_edge_count(n: int, k: int) -> int:
    """Edge count of the Turan graph, from its part sizes."""
    sizes = turan_part_sizes(n, k)
    return (n * n - sum(a * a for a in sizes)) // 2


def _sharpened(profile: PartitionProfile | None, recognize, g: Graph) -> int | None:
    """The rule behind both sharpened bounds: k when ``recognize`` finds that
    g is its family's own graph, else k + 1; None outside the degree class."""
    return None if profile is None else profile.k + (recognize(g) is None)


def sharpened_alpha_bound(g: Graph) -> int:
    """For g degree-equivalent to a union of k cliques: k if g is that clique
    union itself (where the independence number is exactly k), else k + 1."""
    profile = clique_union_profile_from_degrees(degree_sequence(g))
    bound = _sharpened(profile, is_clique_union, g)
    if bound is None:
        raise OutsideFamilyError(
            "degree sequence does not match any disjoint clique union"
        )
    return bound


def sharpened_omega_bound(g: Graph) -> int:
    """For g degree-equivalent to a complete k-partite graph: k if g is that
    graph itself (clique number exactly k), else k + 1."""
    profile = multipartite_profile_from_degrees(degree_sequence(g))
    bound = _sharpened(profile, is_complete_multipartite, g)
    if bound is None:
        raise OutsideFamilyError(
            "degree sequence does not match any complete multipartite graph"
        )
    return bound


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one graph, plus exact numbers when computed.

    When exact values are present, every independence bound is at most
    ``exact_alpha`` and every clique bound at most ``exact_omega``.
    """

    graph_id: str
    n: int
    m: int
    caro_wei: Fraction
    turan_alpha: Fraction
    hansen_zheng: int
    myers_liu: Fraction
    edwards_elphick: float
    sharpened_alpha: int | None
    sharpened_omega: int | None
    exact_alpha: int | None
    exact_omega: int | None

    # Set below the class from the fields: the schema version, then each
    # field in declaration order.
    CSV_COLUMNS: ClassVar[tuple[str, ...]]

    def to_json_dict(self) -> dict:
        """Fields in ``CSV_COLUMNS`` order; fractions as ``p/q`` strings."""
        data: dict = {"schema_version": REPORT_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = str(value) if isinstance(value, Fraction) else value
        return data

    def to_csv_row(self) -> list[str]:
        def cell(value) -> str:
            if value is None:
                return ""
            return repr(value) if isinstance(value, float) else str(value)

        return [cell(value) for value in self.to_json_dict().values()]


BoundReport.CSV_COLUMNS = ("schema_version", *(f.name for f in fields(BoundReport)))


def compare_bounds(g: Graph, with_exact: bool = False) -> BoundReport:
    """Evaluate every bound on ``g``; sharpened bounds are None outside their
    family, exact values are None unless requested."""
    degrees = degree_sequence(g)
    n, m = g.n, g.m
    sharp_alpha = _sharpened(clique_union_profile_from_degrees(degrees), is_clique_union, g)
    sharp_omega = _sharpened(
        multipartite_profile_from_degrees(degrees), is_complete_multipartite, g
    )
    exact_alpha = exact_omega = None
    if with_exact:
        exact_alpha = max_independent_set(g).size
        exact_omega = max_clique(g).size
    return BoundReport(
        graph_id=encode_graph6(g),
        n=n,
        m=m,
        caro_wei=caro_wei(degrees),
        turan_alpha=turan_alpha(n, m),
        hansen_zheng=hansen_zheng(n, m),
        myers_liu=myers_liu(n, m),
        edwards_elphick=edwards_elphick(degrees),
        sharpened_alpha=sharp_alpha,
        sharpened_omega=sharp_omega,
        exact_alpha=exact_alpha,
        exact_omega=exact_omega,
    )
