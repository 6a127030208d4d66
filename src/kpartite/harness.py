"""Verification campaigns over whole degree-equivalence classes.

A campaign walks integer partitions (ascending, lexicographic), enumerates
every realization of the clique-union degree sequence of each partition, and
checks the characterization: the clique union itself has independence number
exactly k, and every other realization has independence number at least
k + 1.  Campaign output files never contain wall-clock times, so reruns are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundReport, compare_bounds
from .errors import GraphTooLargeError
from .exact import max_independent_set
from .formats import encode_csv
from .graph import Graph
from .isomorphism import check_pattern_cap, contains_induced
from .realizations import ENUMERATION_CAP, check_enumeration_cap, enumerate_realizations
from .recognition import is_clique_union
from .sequences import PartitionProfile


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of checking one part profile's full realization class."""

    profile: PartitionProfile
    realization_count: int
    canonical_alpha: int | None
    min_alpha_noncanonical: int | None

    @property
    def canonical_found(self) -> bool:
        return self.canonical_alpha is not None

    @property
    def theorem_holds(self) -> bool:
        """Alpha is exactly k for the clique union, above k for the rest."""
        k = self.profile.k
        return self.canonical_alpha == k and (
            self.min_alpha_noncanonical is None or self.min_alpha_noncanonical > k
        )

    def summary_line(self) -> str:
        parts = ",".join(str(a) for a in self.profile.parts)
        min_alpha = (
            "-" if self.min_alpha_noncanonical is None else self.min_alpha_noncanonical
        )
        return (
            f"profile={parts} k={self.profile.k} realizations={self.realization_count} "
            f"canonical_found={self.canonical_found} canonical_alpha={self.canonical_alpha} "
            f"min_alpha_noncanonical={min_alpha} holds={self.theorem_holds}"
        )


def ascending_partitions(total: int, minimum: int = 1):
    """All partitions of ``total`` as ascending tuples, lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in ascending_partitions(total - first, first):
            yield (first,) + rest


def iter_profiles(max_n: int):
    """Every clique-size profile with total at most ``max_n``, in ascending
    total order and lexicographic partition order within each total.

    Each profile's realizations are enumerated, so ``max_n`` above
    ``ENUMERATION_CAP`` raises here, before the first profile is produced; a
    negative ``max_n`` raises ValueError (0 gives no profile).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    if max_n > ENUMERATION_CAP:
        raise GraphTooLargeError(
            f"verification is capped at total {ENUMERATION_CAP} vertices"
        )
    return (
        PartitionProfile(parts)
        for total in range(1, max_n + 1)
        for parts in ascending_partitions(total)
    )


def check_profile(profile: PartitionProfile, *, with_reports: bool = False) -> CampaignResult:
    """Enumerate all realizations of the profile's clique-union degree
    sequence and test the characterization on each, with one alpha solve per
    realization; bound reports come from :func:`bounds_report_rows`."""
    if with_reports:
        raise TypeError("check_profile builds no bound reports; use bounds_report_rows")
    count = 0
    canonical_alpha: int | None = None
    min_alpha: int | None = None
    for g in enumerate_realizations(profile.degree_sequence()):
        count += 1
        alpha = max_independent_set(g).size
        recognized = is_clique_union(g)
        if recognized is not None:
            if recognized.parts != profile.parts:
                raise AssertionError(
                    f"realization recognized with wrong profile {recognized.parts}"
                )
            if canonical_alpha is not None:
                raise AssertionError("two canonical realizations in one class")
            canonical_alpha = alpha
        elif min_alpha is None or alpha < min_alpha:
            min_alpha = alpha
    return CampaignResult(
        profile=profile,
        realization_count=count,
        canonical_alpha=canonical_alpha,
        min_alpha_noncanonical=min_alpha,
    )


def verify_theorem(max_n: int) -> list[CampaignResult]:
    """Run :func:`check_profile` for every profile with total <= max_n."""
    return [check_profile(p) for p in iter_profiles(max_n)]


def find_sharp_example(
    profile: PartitionProfile, patterns: list[Graph]
) -> Graph | None:
    """First enumerated non-canonical realization of the profile's clique
    union degree sequence whose independence number is exactly k + 1 and that
    contains every pattern as an induced subgraph.  The pattern cap is
    checked before the first realization is enumerated."""
    for pattern in patterns:
        check_pattern_cap(pattern.n)
    target = profile.degree_sequence()
    k = profile.k
    for g in enumerate_realizations(target):
        if is_clique_union(g) is not None:
            continue
        if max_independent_set(g).size != k + 1:
            continue
        if all(contains_induced(g, pattern) for pattern in patterns):
            return g
    return None


CAMPAIGN_CSV_COLUMNS = ("profile",) + BoundReport.CSV_COLUMNS + (
    "canonical",
    "sharpness_flagged",
)


def bounds_report_rows(profiles: list[PartitionProfile]) -> list[list[str]]:
    """Per-realization bound reports for whole profiles, one row of cells in
    ``CAMPAIGN_CSV_COLUMNS`` order per realization.  A row is ``canonical``
    when its sharpened bound is k; any other count than one such row per
    profile raises AssertionError.

    ``sharpness_flagged`` marks non-canonical realizations where every
    classical independence bound stays below k + 1 <= exact alpha, i.e. where
    the family bound beats all of them.  Every profile is checked against
    the enumeration cap before the first one is enumerated.
    """
    for profile in profiles:
        check_enumeration_cap(profile.n)
    rows: list[list[str]] = []
    for profile in profiles:
        k = profile.k
        profile_cell = " ".join(str(a) for a in profile.parts)
        canonical_rows = 0
        for g in enumerate_realizations(profile.degree_sequence()):
            report = compare_bounds(g, with_exact=True)
            canonical = report.sharpened_alpha == k
            canonical_rows += canonical
            classical_below = max(report.caro_wei, report.turan_alpha, report.hansen_zheng) < k + 1
            flagged = not canonical and classical_below and report.exact_alpha >= k + 1
            rows.append([profile_cell, *report.to_csv_row(), str(canonical), str(flagged)])
        if canonical_rows != 1:
            raise AssertionError(f"{canonical_rows} canonical realizations of {profile.parts}")
    return rows


def bounds_report_csv(profiles: list[PartitionProfile]) -> str:
    """CSV campaign report (fixed column order, schema version in each row)."""
    return encode_csv(CAMPAIGN_CSV_COLUMNS, bounds_report_rows(profiles))
