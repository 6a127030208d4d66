import hashlib
from fractions import Fraction

import pytest

from kpartite import (
    GraphTooLargeError,
    PartitionProfile,
    bounds_report_csv,
    check_profile,
    clique_union,
    cycle_graph,
    degree_sequence,
    find_sharp_example,
    is_isomorphic,
    iter_profiles,
    max_independent_set,
    path_graph,
    verify_theorem,
)
import kpartite.bounds
import kpartite.exact
import kpartite.harness
from kpartite.harness import ascending_partitions


def test_partition_iteration_order():
    assert list(ascending_partitions(4)) == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 3),
        (2, 2),
        (4,),
    ]
    profiles = list(iter_profiles(3))
    assert [p.parts for p in profiles] == [(1,), (1, 1), (2,), (1, 1, 1), (1, 2), (3,)]


def test_check_profile_pair_of_triangles():
    result = check_profile(PartitionProfile((3, 3)))
    assert result.realization_count == 2
    assert result.canonical_found and result.canonical_alpha == 2
    assert result.min_alpha_noncanonical == 3
    assert result.theorem_holds
    assert len(result.reports) == 2


def test_check_profile_examples():
    result = check_profile(PartitionProfile((2, 3)))
    assert result.realization_count == 2  # K2 u K3 and P5
    assert result.theorem_holds

    result = check_profile(PartitionProfile((1,)))
    assert result.realization_count == 1
    assert result.canonical_alpha == 1
    assert result.theorem_holds


def test_verify_theorem_small():
    results = verify_theorem(6)
    assert all(r.theorem_holds for r in results)
    assert len(results) == len(list(iter_profiles(6)))
    with pytest.raises(GraphTooLargeError):
        verify_theorem(11)


def test_find_sharp_without_patterns_finds_c6():
    g = find_sharp_example(PartitionProfile((3, 3)), [])
    assert g is not None
    assert is_isomorphic(g, cycle_graph(6))


def test_find_sharp_with_impossible_pattern_is_absent():
    assert find_sharp_example(PartitionProfile((3, 3)), [cycle_graph(5)]) is None


def test_find_sharp_is_deterministic():
    a = find_sharp_example(PartitionProfile((3, 3, 4)), [path_graph(4)])
    b = find_sharp_example(PartitionProfile((3, 3, 4)), [path_graph(4)])
    assert a == b and a is not None
    assert max_independent_set(a).size == 4
    assert degree_sequence(a) == degree_sequence(clique_union([3, 3, 4]))


def test_bounds_report_csv_is_deterministic_and_flags_sharp_rows():
    profiles = [PartitionProfile((3, 3)), PartitionProfile((2, 2))]
    first = bounds_report_csv(profiles)
    second = bounds_report_csv(profiles)
    assert first == second
    # The campaign CSV is a published output: its bytes are pinned.
    digest = hashlib.sha256(first.encode()).hexdigest()
    assert digest == "2863eab0264fc31eb4e4fed73add602192ab4e35a3a971e48195a266e4735062"
    lines = first.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "profile"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # profile (3,3): C6 is flagged (classical bounds 2 < 3 <= alpha)
    flagged = [r for r in rows if r["sharpness_flagged"] == "True"]
    assert any(r["profile"] == "3 3" for r in flagged)
    for row in flagged:
        k = len(row["profile"].split())
        assert Fraction(row["caro_wei"]) < k + 1
        assert int(row["exact_alpha"]) >= k + 1
        assert row["canonical"] == "False"
    # The classical bounds depend only on the degrees, so they stay at most k
    # on the whole class: exactly the non-canonical rows are flagged.
    assert all((r["sharpness_flagged"] == "True") == (r["canonical"] == "False") for r in rows)


def test_empty_campaign():
    assert bounds_report_csv([]).strip().splitlines()[0].startswith("profile")


def test_check_profile_with_reports_solves_alpha_once(monkeypatch):
    calls = {"mis": 0, "clique": 0}
    solve, clique = kpartite.exact.max_independent_set, kpartite.bounds.max_clique

    def counted_mis(*args, **kwargs):
        calls["mis"] += 1
        return solve(*args, **kwargs)

    def counted_clique(*args, **kwargs):
        calls["clique"] += 1
        return clique(*args, **kwargs)

    for module in (kpartite.exact, kpartite.bounds, kpartite.harness):
        monkeypatch.setattr(module, "max_independent_set", counted_mis)
    monkeypatch.setattr(kpartite.bounds, "max_clique", counted_clique)
    result = check_profile(PartitionProfile((2, 3, 3)), with_reports=True)
    assert result.realization_count > 1
    assert calls["clique"] == result.realization_count
    assert calls["mis"] == result.realization_count + calls["clique"]
