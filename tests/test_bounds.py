import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpartite import (
    DegreeSequence,
    OutsideFamilyError,
    PartitionProfile,
    caro_wei,
    clique_union,
    compare_bounds,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    degree_sequence,
    edwards_elphick,
    empty_graph,
    enumerate_realizations,
    hansen_zheng,
    is_clique_union,
    max_clique,
    max_independent_set,
    myers_liu,
    path_graph,
    sharpened_alpha_bound,
    sharpened_omega_bound,
    turan_alpha,
    turan_edge_count,
    turan_graph,
)

from .conftest import random_graph_corpus

profiles = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5)


def test_caro_wei_examples():
    assert caro_wei(DegreeSequence([2] * 6 + [3] * 4)) == 3
    assert caro_wei(DegreeSequence([0] * 7)) == 7
    assert caro_wei(degree_sequence(complete_graph(6))) == 1


@given(profiles)
def test_caro_wei_exact_on_clique_union_sequences(sizes):
    profile = PartitionProfile(tuple(sizes))
    assert caro_wei(profile.degree_sequence()) == profile.k


def test_caro_wei_matches_per_vertex_sum():
    # The per-degree-class sum against one Fraction per vertex, as written
    # before, on seeded degree lists and the degrees of random graphs.
    rng = random.Random(9)
    lists = [[], [0], [5] * 6, [rng.randrange(40) for _ in range(300)]]
    lists += [list(degree_sequence(g)) for g in random_graph_corpus(40, 30, seed=9)]
    for degrees in lists:
        total = Fraction(0)
        for d in degrees:
            total += Fraction(1, d + 1)
        assert caro_wei(DegreeSequence(degrees)) == total


def test_turan_alpha_examples():
    assert turan_alpha(10, 12) == Fraction(50, 17)
    assert turan_alpha(4, 0) == 4
    assert turan_alpha(5, 10) == 1
    with pytest.raises(ValueError):
        turan_alpha(0, 0)


def test_hansen_zheng_examples():
    assert hansen_zheng(10, 12) == 3
    assert hansen_zheng(6, 3) == 3
    assert hansen_zheng(4, 0) == 4
    # degenerate guard stays a valid bound: alpha(K2 + isolated vertex) = 2
    assert hansen_zheng(3, 1) == 2


def test_myers_liu_examples():
    assert myers_liu(4, 4) == 2
    assert myers_liu(5, 0) == 1
    assert myers_liu(10, 33) == Fraction(100, 34)


def test_edwards_elphick_examples():
    assert edwards_elphick(degree_sequence(complete_graph(6))) == pytest.approx(6.0)
    assert edwards_elphick(DegreeSequence([0, 0, 0])) == pytest.approx(1.0)
    expected = 10 / (10 - math.sqrt(6))
    assert edwards_elphick(DegreeSequence([2] * 6 + [3] * 4)) == pytest.approx(
        expected, abs=1e-9
    )


def test_turan_graph_examples():
    from kpartite import is_isomorphic

    assert is_isomorphic(turan_graph(5, 2), complete_multipartite([2, 3]))
    assert turan_edge_count(5, 2) == 6
    assert turan_edge_count(6, 3) == 12
    assert is_isomorphic(turan_graph(7, 7), complete_graph(7))
    with pytest.raises(ValueError):
        turan_graph(5, 6)
    with pytest.raises(ValueError):
        turan_graph(5, 0)


def test_turan_graph_construction_properties():
    for n in range(1, 9):
        for k in range(1, n + 1):
            g = turan_graph(n, k)
            assert g.m == turan_edge_count(n, k)
            assert max_clique(g).size == k


def test_turan_edge_threshold_forces_bigger_clique():
    # any graph with more than t(n, k) edges has a clique on k+1 vertices
    for g in random_graph_corpus(count=40, max_n=8, seed=23):
        if g.n < 1:
            continue
        omega = max_clique(g).size
        for k in range(1, g.n):
            if g.m > turan_edge_count(g.n, k):
                assert omega >= k + 1


def test_sharpened_alpha_examples():
    assert sharpened_alpha_bound(clique_union([3, 3])) == 2
    assert sharpened_alpha_bound(cycle_graph(6)) == 3
    assert max_independent_set(cycle_graph(6)).size == 3
    with pytest.raises(OutsideFamilyError):
        sharpened_alpha_bound(path_graph(4))


def test_sharpened_omega_examples():
    assert sharpened_omega_bound(complete_multipartite([3, 3, 4])) == 3
    assert sharpened_omega_bound(complement(cycle_graph(6))) == 3
    with pytest.raises(OutsideFamilyError):
        sharpened_omega_bound(path_graph(4))


def test_sharpened_bounds_are_complement_duals():
    for g in [cycle_graph(6), clique_union([2, 3]), path_graph(5)]:
        assert sharpened_alpha_bound(g) == sharpened_omega_bound(complement(g))


def test_sharpened_dominates_classical_on_noncanonical_members():
    profile = PartitionProfile((3, 3, 4))
    k = profile.k
    target = profile.degree_sequence()
    for g in enumerate_realizations(target):
        cw = caro_wei(degree_sequence(g))
        ta = turan_alpha(g.n, g.m)
        assert ta <= cw == k
        if is_clique_union(g) is None:
            assert sharpened_alpha_bound(g) == k + 1 > cw


def test_bounds_valid_on_random_corpus():
    for g in random_graph_corpus(count=80, max_n=12, seed=37):
        if g.n == 0:
            continue
        alpha = max_independent_set(g).size
        omega = max_clique(g).size
        ds = degree_sequence(g)
        assert caro_wei(ds) <= alpha
        assert turan_alpha(g.n, g.m) <= alpha
        assert hansen_zheng(g.n, g.m) <= alpha
        assert myers_liu(g.n, g.m) <= omega
        assert edwards_elphick(ds) <= omega + 1e-9


def test_compare_bounds_reports():
    report = compare_bounds(cycle_graph(6), with_exact=True)
    assert report.caro_wei == 2
    assert report.turan_alpha == 2
    assert report.sharpened_alpha == 3
    assert report.exact_alpha == 3
    assert report.sharpened_omega is None

    report = compare_bounds(complete_graph(5), with_exact=True)
    assert report.myers_liu == 5
    assert report.edwards_elphick == pytest.approx(5.0)
    assert report.exact_omega == 5

    report = compare_bounds(empty_graph(4), with_exact=False)
    assert report.caro_wei == report.turan_alpha == report.hansen_zheng == 4
    assert report.exact_alpha is None


def test_report_serialization_round_trips():
    report = compare_bounds(cycle_graph(6), with_exact=True)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["caro_wei"] == "2"
    assert payload["schema_version"] == 1
    row = report.to_csv_row()
    assert len(row) == len(report.CSV_COLUMNS)
    assert row[0] == "1"
