"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is expected to finish in well under ten minutes.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from kpartite import (
    CanonicalGraphError,
    DegreeSequence,
    Graph,
    OpCounter,
    PartitionProfile,
    brute_force_alpha,
    caro_wei,
    clique_union,
    clique_union_profile_from_degrees,
    complement,
    complete_multipartite,
    compare_bounds,
    contains_induced,
    cycle_graph,
    decode_graph6,
    degree_sequence,
    edwards_elphick,
    enumerate_realizations,
    four_copies,
    hansen_zheng,
    havel_hakimi_realize,
    is_clique_union,
    is_complete_multipartite,
    iter_profiles,
    max_clique,
    max_independent_set,
    multipartite_profile_from_degrees,
    myers_liu,
    path_graph,
    random_switch_walk,
    turan_alpha,
    validate_certificate,
    witness_independent_set,
)

from .conftest import all_graphs_up_to_iso, random_graph


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS - {detail}")


def _cli(*argv: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "kpartite.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def family_corpus():
    """Every realization of every clique-union profile with total <= 9,
    tagged with its profile and exact independence number."""
    corpus = []
    for profile in iter_profiles(9):
        for g in enumerate_realizations(profile.degree_sequence()):
            corpus.append((profile, g, max_independent_set(g).size))
    return corpus


def test_criterion_1_exhaustive_theorem_verification():
    """verify-theorem --max-n 9: alpha == k exactly for the canonical clique
    union and alpha >= k+1 for every other realization; zero violations."""
    start = time.perf_counter()
    result = _cli("verify-theorem", "--max-n", "9")
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 violations" in result.stdout
    lines = [l for l in result.stdout.splitlines() if l.startswith("profile=")]
    assert len(lines) == len(list(iter_profiles(9)))
    assert all("holds=True" in l for l in lines)
    assert elapsed < 600.0
    _report(1, f"{len(lines)} profiles verified with zero violations in {elapsed:.1f}s")


def test_criterion_2_sharp_example_reproduction():
    """find-sharp --profile 3,3,4 --patterns p4,c5 returns a 10-vertex graph,
    degree-equivalent to K3 u K3 u K4, alpha exactly 4, with induced P4 and
    C5; deterministic output."""
    runs = [
        _cli("find-sharp", "--profile", "3,3,4", "--patterns", "p4,c5")
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    import json

    payload = json.loads(runs[0].stdout)
    # README documents this graph; the emission order decides it.
    assert payload["graph6"] == "IBHJCA@c?"
    g = decode_graph6(payload["graph6"])
    assert g.n == 10
    assert degree_sequence(g) == degree_sequence(clique_union([3, 3, 4]))
    assert is_clique_union(g) is None
    assert max_independent_set(g).size == 4 == payload["alpha"]
    assert contains_induced(g, path_graph(4))
    assert contains_induced(g, cycle_graph(5))
    _report(2, f"graph {payload['graph6']} has alpha 4 with induced P4 and C5")


def test_criterion_3_classical_bounds_not_sharp_on_example():
    """For the criterion-2 graph: caro_wei == 3, turan_alpha == 50/17,
    hansen_zheng == 3, all strictly below the sharpened bound 4."""
    result = _cli("find-sharp", "--profile", "3,3,4", "--patterns", "p4,c5")
    import json

    g = decode_graph6(json.loads(result.stdout)["graph6"])
    report = compare_bounds(g, with_exact=True)
    assert report.caro_wei == Fraction(3)
    assert report.turan_alpha == Fraction(50, 17)
    assert report.hansen_zheng == 3
    assert report.sharpened_alpha == 4
    assert report.exact_alpha == 4
    assert report.caro_wei < 4 and report.turan_alpha < 4 and report.hansen_zheng < 4
    _report(3, "caro_wei=3, turan=50/17, hansen_zheng=3 < sharpened=4 = alpha")


def test_criterion_4_recognition_against_brute_force_and_complexity():
    """All four recognition predicates agree with definitional checks on every
    graph with n <= 7, in the enumerator's canonical labeling and in a seeded
    relabelling, and instrumented probe counts scale within O(m + n log n) on
    a size ladder of family members."""
    from .test_recognition import (
        brute_force_is_clique_union,
        brute_force_is_multipartite,
    )

    rng = np.random.Generator(np.random.PCG64(7))
    checked = 0
    sequences_with_clique_union: set[DegreeSequence] = set()
    sequences_with_multipartite: set[DegreeSequence] = set()
    all_sequences: set[DegreeSequence] = set()
    for n in range(0, 8):
        for g in all_graphs_up_to_iso(n):
            perm = rng.permutation(n).tolist()
            relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            mp = is_complete_multipartite(g)
            assert (mp.parts if mp else None) == brute_force_is_multipartite(g)
            assert is_complete_multipartite(relabelled) == mp, g.edges()
            cu = is_clique_union(g)
            assert (cu.parts if cu else None) == brute_force_is_clique_union(g)
            assert is_clique_union(relabelled) == cu, g.edges()
            ds = degree_sequence(g)
            all_sequences.add(ds)
            if cu is not None:
                sequences_with_clique_union.add(ds)
            if mp is not None:
                sequences_with_multipartite.add(ds)
            checked += 1
    # degree-based predicates match realizability by exhaustiveness
    for ds in all_sequences:
        assert (clique_union_profile_from_degrees(ds) is not None) == (
            ds in sequences_with_clique_union
        )
        assert (multipartite_profile_from_degrees(ds) is not None) == (
            ds in sequences_with_multipartite
        )

    ratios = []
    for n in (100, 1000, 10000):
        cu_graph = clique_union([3] * (n // 3) + ([n % 3] if n % 3 else []))
        counter = OpCounter()
        assert is_clique_union(cu_graph, counter=counter) is not None
        budget = cu_graph.m + n * math.log2(n)
        assert counter.count <= 4 * budget
        ratios.append(counter.count / budget)

        mp_graph = complete_multipartite([2, n - 2])
        counter = OpCounter()
        assert is_complete_multipartite(mp_graph, counter=counter) is not None
        budget = mp_graph.m + n * math.log2(n)
        assert counter.count <= 4 * budget
        ratios.append(counter.count / budget)
    _report(
        4,
        f"{checked} graphs (n<=7) agree with brute force; ladder probe/budget "
        f"ratios max {max(ratios):.2f}",
    )


def test_criterion_5_four_copies_reduction():
    """For 25 random cubic graphs with n <= 14: alpha of the four-copy union
    is exactly 4 * alpha, and the union's degrees form a profile of all 4s."""
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = 0
    while checked < 25:
        n = int(rng.choice([4, 6, 8, 10, 12, 14]))
        base = havel_hakimi_realize(DegreeSequence([3] * n))
        g = random_switch_walk(base, steps=6 * base.m, seed=int(rng.integers(0, 10**9)))
        assert all(d == 3 for d in g.degrees())
        alpha = max_independent_set(g).size
        reduced = four_copies(g)
        assert max_independent_set(reduced).size == 4 * alpha
        profile = clique_union_profile_from_degrees(degree_sequence(reduced))
        assert profile is not None and profile.parts == (4,) * g.n
        checked += 1
    _report(5, "25 cubic graphs: alpha(four copies) == 4 * alpha, profile all 4s")


def test_criterion_6_witness_soundness(family_corpus):
    """witness_independent_set returns a validated independent set of size
    >= k+1 on every non-canonical realization of every profile with total
    <= 9, errors on every canonical one, and stays within n^3 steps on
    random family members up to n = 200."""
    noncanonical = 0
    canonical = 0
    for profile, g, alpha in family_corpus:
        if is_clique_union(g) is not None:
            with pytest.raises(CanonicalGraphError):
                witness_independent_set(g)
            canonical += 1
            continue
        cert = witness_independent_set(g)
        assert validate_certificate(g, cert)
        assert profile.k + 1 <= cert.size <= alpha
        noncanonical += 1

    rng = np.random.Generator(np.random.PCG64(7))
    for n in (50, 100, 150, 200):
        parts = []
        left = n
        while left > 0:
            a = int(rng.integers(1, min(left, 10) + 1))
            parts.append(a)
            left -= a
        profile = PartitionProfile(tuple(parts))
        base = clique_union(profile.parts)
        g = random_switch_walk(base, steps=4 * base.m, seed=n + 1)
        if is_clique_union(g) is not None:
            continue
        counter = OpCounter()
        cert = witness_independent_set(g, counter=counter)
        assert validate_certificate(g, cert)
        assert cert.size >= profile.k + 1
        assert counter.count <= n**3
    _report(
        6,
        f"witness sound on {noncanonical} non-canonical and {canonical} canonical "
        f"realizations; step counts within n^3 up to n=200",
    )


def test_criterion_7_bound_validity_on_random_graphs():
    """On 500 random graphs with n <= 16 every bound is at most the exact
    value, with exact rational arithmetic (square-root bound within 1e-9)."""
    rng = np.random.Generator(np.random.PCG64(123))
    for _ in range(500):
        n = int(rng.integers(1, 17))
        p = float(rng.uniform(0.05, 0.95))
        g = random_graph(n, p, rng)
        alpha = max_independent_set(g).size
        omega = max_clique(g).size
        ds = degree_sequence(g)
        cw = caro_wei(ds)
        ta = turan_alpha(g.n, g.m)
        hz = hansen_zheng(g.n, g.m)
        ml = myers_liu(g.n, g.m)
        assert isinstance(cw, Fraction) and isinstance(ta, Fraction)
        assert isinstance(hz, int) and isinstance(ml, Fraction)
        assert cw <= alpha and ta <= alpha and hz <= alpha
        assert ml <= omega
        assert edwards_elphick(ds) <= omega + 1e-9
    _report(7, "500 random graphs: every bound below the exact value")


def test_criterion_8_solver_against_oracle_and_duality():
    """Branch-and-bound alpha equals the subset-enumeration oracle on 200
    random graphs with n <= 16, and alpha(g) == omega(complement(g))."""
    rng = np.random.Generator(np.random.PCG64(321))
    for _ in range(200):
        n = int(rng.integers(1, 17))
        p = float(rng.uniform(0.05, 0.95))
        g = random_graph(n, p, rng)
        alpha = max_independent_set(g).size
        assert alpha == brute_force_alpha(g)
        assert alpha == max_clique(complement(g)).size
    _report(8, "200 random graphs: solver == oracle and alpha == omega(complement)")
