import hashlib
import random
from collections import Counter
from itertools import combinations_with_replacement, product

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpartite import (
    DegreeSequence,
    FormatError,
    PartitionProfile,
    clique_union,
    clique_union_profile_from_degrees,
    complete_multipartite,
    degree_sequence,
    is_graphical,
    multipartite_profile_from_degrees,
    parse_degree_list,
)
from kpartite.sequences import CLIQUE_SIZES, MULTIPARTITE_PARTS, _erdos_gallai_sorted

degree_lists = st.lists(st.integers(min_value=0, max_value=12), max_size=12)
profiles = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


def test_degree_sequence_basics():
    ds = DegreeSequence([3, 1, 2, 1])
    assert ds.sorted() == (1, 1, 2, 3)
    assert ds.sorted(descending=True) == (3, 2, 1, 1)
    assert ds.n == 4
    assert ds.multiplicities == {1: 2, 2: 1, 3: 1}
    assert ds == DegreeSequence([1, 1, 2, 3])
    with pytest.raises(ValueError):
        DegreeSequence([-1])


def test_profile_sorts_and_validates():
    p = PartitionProfile((4, 3, 3))
    assert p.parts == (3, 3, 4) and p.k == 3 and p.n == 10
    with pytest.raises(ValueError):
        PartitionProfile((0, 2))


def test_profile_degree_sequences():
    cliques = PartitionProfile((3, 3, 4), CLIQUE_SIZES)
    assert cliques.degree_sequence() == DegreeSequence([2] * 6 + [3] * 4)
    parts = PartitionProfile((3, 3, 4), MULTIPARTITE_PARTS)
    assert parts.degree_sequence() == DegreeSequence([7] * 6 + [6] * 4)


def test_multipartite_profile_from_degrees_examples():
    got = multipartite_profile_from_degrees(DegreeSequence([7] * 6 + [6] * 4))
    assert got is not None and got.parts == (3, 3, 4)
    got = multipartite_profile_from_degrees(DegreeSequence([2, 2, 2, 2]))
    assert got is not None and got.parts == (2, 2)
    assert multipartite_profile_from_degrees(DegreeSequence([1, 1, 1, 1])) is None
    with pytest.raises(ValueError):
        multipartite_profile_from_degrees(DegreeSequence([3, 3, 3]))


def test_multipartite_rule_on_every_small_multiset():
    # Every multiset of n <= 6 values from 0..n+1.  A degree of n or more is
    # rejected whatever else the multiset holds, naming the smallest one; the
    # digest pins the profiles (or None) of all the others.
    digest = hashlib.sha256()
    for n in range(7):
        for values in combinations_with_replacement(range(n + 2), n):
            ds = DegreeSequence(values)
            too_large = [d for d in values if d >= n]
            if too_large:
                message = f"degree {too_large[0]} impossible in a simple graph on {n} "
                with pytest.raises(ValueError, match=f"^{message}vertices$"):
                    multipartite_profile_from_degrees(ds)
                continue
            got = multipartite_profile_from_degrees(ds)
            line = "None" if got is None else f"{got.parts} {got.flavor}"
            digest.update(f"{values} {line}\n".encode())
    assert digest.hexdigest() == (
        "29566da7a7f6f7b056e42469d91aa23b5af5bf2ed72917baf8870d5bf0699a10"
    )


def test_clique_union_profile_from_degrees_examples():
    got = clique_union_profile_from_degrees(DegreeSequence([2] * 6 + [3] * 4))
    assert got is not None and got.parts == (3, 3, 4)
    assert clique_union_profile_from_degrees(DegreeSequence([2, 2, 2, 2])) is None
    got = clique_union_profile_from_degrees(DegreeSequence([0, 0, 0]))
    assert got is not None and got.parts == (1, 1, 1)


def test_empty_sequence_gives_empty_profiles():
    empty = DegreeSequence([])
    assert multipartite_profile_from_degrees(empty).parts == ()
    assert clique_union_profile_from_degrees(empty).parts == ()


@given(profiles)
def test_profile_round_trip_through_canonical_graphs(sizes):
    profile = PartitionProfile(tuple(sizes), MULTIPARTITE_PARTS)
    got = multipartite_profile_from_degrees(
        degree_sequence(complete_multipartite(profile.parts))
    )
    assert got is not None and got.parts == profile.parts

    dual = PartitionProfile(tuple(sizes), CLIQUE_SIZES)
    got = clique_union_profile_from_degrees(degree_sequence(clique_union(dual.parts)))
    assert got is not None and got.parts == dual.parts


@given(degree_lists)
def test_condition_duality_under_complement(values):
    ds = DegreeSequence(values)
    n = ds.n
    if any(d >= n for d in ds):
        return
    comp = ds.complement()
    left = multipartite_profile_from_degrees(ds) is not None
    right = clique_union_profile_from_degrees(comp) is not None
    assert left == right


def test_is_graphical_examples():
    assert is_graphical(DegreeSequence([2, 2, 2, 2]))
    assert not is_graphical(DegreeSequence([3, 3, 3]))
    assert not is_graphical(DegreeSequence([1, 1, 1]))
    assert is_graphical(DegreeSequence([]))
    assert is_graphical(DegreeSequence([0]))


@given(degree_lists)
def test_is_graphical_matches_networkx(values):
    assert is_graphical(DegreeSequence(values)) == nx.is_graphical(values)


def _erdos_gallai_every_k(seq):
    """The Erdos-Gallai inequality transcribed for every k, no early exit."""
    n = len(seq)
    return all(
        sum(seq[:k]) <= k * (k - 1) + sum(min(d, k) for d in seq[k:])
        for k in range(1, n + 1)
    )


def test_linear_erdos_gallai_matches_every_k_transcription():
    # Seeded sequences of up to 300 values: uniform, near-complete (degrees
    # n - 1, n - 2, n - 3) and sparse, sorted non-increasing with even sum.
    rng = random.Random(2003)
    verdicts = Counter()
    for trial in range(1500):
        n = rng.randint(1, 300 if trial % 10 == 0 else 40)
        shape = trial % 3
        if shape == 0:
            values = [rng.randrange(n) for _ in range(n)]
        elif shape == 1:
            values = [max(0, n - 1 - rng.randrange(3)) for _ in range(n)]
        else:
            values = [min(n - 1, rng.randrange(4)) for _ in range(n)]
        if sum(values) % 2:
            values[0] += 1 if values[0] < n - 1 else -1
        seq = tuple(sorted(values, reverse=True))
        verdict = _erdos_gallai_every_k(seq)
        assert _erdos_gallai_sorted(seq) == verdict, seq
        verdicts[verdict, n > 40] += 1
    assert min(verdicts[key] for key in product((False, True), repeat=2)) >= 20


def test_parse_degree_list():
    assert parse_degree_list("2,2,2,2") == DegreeSequence([2, 2, 2, 2])
    assert parse_degree_list("1 2  3") == DegreeSequence([1, 2, 3])
    with pytest.raises(FormatError):
        parse_degree_list("1,x")
