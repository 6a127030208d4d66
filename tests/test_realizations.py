import hashlib
import random
from itertools import combinations, combinations_with_replacement

import networkx as nx
import pytest

from kpartite import (
    DegreeSequence,
    Graph,
    GraphTooLargeError,
    NonGraphicalError,
    SwitchStep,
    is_graphical,
    clique_union,
    clique_union_profile_from_degrees,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    degree_sequence,
    encode_graph6,
    enumerate_realizations,
    four_copies,
    havel_hakimi_realize,
    is_complete_multipartite,
    is_isomorphic,
    iter_profiles,
    max_independent_set,
    path_graph,
    petersen_graph,
    random_switch_walk,
    two_switch,
)
from kpartite.realizations import inverse_step

from .conftest import all_graphs_up_to_iso


def test_havel_hakimi_examples():
    g = havel_hakimi_realize(DegreeSequence([2, 2, 2, 2]))
    assert is_isomorphic(g, cycle_graph(4))
    assert havel_hakimi_realize(DegreeSequence([0, 0])) == Graph(2)
    target = DegreeSequence([2] * 6 + [3] * 4)
    g = havel_hakimi_realize(target)
    assert degree_sequence(g) == target
    with pytest.raises(NonGraphicalError):
        havel_hakimi_realize(DegreeSequence([1, 1, 1]))


def test_havel_hakimi_decides_graphicality_itself():
    # Every multiset of n <= 7 values from 0..n, so degrees >= n and odd sums
    # are included: the greedy rounds must fail exactly on the sequences
    # Erdos-Gallai rejects, with the same message.
    count = 0
    for n in range(8):
        for seq in combinations_with_replacement(range(n + 1), n):
            count += 1
            target = DegreeSequence(seq)
            if is_graphical(target):
                assert degree_sequence(havel_hakimi_realize(target)) == target
            else:
                with pytest.raises(NonGraphicalError) as info:
                    havel_hakimi_realize(target)
                assert str(info.value) == f"{target!r} is not graphical"
    assert count == 4707


def test_havel_hakimi_output_matches_recorded_digest():
    # Seeded clique-union and random graphical sequences up to 1000 vertices;
    # the digest pins which of the tied vertices each round links.
    draw = random.Random(20261018).random
    digest = hashlib.sha256()
    for n in (7, 30, 120, 400, 1000):
        sizes: list[int] = []
        while sum(sizes) < n:
            sizes.append(min(n - sum(sizes), 1 + int(draw() * 25)))
        p = min(0.5, 12 / n)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < p])
        for host in (clique_union(sizes), g):
            realized = havel_hakimi_realize(degree_sequence(host))
            assert degree_sequence(realized) == degree_sequence(host)
            digest.update(f"{encode_graph6(realized)}\n".encode())
    assert digest.hexdigest() == (
        "29be6990df6714a158da59c3567cfd93628792ee395f7a7379e5fafb62fba97b"
    )


def test_enumerate_two_regular_six():
    graphs = list(enumerate_realizations(DegreeSequence([2] * 6)))
    assert len(graphs) == 2
    assert any(is_isomorphic(g, cycle_graph(6)) for g in graphs)
    assert any(is_isomorphic(g, clique_union([3, 3])) for g in graphs)


def test_enumerate_path_or_triangle_plus_edge():
    graphs = list(enumerate_realizations(DegreeSequence([1, 1, 2, 2, 2])))
    assert len(graphs) == 2
    assert any(is_isomorphic(g, path_graph(5)) for g in graphs)
    assert any(is_isomorphic(g, clique_union([3, 2])) for g in graphs)


def test_enumerate_single_vertex():
    assert list(enumerate_realizations(DegreeSequence([0]))) == [Graph(1)]


def test_enumerate_two_regular_nine():
    # 2-regular graphs are disjoint unions of cycles of length >= 3:
    # the partitions 9, 3+6, 4+5, 3+3+3.
    graphs = list(enumerate_realizations(DegreeSequence([2] * 9)))
    assert len(graphs) == 4


def test_enumeration_caps_and_guards():
    with pytest.raises(GraphTooLargeError):
        enumerate_realizations(DegreeSequence([0] * 11))
    with pytest.raises(NonGraphicalError):
        enumerate_realizations(DegreeSequence([3, 0, 0, 0]))


def test_enumeration_matches_naive_filter_small():
    """Cross-check class counts against filtering all labeled graphs by
    degree sequence and deduplicating with networkx isomorphism."""
    for n in range(0, 6):
        pairs = list(combinations(range(n), 2))
        by_sequence: dict[tuple[int, ...], list[nx.Graph]] = {}
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = nx.empty_graph(n)
            g.add_edges_from(edges)
            seq = tuple(sorted(d for _, d in g.degree()))
            reps = by_sequence.setdefault(seq, [])
            if not any(nx.is_isomorphic(g, r) for r in reps):
                reps.append(g)
        for seq, reps in by_sequence.items():
            ours = list(enumerate_realizations(DegreeSequence(seq)))
            assert len(ours) == len(reps), (n, seq)


def test_enumeration_matches_naive_filter_selected_six_vertex_sequences():
    # full 2^15 matrix filter at n=6 is slow, so spot-check a few sequences
    pairs = list(combinations(range(6), 2))
    for seq in [(2, 2, 2, 2, 2, 2), (1, 1, 2, 2, 2, 2), (3, 3, 3, 3, 3, 3)]:
        reps: list[nx.Graph] = []
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = nx.empty_graph(6)
            g.add_edges_from(edges)
            if tuple(sorted(d for _, d in g.degree())) != seq:
                continue
            if not any(nx.is_isomorphic(g, r) for r in reps):
                reps.append(g)
        ours = list(enumerate_realizations(DegreeSequence(seq)))
        assert len(ours) == len(reps), seq


def test_enumeration_streams_have_target_degrees_and_contain_havel_hakimi():
    for seq in [[2] * 6, [1, 1, 2, 2, 2], [3] * 6, [2] * 5 + [3] * 2, [0, 1, 1, 2, 2]]:
        target = DegreeSequence(seq)
        graphs = list(enumerate_realizations(target))
        assert all(degree_sequence(g) == target for g in graphs)
        hh = havel_hakimi_realize(target)
        assert any(is_isomorphic(g, hh) for g in graphs)


def test_enumeration_deterministic_order():
    runs = [
        [g.edges() for g in enumerate_realizations(DegreeSequence([2] * 6 + [3] * 4))]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_enumeration_order_matches_recorded_digest():
    # Every realization of every clique-union profile with total <= 9, in
    # emission order; the digest pins the order as well as the graphs.
    digest = hashlib.sha256()
    count = 0
    for profile in iter_profiles(9):
        for g in enumerate_realizations(profile.degree_sequence()):
            digest.update(f"{encode_graph6(g)}\n".encode())
            count += 1
    assert count == 603
    assert digest.hexdigest() == (
        "0f4d009329b0e050334f61409141e54f386ea150dfc7e92dd2c2d85a820f797c"
    )


def test_graph_counts_by_vertex_count():
    # classic counts of graphs up to isomorphism
    expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, value in expected.items():
        assert len(all_graphs_up_to_iso(n)) == value


def test_per_sequence_counts_match_graph_atlas():
    """The networkx graph atlas lists every graph with up to 7 vertices;
    group it by degree sequence and compare class counts."""
    from collections import Counter
    from itertools import combinations_with_replacement

    from networkx.generators.atlas import graph_atlas_g

    by_seq: Counter = Counter()
    for g in graph_atlas_g()[1:]:
        seq = tuple(sorted(d for _, d in g.degree()))
        by_seq[(g.number_of_nodes(), seq)] += 1

    for n in (5, 6, 7):
        for seq in combinations_with_replacement(range(n), n):
            ds = DegreeSequence(seq)
            if not is_graphical(ds):
                assert (n, tuple(seq)) not in by_seq
                continue
            ours = sum(1 for _ in enumerate_realizations(ds))
            assert ours == by_seq.get((n, tuple(seq)), 0), (n, seq)


def test_two_switch_example():
    c6 = cycle_graph(6)
    step = SwitchStep(removed=((0, 1), (3, 4)), added=((0, 4), (1, 3)))
    g = two_switch(c6, step)
    assert is_isomorphic(g, clique_union([3, 3]))
    assert degree_sequence(g) == degree_sequence(c6)
    assert two_switch(g, inverse_step(step)) == c6


def test_two_switch_validation():
    c6 = cycle_graph(6)
    with pytest.raises(ValueError):
        two_switch(c6, SwitchStep(removed=((0, 1), (1, 2)), added=((0, 2), (1, 1))))
    with pytest.raises(ValueError):
        two_switch(c6, SwitchStep(removed=((0, 2), (3, 4)), added=((0, 4), (2, 3))))
    with pytest.raises(ValueError):
        two_switch(c6, SwitchStep(removed=((0, 1), (3, 4)), added=((0, 3), (1, 2))))


def test_two_switch_matches_edited_edge_list():
    # Seeded valid steps on sparse and dense family members: XOR-ing the four
    # edges into the rows gives the graph rebuilt from the edited edge list.
    rnd = random.Random(8)
    applied = 0
    for sizes in ([3, 3, 4], [2, 5, 5, 7], [1, 4, 6, 6, 9]):
        member = random_switch_walk(clique_union(sizes), steps=20, seed=len(sizes))
        for g in (member, complement(member)):
            for _ in range(40):
                (a, b), (c, d) = rnd.sample(g.edges(), 2)
                added = ((a, c), (b, d)) if rnd.random() < 0.5 else ((a, d), (b, c))
                if len({a, b, c, d}) != 4 or any(g.has_edge(*e) for e in added):
                    continue
                step = SwitchStep(removed=((a, b), (c, d)), added=added)
                edges = [e for e in g.edges() if e not in step.removed]
                switched = two_switch(g, step)
                assert switched == Graph(g.n, edges + list(added))
                assert degree_sequence(switched) == degree_sequence(g)
                g = switched
                applied += 1
    assert applied >= 60


def test_random_walk_is_seed_deterministic():
    g = clique_union([3, 3, 4])
    a = random_switch_walk(g, steps=200, seed=99)
    b = random_switch_walk(g, steps=200, seed=99)
    assert a == b
    assert degree_sequence(a) == degree_sequence(g)


def test_random_walk_replays_recorded_stream():
    # Pinned endpoints of the random.Random(seed) stream; a change here
    # changes every seeded `sample` output.
    walked = random_switch_walk(clique_union([3, 3, 4]), steps=200, seed=99)
    assert encode_graph6(walked) == "I`?PQCH`G"
    assert encode_graph6(random_switch_walk(petersen_graph(), steps=50, seed=7)) == "IaKDHXO`G"


def test_random_walk_moves_on_dense_graphs():
    # On a complete multipartite graph every proposal would hit an existing
    # edge; the walk runs on the sparse complement instead.
    g = complete_multipartite([5] * 20)
    for seed in range(5):
        walked = random_switch_walk(g, steps=50, seed=seed)
        assert degree_sequence(walked) == degree_sequence(g)
        assert is_complete_multipartite(walked) is None


def test_random_walk_rejects_negative_seed():
    with pytest.raises(ValueError):
        random_switch_walk(cycle_graph(6), steps=10, seed=-1)


def test_random_walk_identity_and_small_graphs():
    g = cycle_graph(6)
    assert random_switch_walk(g, steps=0, seed=1) == g
    single = complete_graph(2)
    assert random_switch_walk(single, steps=10, seed=1) == single


def test_random_walk_visits_other_class_member():
    c6 = cycle_graph(6)
    hits = sum(
        is_isomorphic(random_switch_walk(c6, steps=20, seed=s), clique_union([3, 3]))
        for s in range(30)
    )
    assert hits > 0


def test_four_copies_examples():
    g = four_copies(complete_graph(4))
    assert max_independent_set(g).size == 4
    assert max_independent_set(four_copies(complete_multipartite([3, 3]))).size == 12
    assert max_independent_set(four_copies(petersen_graph())).size == 16
    with pytest.raises(ValueError):
        four_copies(cycle_graph(4))


def test_four_copies_profile():
    g = four_copies(complete_multipartite([3, 3]))
    profile = clique_union_profile_from_degrees(degree_sequence(g))
    assert profile is not None
    assert profile.parts == (4,) * 6
