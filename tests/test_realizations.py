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
)
import kpartite.realizations
from kpartite.cli import main
from kpartite.isomorphism import (
    _rank_slots,
    _ranks_by_descending_value,
    labeling_is_canonical,
)
from kpartite.sequences import _erdos_gallai_sorted

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


def _sort_every_round_realize(degrees: DegreeSequence) -> tuple[int, ...]:
    """Havel-Hakimi as written before the degree buckets: every round sorts
    the live vertices again.  The oracle for the bucket version's rows."""
    remaining = list(degrees.sorted(descending=True))
    rows = [0] * degrees.n
    alive = [v for v, d in enumerate(remaining) if d > 0]
    while alive:
        order = sorted(alive, key=remaining.__getitem__, reverse=True)
        v = order[0]
        need = remaining[v]
        if need >= len(order):
            raise NonGraphicalError(f"{degrees!r} is not graphical")
        for u in order[1 : need + 1]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            remaining[u] -= 1
        remaining[v] = 0
        alive = [u for u in alive if remaining[u] > 0]
    return tuple(rows)


def _realize_outcome(realize, degrees: list[int]):
    """Rows of the realization, or the NonGraphicalError text."""
    target = DegreeSequence(degrees)
    try:
        realized = realize(target)
    except NonGraphicalError as error:
        return str(error)
    return realized if isinstance(realized, tuple) else realized.adjacency_masks()


def test_havel_hakimi_matches_sort_every_round_rule():
    draw = random.Random(20261019).random

    def clique_union_degrees(n: int) -> list[int]:
        sizes: list[int] = []
        while sum(sizes) < n:
            sizes.append(min(n - sum(sizes), 1 + int(draw() * 25)))
        return [a - 1 for a in sizes for _ in range(a)]

    def gnp_degrees(n: int, p: float) -> list[int]:
        degrees = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if draw() < p:
                    degrees[u] += 1
                    degrees[v] += 1
        return degrees

    def tied_degrees(n: int, values: int) -> list[int]:
        # A few degrees, each shared by many vertices: most rounds take part
        # of a tied group, so the rest of it meets the taken part one bucket
        # lower.
        pool = [1 + int(draw() * (n - 1)) for _ in range(values)]
        degrees = [pool[int(draw() * values)] for _ in range(n)]
        degrees[0] += sum(degrees) % 2 * (1 if degrees[0] < n - 1 else -1)
        return degrees

    graphical = [
        *(clique_union_degrees(n) for n in (10, 100, 700, 2000)),
        *(gnp_degrees(n, p) for n, p in ((40, 0.5), (300, 0.05), (300, 0.5))),
        gnp_degrees(1200, 0.01),
        *([n // 2] * n for n in (1000, 2000)),
        *([n - 2] * n for n in (1000, 2000)),
    ]
    tied = [tied_degrees(n, k) for n in (20, 200, 1000) for k in (2, 3, 5)]
    unit_moved = []
    while len(unit_moved) < 6:
        # One degree unit moved between two vertices keeps the sum even.
        n = 6 + int(draw() * 40)
        degrees = gnp_degrees(n, draw())
        i, j = int(draw() * n), int(draw() * n)
        if i != j and degrees[i] > 0 and degrees[j] < n - 1:
            degrees[i] -= 1
            degrees[j] += 1
            if not is_graphical(DegreeSequence(degrees)):
                unit_moved.append(degrees)
    non_graphical = [
        # Odd sums.
        [4] * 1000 + [3, 1, 1, 1, 1],
        clique_union_degrees(1500) + [1],
        [499] * 999,
        [999] * 1001,
        # A degree of at least n, and an even sum.
        [6, 2, 1, 1, 1, 1],
        [2000, 2] + [1] * 1998,
        # (k, k, 1, ..., 1) with k ones, k even: the first round takes the
        # other k and k - 1 ones, and the second, last round runs short.
        *([k, k] + [1] * k for k in (4, 10, 1000)),
        *unit_moved,
    ]

    def fails(degrees: list[int]) -> bool:
        expected = _realize_outcome(_sort_every_round_realize, degrees)
        assert _realize_outcome(havel_hakimi_realize, degrees) == expected
        assert isinstance(expected, str) != is_graphical(DegreeSequence(degrees))
        return isinstance(expected, str)

    assert not any(map(fails, graphical))
    assert all(map(fails, non_graphical))
    tied_failures = sum(map(fails, tied))
    assert 0 < tied_failures < len(tied)


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
    # Degree-0 vertices are appended, not searched: an all-zero sequence,
    # the empty one included, has exactly its one edgeless graph.
    for n in (0, 10):
        assert list(enumerate_realizations(DegreeSequence([0] * n))) == [Graph(n)]


def test_enumerate_two_regular_nine():
    # 2-regular graphs are disjoint unions of cycles of length >= 3:
    # the partitions 9, 3+6, 4+5, 3+3+3.
    graphs = list(enumerate_realizations(DegreeSequence([2] * 9)))
    assert len(graphs) == 4


def test_enumeration_caps_and_guards():
    with pytest.raises(GraphTooLargeError):
        enumerate_realizations(DegreeSequence([0] * 11))
    # The cap counts isolated vertices, although the search skips them.
    with pytest.raises(GraphTooLargeError):
        enumerate_realizations(DegreeSequence([3, 3, 3, 3] + [0] * 7))
    # Raised at the call, before the first graph is asked for.
    with pytest.raises(NonGraphicalError):
        enumerate_realizations(DegreeSequence([3, 0, 0, 0]))


def test_enumeration_with_isolated_vertices_matches_recorded_digest():
    # Every realization of every graphical sequence with a 0 and at most 8
    # vertices, in emission order, recorded when the search still placed and
    # tested each degree-0 vertex.  Such graphs are the graphs on n - 1
    # vertices plus an isolated one, which the per-n counts check on their own.
    digest = hashlib.sha256()
    counts = []
    for n in range(1, 9):
        count = 0
        for seq in combinations_with_replacement(range(n), n):
            ds = DegreeSequence(seq)
            if seq[0] == 0 and is_graphical(ds):
                for g in enumerate_realizations(ds):
                    digest.update(f"{encode_graph6(g)}\n".encode())
                    count += 1
        counts.append(count)
    assert counts == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert digest.hexdigest() == (
        "e0e569c25d0a7fdd1785f6841cadaf2e6db97e7b23213ba1066fb3bd61a3f5da"
    )


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


def test_enumeration_order_at_total_ten_matches_recorded_digest():
    # Every realization of the profiles with total exactly 10, which the
    # campaign runs, in emission order.
    digest = hashlib.sha256()
    count = 0
    for profile in iter_profiles(10):
        if profile.n == 10:
            for g in enumerate_realizations(profile.degree_sequence()):
                digest.update(f"{encode_graph6(g)}\n".encode())
                count += 1
    assert count == 1848
    assert digest.hexdigest() == (
        "3a7ed7c9e218cec2b5bd21bf1ac367a9596cb099bfc4c337846e90409bb82c73"
    )


def _feasible(targets, rows):
    """The feasibility test as it was when every child rebuilt its residuals:
    ``rows`` are the placed vertices of a search on the positive
    ``targets``."""
    n = len(targets)
    placed = len(rows)
    residual = [t - row.bit_count() for t, row in zip(targets, rows)]
    if max(residual) > n - placed:
        return False
    future_targets = targets[placed:]
    if sum(residual) > sum(min(t, placed) for t in future_targets):
        return False
    combined = sorted(residual + list(future_targets), reverse=True)
    return _erdos_gallai_sorted(tuple(combined))


def _column(mv, placed):
    """Adjacency of a vertex with row ``mv`` to ``placed``, first one high."""
    seg = 0
    for u in placed:
        seg = (seg << 1) | ((mv >> u) & 1)
    return seg


def _feasible_children(targets, ranks, rows):
    """The children of a prefix that pass the column-order filter (skipping,
    not ending, the rest of a size) and ``_feasible``, in order.  The filter
    compares column segments, first placed vertex in the high bit."""
    n = len(targets)
    r = len(rows)
    t = targets[r]
    eligible = [u for u in range(r) if rows[u].bit_count() < targets[u]]
    same_rank = ranks[r] == ranks[r - 1]
    prev_seg = _column(rows[r - 1], range(r - 1))
    for size in range(max(0, t - (n - r - 1)), min(t, len(eligible)) + 1):
        for chosen in combinations(eligible, size):
            col = sum(1 << u for u in chosen)
            seg = _column(col, range(r))
            if same_rank and (seg >> 1) < prev_seg:
                continue
            child = list(rows)
            for u in chosen:
                child[u] |= 1 << r
            child_rows = (*child, col)
            if _feasible(targets, child_rows):
                yield child_rows


def _test_each_child_rows(degrees: DegreeSequence):
    """Oracle: the orderly search as it was when each child was tested for
    canonicity before its subtree was entered, with the column-order filter
    skipping (not ending) the rest of a size.  Yields the emitted rows."""
    targets = degrees.sorted(descending=True)
    n = len(targets) - targets.count(0)
    isolated = (0,) * (len(targets) - n)
    if n == 0:
        yield isolated
        return
    targets = targets[:n]
    ranks = _ranks_by_descending_value(targets)

    def extend(rows):
        r = len(rows)
        if r == n:
            yield rows + isolated
            return
        for child_rows in _feasible_children(targets, ranks, rows):
            if labeling_is_canonical(child_rows, _rank_slots(ranks[: r + 1])):
                yield from extend(child_rows)

    yield from extend((0,))


def _graphical_sequences_up_to_seven():
    """Every graphical sequence with at most 7 vertices, degree-0 vertices
    included."""
    for n in range(8):
        for seq in combinations_with_replacement(range(max(n, 1)), n):
            ds = DegreeSequence(seq)
            if is_graphical(ds):
                yield ds


def test_enumeration_order_matches_test_each_child_oracle():
    # Deferring a prefix's canonicity test to its first admissible child, and
    # ending a size at the first column below the block's previous one, must
    # keep every graph and the emission order: every graphical sequence with
    # at most 7 vertices, degree-0 vertices included.
    sequences = 0
    for ds in _graphical_sequences_up_to_seven():
        ours = [g.adjacency_masks() for g in enumerate_realizations(ds)]
        assert ours == list(_test_each_child_rows(ds)), ds
        sequences += 1
    assert sequences == 1 + 1 + 2 + 4 + 11 + 31 + 102 + 342


def test_per_node_tests_admit_exactly_the_feasible_children(monkeypatch):
    # On every prefix the enumerator visits, the tests on one residual vector
    # per node admit exactly the children that rebuilding every residual
    # (_feasible) admits, in the same order.  The column-order filter ends a
    # size in the enumerator and skips a column in the reference; both keep
    # the same children because a size's columns come in decreasing order.
    inner = kpartite.realizations._children
    visited = 0

    def checked(rows, targets, supply):
        nonlocal visited
        visited += 1
        ours = list(inner(rows, targets, supply))
        ranks = _ranks_by_descending_value(targets)
        assert ours == list(_feasible_children(targets, ranks, rows)), (targets, rows)
        return iter(ours)

    monkeypatch.setattr(kpartite.realizations, "_children", checked)
    for ds in _graphical_sequences_up_to_seven():
        for _ in enumerate_realizations(ds):
            pass
    assert visited >= 1000, visited


def test_last_prefix_needs_no_canonicity_test(monkeypatch):
    # The (n-1)-prefix's one possible child is built directly, and neither it
    # nor the (n-2)-prefix is tested: each (n-1)-prefix reached gets from the
    # forced completion exactly the single child, or none, that _children
    # would give, and the (n-1)- and (n-2)-prefix of every emitted leaf pass
    # the test (a prefix of a minimal labeling is minimal), so the leaf test
    # alone decides.  n = 2 is included: there the root is the (n-1)-prefix.
    inner = kpartite.realizations._last_child
    children = kpartite.realizations._children
    last_prefixes = 0
    lengths = set()

    def checked(rows, targets):
        nonlocal last_prefixes
        ours = inner(rows, targets)
        supply = [sum(min(t, p) for t in targets[p:]) for p in range(len(targets) + 1)]
        expected = list(children(rows, targets, supply))
        assert ([ours] if ours else []) == expected, (targets, rows)
        last_prefixes += 1
        lengths.add(len(targets))
        return ours

    monkeypatch.setattr(kpartite.realizations, "_last_child", checked)
    leaves = 0
    for ds in _graphical_sequences_up_to_seven():
        targets = tuple(t for t in ds.sorted(descending=True) if t)
        n = len(targets)
        ranks = _ranks_by_descending_value(targets)
        for g in enumerate_realizations(ds):
            for r in range(max(n - 2, 2), n):
                prefix = tuple(row & ((1 << r) - 1) for row in g.adjacency_masks()[:r])
                assert labeling_is_canonical(prefix, _rank_slots(ranks[:r])), (ds, g.edges())
            leaves += 1
    assert 2 in lengths and 7 in lengths, lengths
    assert last_prefixes >= leaves >= 1000, (last_prefixes, leaves)


def test_one_slot_table_serves_every_prefix(monkeypatch):
    # The enumerator tests every prefix against the rank slots of the whole
    # ordering; the slots of the prefix's own ranks, as the enumerator once
    # built them per prefix length, give the same verdict on every prefix
    # it visits (each child it enters; the one-vertex root is canonical).
    inner = kpartite.realizations._children
    visited = 0

    def checked(rows, targets, supply):
        nonlocal visited
        ours = list(inner(rows, targets, supply))
        ranks = _ranks_by_descending_value(targets)
        whole = _rank_slots(ranks)
        for child in ours:
            own = _rank_slots(ranks[: len(child)])
            assert labeling_is_canonical(child, whole) == labeling_is_canonical(
                child, own
            ), (targets, child)
            visited += 1
        return iter(ours)

    monkeypatch.setattr(kpartite.realizations, "_children", checked)
    for ds in _graphical_sequences_up_to_seven():
        for _ in enumerate_realizations(ds):
            pass
    assert visited >= 1000, visited


def test_canonicity_tested_only_on_prefixes_with_an_admissible_child(monkeypatch):
    # A prefix whose every child fails the column-order filter or the
    # feasibility tests is never tested, nor are the (n-1)- and (n-2)-prefix,
    # below which are only forced, tested leaves; at (4,6) the search that
    # tested each child made 9913 calls, testing the (n-1)-prefixes too made
    # 5909, and testing the (n-2)-prefixes made 4903.  The accepted counts
    # pin the verdicts of the twin-pruned search.
    test = kpartite.realizations.labeling_is_canonical

    def counted(*args):
        nonlocal calls, accepted
        calls += 1
        verdict = test(*args)
        accepted += verdict
        return verdict

    monkeypatch.setattr(kpartite.realizations, "labeling_is_canonical", counted)
    for degrees, realizations, expected in (
        ([3] * 4 + [5] * 6, 928, (2731, 1483)),
        ([4] * 10, 60, (1152, 403)),
    ):
        calls = accepted = 0
        graphs = list(enumerate_realizations(DegreeSequence(degrees)))
        assert len(graphs) == realizations
        assert (calls, accepted) == expected


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


def test_random_walk_rejects_negative_steps(tmp_path, capsys):
    with pytest.raises(ValueError, match="steps"):
        random_switch_walk(cycle_graph(6), steps=-3, seed=1)
    path = tmp_path / "c6.g6"
    path.write_text(encode_graph6(cycle_graph(6)) + "\n")
    code = main(["sample", "--input", str(path), "--steps", "-3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "steps" in captured.err


def _rows_walk(g: Graph, steps: int, seed: int) -> Graph:
    """The 2-switch walk as written before the edge-key set: each edge slot
    is a sorted tuple, and duplicates are found in the n-bit rows, which
    every accepted step updates.  The oracle for the set-backed walk."""
    if 4 * g.m > g.n * (g.n - 1):
        return complement(_rows_walk(complement(g), steps, seed))
    draw = random.Random(seed).random
    edges = g.edges()
    rows = list(g.adjacency_masks())
    m = len(edges)
    for _ in range(steps):
        if m < 2:
            break
        i = int(draw() * m)
        j = int(draw() * (m - 1))
        if j >= i:
            j += 1
        a, b = edges[i]
        c, d = edges[j]
        if len({a, b, c, d}) != 4:
            continue
        if draw() < 0.5:
            new1, new2 = (a, c), (b, d)
        else:
            new1, new2 = (a, d), (b, c)
        if (rows[new1[0]] >> new1[1]) & 1 or (rows[new2[0]] >> new2[1]) & 1:
            continue
        for u, v in ((a, b), (c, d), new1, new2):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        edges[i] = tuple(sorted(new1))
        edges[j] = tuple(sorted(new2))
    return Graph._from_rows(tuple(rows))


def _walk_cases() -> list[tuple[Graph, int, int]]:
    """Seeded ``(graph, steps, seed)`` inputs: G(n, p) for n = 2..60 with p
    from 0.05 to 0.95, so that both the direct and the complement walk run;
    a star and a near-complete graph, where almost every proposal is
    rejected; 0, 1 and 2 edges; a perfect matching; half and just over half
    of all pairs; and relabelled clique unions with their complements, at
    500 vertices, with one sparse member at 8000."""
    rng = random.Random(20261020)
    draw = rng.random

    def member(n: int) -> Graph:
        sizes: list[int] = []
        while sum(sizes) < n:
            sizes.append(min(n - sum(sizes), rng.randint(1, 8)))
        label = list(range(n))
        rng.shuffle(label)
        return Graph(n, [(label[u], label[v]) for u, v in clique_union(sizes).edges()])

    graphs = []
    for n in range(2, 61):
        p = 0.05 + 0.9 * (n - 2) / 58
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if draw() < p]))
    near_complete = [e for e in combinations(range(40), 2) if e not in ((0, 1), (2, 3))]
    # A graph with exactly half of all pairs as edges is walked directly;
    # with one edge more, on its complement.
    pairs = list(combinations(range(12), 2))
    rng.shuffle(pairs)
    graphs += [
        Graph(30, [(0, v) for v in range(1, 30)]),
        Graph(40, near_complete),
        Graph(9),
        Graph(9, [(2, 7)]),
        Graph(9, [(2, 7), (3, 5)]),
        Graph(40, [(v, v + 1) for v in range(0, 40, 2)]),
        Graph(12, pairs[:33]),
        Graph(12, pairs[:34]),
    ]
    sparse = member(500)
    graphs += [sparse, complement(sparse), member(8000)]
    cases = [(g, 0, 5) for g in graphs[:3]]
    cases += [(g, rng.randint(1, 5000), rng.randrange(2**31)) for g in graphs]
    return cases + [(graphs[-1], 5000, 17)]


def test_random_walk_matches_rows_walk():
    digest = hashlib.sha256()
    moved = 0
    for g, steps, seed in _walk_cases():
        walked = random_switch_walk(g, steps, seed)
        assert walked.adjacency_masks() == _rows_walk(g, steps, seed).adjacency_masks()
        assert degree_sequence(walked) == degree_sequence(g)
        moved += walked != g
        digest.update(f"{encode_graph6(walked)}\n".encode())
    assert moved >= 60
    # Recorded with the rows-based walk: the seeded endpoints are unchanged.
    assert digest.hexdigest() == (
        "d4afd0c7d8ae33cd2034ddea4ad466822c0fe92e17b2aa321178713421e28db0"
    )


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
