import random
import tracemalloc
from itertools import combinations

from kpartite import (
    Graph,
    OpCounter,
    PartitionProfile,
    clique_union,
    clique_union_profile_from_degrees,
    complement,
    complete_multipartite,
    connected_components,
    cycle_graph,
    degree_sequence,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_clique_union,
    is_complete_multipartite,
    multipartite_profile_from_degrees,
    path_graph,
    random_switch_walk,
    strip_clique_components,
)
from kpartite.recognition import clique_classes


def brute_force_is_multipartite(g):
    """Definitional check: the parts must be the components of the complement,
    with every cross-part pair adjacent and every intra-part pair not."""
    parts = connected_components(complement(g))
    for part in parts:
        for u, v in combinations(sorted(part), 2):
            if g.has_edge(u, v):
                return None
    for i, p1 in enumerate(parts):
        for p2 in parts[i + 1 :]:
            for u in p1:
                for v in p2:
                    if not g.has_edge(u, v):
                        return None
    return tuple(sorted(len(p) for p in parts))


def brute_force_clique_components(g):
    return [
        comp
        for comp in connected_components(g)
        if all(g.has_edge(u, v) for u, v in combinations(sorted(comp), 2))
    ]


def brute_force_is_clique_union(g):
    comps = connected_components(g)
    if len(brute_force_clique_components(g)) != len(comps):
        return None
    return tuple(sorted(len(c) for c in comps))


def test_examples():
    assert is_complete_multipartite(cycle_graph(4)).parts == (2, 2)
    assert is_complete_multipartite(path_graph(4)) is None
    assert is_complete_multipartite(complete_multipartite([3, 3, 4])).parts == (3, 3, 4)
    assert is_clique_union(clique_union([3, 3, 4])).parts == (3, 3, 4)
    assert is_clique_union(cycle_graph(6)) is None
    assert is_clique_union(empty_graph(3)).parts == (1, 1, 1)


def test_empty_graph_gives_empty_profiles():
    g = empty_graph(0)
    assert is_complete_multipartite(g).parts == ()
    assert is_clique_union(g).parts == ()


def test_exhaustive_agreement_small(small_graph_corpus, family_neighbour_corpus):
    """Every graph up to 6 vertices, plus members of both families with up to
    300 vertices, their 2-switch neighbours and complements."""
    for g in small_graph_corpus + family_neighbour_corpus:
        expected_mp = brute_force_is_multipartite(g)
        got_mp = is_complete_multipartite(g)
        assert (got_mp.parts if got_mp else None) == expected_mp

        expected_cu = brute_force_is_clique_union(g)
        got_cu = is_clique_union(g)
        assert (got_cu.parts if got_cu else None) == expected_cu

        comps = connected_components(g)
        cliques = brute_force_clique_components(g)
        profile = PartitionProfile(tuple(len(c) for c in comps))
        remainder, reduced = strip_clique_components(g, profile)
        kept = sorted(set(range(g.n)).difference(*cliques))
        assert remainder == induced_subgraph(g, kept)
        assert reduced.parts == tuple(sorted(len(c) for c in comps if c not in cliques))


def test_exhaustive_duality_small(small_graph_corpus, family_neighbour_corpus):
    for g in small_graph_corpus + family_neighbour_corpus:
        assert (is_complete_multipartite(g) is not None) == (
            is_clique_union(complement(g)) is not None
        )


def test_degree_conditions_match_realizations(small_graph_corpus):
    """A degree sequence admits a clique-union profile iff some graph with
    that degree sequence is a clique union (and dually), checked across every
    sequence realized by a small graph."""
    clique_union_sequences = set()
    multipartite_sequences = set()
    all_sequences = set()
    for g in small_graph_corpus:
        ds = degree_sequence(g)
        all_sequences.add(ds)
        if is_clique_union(g) is not None:
            clique_union_sequences.add(ds)
        if is_complete_multipartite(g) is not None:
            multipartite_sequences.add(ds)
    for ds in all_sequences:
        assert (clique_union_profile_from_degrees(ds) is not None) == (
            ds in clique_union_sequences
        )
        assert (multipartite_profile_from_degrees(ds) is not None) == (
            ds in multipartite_sequences
        )


def test_probe_counts_stay_linear():
    n = 600
    cu = clique_union([3] * (n // 3))
    counter = OpCounter()
    assert is_clique_union(cu, counter=counter) is not None
    assert counter.count <= 4 * (cu.n + cu.m)

    mp = complete_multipartite([2, n - 2])
    counter = OpCounter()
    assert is_complete_multipartite(mp, counter=counter) is not None
    assert counter.count <= 4 * (mp.n + mp.m)


def test_is_clique_union_stops_at_the_first_outsider():
    # One 2-switch joins the first two of 50 disjoint K4: edges (0, 1) and
    # (4, 5) become (0, 4) and (1, 5).  Old vertex 2 keeps the closed
    # neighbourhood {0, 1, 2, 3}, while its neighbour 0 now has
    # {0, 2, 3, 4}.  Relabelled at random with old 0 and 2 moved to labels 0
    # and 1, the first vertex with a lower neighbour lies in no clique
    # component, and the scan stops there.
    edges = set(clique_union([4] * 50).edges()) - {(0, 1), (4, 5)}
    g = Graph(200, sorted(edges | {(0, 4), (1, 5)}))
    rest = [1, *range(3, 200)]
    random.Random(16).shuffle(rest)
    label = {old: new for new, old in enumerate([0, 2, *rest])}
    h = Graph(200, [(label[u], label[v]) for u, v in g.edges()])
    counter = OpCounter()
    assert is_clique_union(h, counter=counter) is None
    assert counter.count == 2
    assert brute_force_is_clique_union(h) is None
    # The full pass that the witness strip uses still counts every vertex.
    counter = OpCounter()
    assert sum(q for _, q in clique_classes(h.adjacency_masks(), h.degrees(), counter)) < 200
    assert counter.count == 200


def test_from_degrees_touch_only_multiplicities():
    ds = degree_sequence(clique_union([3] * 50 + [7] * 20))
    counter = OpCounter()
    clique_union_profile_from_degrees(ds, counter=counter)
    assert counter.count == len(ds.multiplicities)


def test_clique_classes_are_lowest_member_and_size():
    g = disjoint_union([path_graph(3), clique_union([2, 1, 3])])
    assert clique_classes(g.adjacency_masks(), g.degrees()) == [(3, 2), (5, 1), (6, 3)]


def _closed_mask_classes(rows):
    """``clique_classes`` as written before the degree filter: every vertex
    builds its closed mask (0 when isolated) and compares it with the mask
    of the lowest member, and the size test counts the mask's bits.  The
    oracle for the filtered rule."""

    def closed(v):
        return rows[v] and rows[v] | 1 << v

    held = [0] * len(rows)
    for v in range(len(rows)):
        mask = closed(v)
        low = (mask & -mask).bit_length() - 1 if mask else v
        if low == v or closed(low) == mask:
            held[low] += 1
    return [(v, h) for v, h in enumerate(held) if h and h == (closed(v).bit_count() or 1)]


def _filtered_classes(rows, degrees, mutant=None):
    """The degree-filtered rule of ``clique_classes`` written out, with one
    deliberate fault when ``mutant`` names it: ``"low >= v"`` (isolated
    vertices lose their own count), ``"open masks"`` (compares rows instead
    of closed neighbourhoods) or ``"no + 1"`` (size test against the degree)."""
    held = [0] * len(rows)
    for v, row in enumerate(rows):
        low = (row & -row).bit_length() - 1
        if (low >= v) if mutant == "low >= v" else not 0 <= low < v:
            held[v] += 1
        elif degrees[low] == degrees[v]:
            if mutant == "open masks":
                same = rows[low] == row
            else:
                same = rows[low] | 1 << low == row | 1 << v
            if same:
                held[low] += 1
    plus = 0 if mutant == "no + 1" else 1
    return [(v, h) for v, h in enumerate(held) if h and h == degrees[v] + plus]


def _clique_class_cases():
    """Relabelled clique unions, sparse members on high labels (2-switched
    and with a low isolated block), cycles, K_{a,a}, perfect matchings,
    graphs whose adjacent vertices share a degree but not a closed
    neighbourhood (a path, a prism), the diamond (its middle pair shares a
    closed neighbourhood that is no clique), isolated vertices alone and
    mixed in, and the complements of the unions."""
    rng = random.Random(151)
    graphs = [empty_graph(0), empty_graph(1), empty_graph(7)]
    for n in (5, 40, 300):
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(n - sum(sizes), rng.randint(1, 9)))
        label = list(range(n))
        rng.shuffle(label)
        member = Graph(n, [(label[u], label[v]) for u, v in clique_union(sizes).edges()])
        high = Graph(n + 2000, [(u + 2000, v + 2000) for u, v in member.edges()])
        graphs += [member, complement(member), high, random_switch_walk(high, n, n)]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [complete_multipartite([a, a]) for a in range(1, 7)]
    graphs += [clique_union([2] * a) for a in range(1, 6)]
    graphs += [
        Graph(6, [(0, 3), (4, 1), (5, 2)]),
        path_graph(6),
        Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
        Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        disjoint_union([empty_graph(3), clique_union([3, 1, 2]), cycle_graph(5), empty_graph(2)]),
    ]
    return graphs


def test_clique_classes_match_closed_mask_rule(small_graph_corpus, family_neighbour_corpus):
    cases = _clique_class_cases() + small_graph_corpus + family_neighbour_corpus
    for g in cases:
        rows, degrees = g.adjacency_masks(), g.degrees()
        expected = _closed_mask_classes(rows)
        assert clique_classes(rows, degrees) == expected
        assert _filtered_classes(rows, degrees) == expected
    # Each deliberate fault in the written-out rule gives another answer, or
    # fails, on the hand-picked cases alone.
    for mutant in ("low >= v", "open masks", "no + 1"):
        killed = False
        for g in _clique_class_cases():
            rows, degrees = g.adjacency_masks(), g.degrees()
            try:
                killed = _filtered_classes(rows, degrees, mutant) != _closed_mask_classes(rows)
            except ValueError:  # a negative shift count
                killed = True
            if killed:
                break
        assert killed, mutant


def test_recognition_keeps_one_mask_at_a_time():
    # An edgeless graph: its 20000 closed masks 1 << v take about 27 MB
    # together, so keeping one at a time stays under 4 MB.  The multipartite
    # rule builds no mask and keeps one count per vertex.
    g = empty_graph(20000)
    tracemalloc.start()
    try:
        assert is_clique_union(g).parts == (1,) * 20000
        assert is_complete_multipartite(g).parts == (20000,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
