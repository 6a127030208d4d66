import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from kpartite import (
    CLIQUE,
    INDEPENDENT_SET,
    Graph,
    GraphTooLargeError,
    brute_force_alpha,
    clique_union,
    complement,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    max_clique,
    max_independent_set,
    petersen_graph,
    validate_certificate,
)

from .conftest import (
    all_graphs_up_to_iso,
    graphs_strategy,
    random_graph,
    random_graph_corpus,
)


def test_alpha_examples():
    assert max_independent_set(cycle_graph(6)).size == 3
    assert max_independent_set(clique_union([3, 3, 4])).size == 3
    assert max_independent_set(petersen_graph()).size == brute_force_alpha(
        petersen_graph()
    )


def test_omega_examples():
    assert max_clique(complete_multipartite([3, 3, 4])).size == 3
    assert max_clique(cycle_graph(5)).size == 2


def test_brute_force_examples():
    assert brute_force_alpha(empty_graph(5)) == 5
    assert brute_force_alpha(complete_graph(5)) == 1
    assert brute_force_alpha(cycle_graph(7)) == 3


def test_certificates_validate():
    for g in [cycle_graph(6), petersen_graph(), clique_union([2, 3])]:
        cert = max_independent_set(g)
        assert cert.kind == INDEPENDENT_SET
        assert validate_certificate(g, cert)
        cert = max_clique(g)
        assert cert.kind == CLIQUE
        assert validate_certificate(g, cert)


def test_validate_certificate_rejects_bad_sets():
    from kpartite import WitnessCertificate

    g = cycle_graph(4)
    assert not validate_certificate(g, WitnessCertificate(frozenset({0, 1}), INDEPENDENT_SET))
    assert not validate_certificate(g, WitnessCertificate(frozenset({0, 2}), CLIQUE))
    assert not validate_certificate(g, WitnessCertificate(frozenset({0, 9}), INDEPENDENT_SET))


def test_caps():
    with pytest.raises(GraphTooLargeError):
        max_independent_set(empty_graph(65))
    with pytest.raises(GraphTooLargeError):
        brute_force_alpha(empty_graph(21))
    assert max_independent_set(empty_graph(65), cap=70).size == 65


def test_max_clique_checks_cap_before_complement(monkeypatch):
    def no_complement(g):
        raise AssertionError("complement built before the cap check")

    monkeypatch.setattr("kpartite.exact.complement", no_complement)
    with pytest.raises(GraphTooLargeError):
        max_clique(empty_graph(65))


def test_solver_matches_brute_force_on_random_corpus():
    for g in random_graph_corpus(count=60, max_n=12, seed=11):
        assert max_independent_set(g).size == brute_force_alpha(g)


@given(graphs_strategy())
@settings(max_examples=60)
def test_alpha_omega_duality(g):
    assert max_independent_set(g).size == max_clique(complement(g)).size


def test_adding_edges_never_helps_alpha():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        n = int(rng.integers(2, 12))
        g = random_graph(n, 0.3, rng)
        alpha = max_independent_set(g).size
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(0, len(non_edges)))]
        g2 = Graph(n, g.edges() + [extra])
        assert max_independent_set(g2).size <= alpha


def test_deterministic_output():
    g = petersen_graph()
    first = max_independent_set(g)
    for _ in range(3):
        assert max_independent_set(g).vertices == first.vertices


def test_disconnected_graphs():
    g = clique_union([4, 4, 4, 4])
    assert max_independent_set(g).size == 4
    cert = max_independent_set(g)
    assert validate_certificate(g, cert)


def test_solver_certificates_match_recorded_digest():
    # Both solvers on every graph with up to 8 vertices and on seeded G(n, p)
    # graphs with 20-64 vertices, five of them disconnected; the digest pins
    # every certificate, tie-breaks included, so any change to one shows here.
    corpus = [g for n in range(9) for g in all_graphs_up_to_iso(n)]
    rng = np.random.Generator(np.random.PCG64(20))
    for n, p in (
        (20, 0.1), (24, 0.5), (30, 0.05), (36, 0.15), (40, 0.3),
        (48, 0.08), (56, 0.6), (64, 0.04), (64, 0.1), (64, 0.3),
    ):
        corpus.append(random_graph(n, p, rng))
    parts = [random_graph(20, 0.2, rng), random_graph(24, 0.4, rng), random_graph(10, 0.5, rng)]
    corpus.append(disjoint_union(parts))
    assert len(corpus) == 13599 + 11
    assert sum(len(connected_components(g)) > 1 for g in corpus[-11:]) == 5
    digest = hashlib.sha256()
    for g in corpus:
        alpha = max_independent_set(g).sorted_vertices()
        omega = max_clique(g).sorted_vertices()
        digest.update(f"{encode_graph6(g)} {alpha} {omega}\n".encode())
    assert digest.hexdigest() == (
        "6eed2b6e2ab844bc7b7ad42205edf9abeab49d884d4ecdac89ef26e46684ad6b"
    )
