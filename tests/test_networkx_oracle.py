"""Differential check against networkx, an oracle that shares no code with
the package: its connectivity test on every edge subset of order 1 to 5
(against the enumeration and ``Graph.is_connected``) and on the benchmark
gnp graphs, its sorted neighbour lists on those gnp graphs and on G and
mu(G) below, and its Mycielskian, Wiener index and Schultz index (which is
the degree distance) on every connected graph of order 2 to 5 and four
named graphs.
Each test lists every graph that disagrees.

The atlas tests take one graph per isomorphism class from networkx's graph
atlas, weighted by its orbit n!/|Aut| (the labeled graphs isomorphic to
it), since the paper's claims do not depend on labels. The orbit sums
re-derive ``CONNECTED_COUNTS`` and the 1,866,256 connected graphs of order
7. For orders 2 to 6 they are the classes of ``connected_classes``, with the
same orbit sizes. At order 6 the weighted counts of ``verify_corpus`` rebuild the pinned
``verify --enumerate 6`` report from a corpus that does not come from
``enumerate_connected``. At order 7 every claim is checked on each class
against networkx's Mycielskian, BFS and degrees, and the weighted counts
against the hypotheses as networkx sees them.
"""

import json
from itertools import combinations
from math import factorial, sqrt
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from mycielski.generators import (
    build_family,
    complete_bipartite,
    connected_classes,
    cycle,
    enumerate_connected,
    petersen,
    star,
)
from mycielski.graph import Graph, all_pairs_distances, diameter
from mycielski.indices import (
    dd_mycielskian_closed,
    degree_distance,
    distance2_degree_sum,
    first_zagreb,
    randic_bounds,
    wiener,
)
from mycielski.transform import mu_degrees, mu_distance_matrix, mycielskian
from mycielski.verify import BOUND_TOL, CLAIM_IDS, verify_corpus

from conftest import CONNECTED_COUNTS

PINNED_N6 = Path(__file__).parent / "expected" / "verify_enumerate_6.json"


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def nx_adjacency(h):
    return tuple(tuple(sorted(h.adj[v])) for v in range(len(h)))


@pytest.fixture(scope="module")
def corpus():
    """(G, mu(G), G in networkx, networkx's Mycielskian of G) for every graph."""
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    graphs += [cycle(5), petersen(), complete_bipartite(2, 3), star(6)]
    rows = []
    for g in graphs:
        h = nx_graph(g)
        rows.append((g, mycielskian(g).mu, h, nx.mycielskian(h)))
    return rows


def test_corpus_size(corpus):
    # connected labelled graphs of order 2..5 (OEIS A001187), then the named four
    assert len(corpus) == 1 + 4 + 38 + 728 + 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_is_every_connected_subset_in_mask_order(n):
    all_pairs = list(combinations(range(n), 2))
    expected = []
    for mask in range(1 << len(all_pairs)):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(p for k, p in enumerate(all_pairs) if mask >> k & 1)
        if nx.is_connected(h):
            expected.append(tuple(sorted(h.edges)))
    assert [g.edges for g in enumerate_connected(n)] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_connected_on_every_edge_subset(n):
    # isolated vertices included: 2^10 subsets at n = 5
    all_pairs = list(combinations(range(n), 2))
    graphs = [
        Graph(n, [p for k, p in enumerate(all_pairs) if mask >> k & 1])
        for mask in range(1 << len(all_pairs))
    ]
    wrong = [g for g in graphs if g.is_connected() != nx.is_connected(nx_graph(g))]
    assert (len(graphs), wrong) == (1 << len(all_pairs), [])


def test_is_connected_on_benchmark_gnp_graphs():
    a, b = build_family("gnp:300,0.3,7"), build_family("gnp:1000,0.02,7")
    shifted = [(u + a.n, v + a.n) for u, v in b.edges]
    union = Graph(a.n + b.n, np.array(a.edges + tuple(shifted)))
    assert union.m == a.m + b.m
    verdicts = [(g.is_connected(), nx.is_connected(nx_graph(g))) for g in (a, b, union)]
    assert verdicts == [(True, True), (True, True), (False, False)]
    assert [g.adjacency == nx_adjacency(nx_graph(g)) for g in (a, b, union)] == [True] * 3


def test_adjacency(corpus):
    wrong = [
        g
        for g, mu, h, nx_mu in corpus
        if (g.adjacency, mu.adjacency) != (nx_adjacency(h), nx_adjacency(nx_mu))
    ]
    assert wrong == []


def test_mycielskian_edges(corpus):
    wrong = [
        g
        for g, mu, _, nx_mu in corpus
        if tuple(sorted((min(e), max(e)) for e in nx_mu.edges)) != mu.edges
    ]
    assert wrong == []


def test_wiener(corpus):
    wrong = [g for g, _, h, _ in corpus if nx.wiener_index(h) != wiener(g)]
    assert wrong == []


def test_degree_distance_of_mu(corpus):
    wrong = [g for _, mu, _, nx_mu in corpus if nx.schultz_index(nx_mu) != degree_distance(mu)]
    assert wrong == []


def test_closed_form_on_diameter_two(corpus):
    two = [(g, nx_mu) for g, _, _, nx_mu in corpus if diameter(g) == 2]
    wrong = [
        g
        for g, nx_mu in two
        if dd_mycielskian_closed(g.n, g.m, first_zagreb(g), degree_distance(g))
        != nx.schultz_index(nx_mu)
    ]
    # 395 of the enumerated graphs, then C5, Petersen, K2,3 and the star
    assert (len(two), wrong) == (399, [])


@pytest.fixture(scope="module")
def atlas_classes():
    """(networkx graph, orbit size) for every connected atlas graph of order 2 to 7."""
    classes = []
    for h in nx.graph_atlas_g():
        if 2 <= len(h) <= 7 and nx.is_connected(h):
            # a graph and its complement have the same automorphisms, and
            # vf2pp finds those of the sparser one faster
            sparse = h if 4 * h.number_of_edges() <= len(h) * (len(h) - 1) else nx.complement(h)
            automorphisms = sum(1 for _ in nx.vf2pp_all_isomorphisms(sparse, sparse))
            classes.append((h, factorial(len(h)) // automorphisms))
    return classes


def test_atlas_orbit_sums_are_the_connected_counts(atlas_classes):
    sums = dict.fromkeys([*CONNECTED_COUNTS, 7], 0)
    for h, orbit in atlas_classes:
        sums[len(h)] += orbit
    # order 7: OEIS A001187, beyond the enumeration cap
    assert (len(atlas_classes), sums) == (142 + 853, {**CONNECTED_COUNTS, 7: 1_866_256})


def test_connected_classes_are_the_atlas_classes(atlas_classes):
    found, wrong = {}, []
    for n in range(2, 7):
        atlas = [(h, orbit) for h, orbit in atlas_classes if len(h) == n]
        classes = connected_classes(n)
        found[n] = len(classes)
        assert sorted(len(members) for _, members in classes) == sorted(o for _, o in atlas)
        for g, members in classes:
            h = nx_graph(g)
            if sum(nx.is_isomorphic(h, a) for a, _ in atlas if a.size() == g.m) != 1:
                wrong.append(g)
            # every member is one labeling of the class, up to order 5
            if n <= 5 and not all(nx.is_isomorphic(h, nx_graph(x)) for x in members):
                wrong.append(g)
    assert (found, wrong) == ({2: 1, 3: 2, 4: 6, 5: 21, 6: 112}, [])


def test_atlas_classes_rebuild_the_pinned_n6_report(atlas_classes):
    counts = {claim: [0, 0] for claim in CLAIM_IDS}
    failed = []
    for h, orbit in atlas_classes:
        if len(h) != 6:
            continue
        g = Graph(6, h.edges())
        for outcome in verify_corpus(CLAIM_IDS, [g]):
            if not outcome.passed:
                failed.append((g, outcome.claim))
            counts[outcome.claim][0] += orbit * outcome.checked
            counts[outcome.claim][1] += orbit * outcome.skipped
    pinned = {o["claim"]: [o["checked"], o["skipped"]] for o in json.loads(PINNED_N6.read_text())}
    assert (failed, counts) == ([], pinned)


def nx_randic(h):
    degree = dict(h.degree)
    return sum(1 / sqrt(degree[u] * degree[v]) for u, v in h.edges())


def test_atlas_order_7_against_networkx(atlas_classes):
    classes = [(h, orbit) for h, orbit in atlas_classes if len(h) == 7]
    wrong = {claim: [] for claim in CLAIM_IDS}
    total = diameter_two = regular = 0
    for h, orbit in classes:
        g, nx_mu = Graph(7, h.edges()), nx.mycielskian(h)
        total += orbit
        mu_degree = [d for _, d in sorted(nx_mu.degree)]
        if list(mu_degrees(g)) != mu_degree:
            wrong["obs1"].append(g)
        d_mu = np.zeros((15, 15), dtype=np.int64)
        for u, row in nx.all_pairs_shortest_path_length(nx_mu):
            d_mu[u, list(row)] = list(row.values())
        if not np.array_equal(mu_distance_matrix(all_pairs_distances(g)), d_mu):
            wrong["obs2"].append(g)
        if nx.diameter(h) == 2:
            diameter_two += orbit
            # at diameter 2 the pairs at distance 2 are the non-edges
            pair_sum = sum(h.degree(u) + h.degree(v) for u, v in nx.complement(h).edges())
            if not pair_sum == distance2_degree_sum(g) == 12 * g.m - first_zagreb(g):
                wrong["lemma3"].append(g)
            # DD(mu): each pair's distance times its degree sum, row by row
            dd = dd_mycielskian_closed(7, g.m, first_zagreb(g), degree_distance(g))
            if dd != sum(mu_degree[u] * int(d_mu[u].sum()) for u in range(15)):
                wrong["thm_dd"].append(g)
        bounds, r_mu = randic_bounds(g, nx_randic(h)), nx_randic(nx_mu)
        if not bounds.lower - BOUND_TOL <= r_mu <= bounds.upper + BOUND_TOL:
            wrong["randic_bounds"].append(g)
        if nx.is_regular(h):
            regular += orbit
            if max(abs(r_mu - bounds.lower), abs(r_mu - bounds.upper)) > BOUND_TOL:
                wrong["randic_equality"].append(g)
    assert wrong == {claim: [] for claim in CLAIM_IDS}

    # obs1 and obs2 count the vertices and matrix entries of mu, and the
    # Randić claims two comparisons per graph
    expected = {
        "obs1": [15 * total, 0],
        "obs2": [15 * 15 * total, 0],
        "lemma3": [diameter_two, total - diameter_two],
        "thm_dd": [diameter_two, total - diameter_two],
        "randic_bounds": [2 * total, 0],
        "randic_equality": [2 * regular, total - regular],
    }
    counts = {claim: [0, 0] for claim in CLAIM_IDS}
    failed = []
    for h, orbit in classes:
        for outcome in verify_corpus(CLAIM_IDS, [Graph(7, h.edges())]):
            failed += outcome.failures
            counts[outcome.claim][0] += orbit * outcome.checked
            counts[outcome.claim][1] += orbit * outcome.skipped
    assert (failed, counts) == ([], expected)
