"""Differential check against networkx, an oracle that shares no code with
the package: its connectivity test on every edge subset of order 1 to 5
(against the enumeration and ``Graph.is_connected``) and on the benchmark
gnp graphs, its sorted neighbour lists on those gnp graphs and on G and
mu(G) below, and its Mycielskian, Wiener index and Schultz index (which is
the degree distance) on every connected graph of order 2 to 5 and four
named graphs.
Each test lists every graph that disagrees.
"""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from mycielski.generators import (
    build_family,
    complete_bipartite,
    cycle,
    enumerate_connected,
    petersen,
    star,
)
from mycielski.graph import Graph, diameter
from mycielski.indices import dd_mycielskian_closed, degree_distance, first_zagreb, wiener
from mycielski.transform import mycielskian


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
