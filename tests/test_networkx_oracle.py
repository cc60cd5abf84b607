"""Differential check against networkx, an oracle that shares no code with
the package: its Mycielskian, Wiener index and Schultz index (which is the
degree distance) on every connected graph of order 2 to 5 and four named
graphs. Each test lists every graph that disagrees.
"""

import networkx as nx
import pytest

from mycielski.generators import complete_bipartite, cycle, enumerate_connected, petersen, star
from mycielski.graph import diameter
from mycielski.indices import dd_mycielskian_closed, degree_distance, first_zagreb, wiener
from mycielski.transform import mycielskian


@pytest.fixture(scope="module")
def corpus():
    """(G, mu(G), G in networkx, networkx's Mycielskian of G) for every graph."""
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    graphs += [cycle(5), petersen(), complete_bipartite(2, 3), star(6)]
    rows = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        rows.append((g, mycielskian(g).mu, h, nx.mycielskian(h)))
    return rows


def test_corpus_size(corpus):
    # connected labelled graphs of order 2..5 (OEIS A001187), then the named four
    assert len(corpus) == 1 + 4 + 38 + 728 + 4


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
