from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from mycielski.errors import InvalidParameterError, TooSmallError
from mycielski.generators import complete, cycle, path, petersen, star
from mycielski.graph import Graph, all_pairs_distances
from mycielski.indices import index_report
from mycielski.transform import mu_degrees, mu_distance_matrix, mycielskian

from conftest import connected_graphs


def case_table(n, dg, u, v):
    """Observation 2 one vertex pair at a time, as the paper states it."""
    root = 2 * n
    if u == v:
        return 0
    if u > v:
        u, v = v, u
    if v == root:
        return 1 if u >= n else 2
    if u >= n:  # both shadows, distinct
        return 2
    if v < n:  # both originals
        return min(int(dg[u, v]), 4)
    j = v - n  # original u, shadow of j
    if u == j:
        return 2
    return min(int(dg[u, j]), 3)


def hand_built_mu(g):
    """mu(G) built pair by pair from the definition, isolated vertices allowed."""
    n = g.n
    pairs = list(g.edges)
    pairs += [(u, n + v) for u, v in g.edges] + [(v, n + u) for u, v in g.edges]
    pairs += [(2 * n, n + j) for j in range(n)]
    assert len(pairs) == 3 * g.m + n
    return Graph(2 * n + 1, pairs)


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(TooSmallError):
            mycielskian(Graph(1))
        with pytest.raises(TooSmallError):
            mycielskian(Graph(3))  # edgeless
        with pytest.raises(TooSmallError, match="vertex 2 is isolated"):
            mycielskian(Graph(3, [(0, 1)]))  # mu would leave vertex 2 alone

    def test_k2_gives_a_five_cycle(self):
        mu = mycielskian(complete(2)).mu
        assert (mu.n, mu.m) == (5, 5)
        assert set(mu.degrees) == {2}
        assert index_report(mu).diameter == 2

    def test_vertex_and_edge_counts(self):
        assert (mycielskian(cycle(4)).mu.n, mycielskian(cycle(4)).mu.m) == (9, 16)
        grotzsch = mycielskian(cycle(5)).mu
        assert (grotzsch.n, grotzsch.m) == (11, 20)

    def test_edge_set_is_exactly_the_definition(self):
        g = star(3)
        layout = mycielskian(g)
        n = g.n
        expected = set(g.edges)
        expected |= {tuple(sorted((u, n + v))) for u, v in g.edges}
        expected |= {tuple(sorted((v, n + u))) for u, v in g.edges}
        expected |= {(n + j, 2 * n) for j in range(n)}
        assert set(layout.mu.edges) == expected

    @given(connected_graphs())
    @settings(max_examples=50)
    def test_layout_invariants(self, g):
        layout = mycielskian(g)
        mu, n = layout.mu, g.n
        assert mu.n == 2 * n + 1
        assert mu.m == 3 * g.m + n
        # shadows form an independent set
        assert all(
            n + j not in mu.adjacency[n + i] for i in range(n) for j in range(i + 1, n)
        )
        assert mu.adjacency[2 * n] == tuple(range(n, 2 * n))
        assert [f.name for f in fields(layout)] == ["mu"]  # the base is g itself


class TestDegrees:
    def test_root_degree_is_n(self):
        g = cycle(4)
        assert mu_degrees(g)[2 * g.n] == 4

    def test_shadow_degree(self):
        g = cycle(4)
        assert all(mu_degrees(g)[g.n + i] == 3 for i in range(4))

    def test_original_degree_doubles(self):
        assert mu_degrees(star(4))[0] == 8

    @given(connected_graphs())
    @settings(max_examples=50)
    def test_formula_matches_adjacency_count(self, g):
        layout = mycielskian(g)
        assert mu_degrees(g) == layout.mu.degrees
        assert sum(layout.mu.degrees) == 6 * g.m + 2 * g.n

    @pytest.mark.parametrize(
        "g,expected",
        [
            (Graph(3, [(0, 1)]), (2, 2, 0, 2, 2, 1, 3)),
            (Graph(4), (0, 0, 0, 0, 1, 1, 1, 1, 4)),
        ],
        ids=["isolated-vertex", "edgeless"],
    )
    def test_formula_holds_with_isolated_vertices(self, g, expected):
        # mycielskian refuses these graphs, so mu is built here by hand
        assert hand_built_mu(g).degrees == expected
        assert mu_degrees(g) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formula_holds_for_every_graph(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert mu_degrees(g) == hand_built_mu(g).degrees


class TestDistances:
    def test_case_table_on_p5(self):
        g = path(5)
        d = mu_distance_matrix(all_pairs_distances(g))
        n = g.n
        root = 2 * n
        assert d[root, root] == 0
        assert d[root, n + 2] == 1
        assert d[root, 2] == 2
        assert d[n, n + 4] == 2
        assert d[0, 1] == 1  # originals at base distance <= 3
        assert d[0, 3] == 3
        assert d[0, 4] == 4  # base distance 4 capped
        assert d[2, n + 2] == 2  # original to its own shadow
        assert d[0, n + 1] == 1  # original to near shadow keeps base distance
        assert d[0, n + 2] == 2
        assert d[0, n + 3] == 3  # base distance >= 3 becomes 3

    def test_long_path_cap(self):
        g = path(6)
        assert mu_distance_matrix(all_pairs_distances(g))[0, 5] == 4

    def test_malformed_matrix(self):
        with pytest.raises(InvalidParameterError, match="not square"):
            mu_distance_matrix(all_pairs_distances(path(4))[:3])
        with pytest.raises(InvalidParameterError, match="not square"):
            mu_distance_matrix(np.zeros(4, dtype=np.int64))
        with pytest.raises(InvalidParameterError, match="is a list, not a numpy array"):
            mu_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(InvalidParameterError, match="is a NoneType, not a numpy array"):
            mu_distance_matrix(None)

    @pytest.mark.parametrize(
        "dg",
        [
            np.array([[0, np.inf], [np.inf, 0]]),  # scipy's and networkx's unreachable pair
            np.array([[0, 1.5], [1.5, 0]]),
            np.array([[False, True], [True, False]]),
            np.array([[0, -1], [-1, 0]]),
            np.array([[0, 1], [-1, 0]], dtype=np.int8),
            np.array([[0, 0xFFFF], [0xFFFF, 0]], dtype=np.uint16),  # the uint16 unreached mark
            np.zeros((0, 0), dtype=np.uint16),  # no graph has order 0
        ],
        ids=["inf", "fraction", "bool", "negative", "negative_int8", "unreached_uint16", "empty"],
    )
    def test_non_distance_matrix_rejected(self, dg):
        with pytest.raises(InvalidParameterError, match="non-negative integers"):
            mu_distance_matrix(dg)

    @pytest.mark.parametrize(
        "dg",
        [
            np.array([[0, 0], [0, 0]], dtype=np.uint16),  # distinct vertices 0 apart
            np.array([[0, 1, 1], [1, 0, 1], [1, 2, 0]]),
            np.array([[1, 1], [1, 0]]),
        ],
        ids=["zero_off_diagonal", "asymmetric", "nonzero_diagonal"],
    )
    def test_matrix_that_no_graph_has_rejected(self, dg):
        with pytest.raises(InvalidParameterError, match="symmetric, and 0 on the diagonal alone"):
            mu_distance_matrix(dg)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
    def test_integer_matrices_of_any_width_are_read_alike(self, dtype):
        dg = all_pairs_distances(path(6))
        assert np.array_equal(mu_distance_matrix(dg.astype(dtype)), mu_distance_matrix(dg))

    def test_k1_matrix_rejected(self):
        # mu(K1) leaves original 0 isolated, so no finite matrix describes it
        with pytest.raises(TooSmallError):
            mu_distance_matrix(all_pairs_distances(Graph(1)))

    def test_k2_matrix_equals_bfs(self):
        g = complete(2)
        layout = mycielskian(g)
        closed = mu_distance_matrix(all_pairs_distances(g))
        assert np.array_equal(closed, all_pairs_distances(layout.mu))
        assert closed.max() == 2

    def test_petersen_matrix_equals_bfs(self):
        g = petersen()
        layout = mycielskian(g)
        closed = mu_distance_matrix(all_pairs_distances(g))
        assert np.array_equal(closed, all_pairs_distances(layout.mu))

    @given(connected_graphs())
    @settings(max_examples=50)
    def test_matrix_equals_bfs_and_scalar(self, g):
        layout = mycielskian(g)
        dg = all_pairs_distances(g)
        closed = mu_distance_matrix(dg)
        assert closed.dtype == np.uint16 and not closed.flags.writeable
        assert np.array_equal(closed, all_pairs_distances(layout.mu))
        size = layout.mu.n
        scalar = [[case_table(g.n, dg, u, v) for v in range(size)] for u in range(size)]
        assert np.array_equal(closed, np.array(scalar))
        assert closed.max() <= 4
