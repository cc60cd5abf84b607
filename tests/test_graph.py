import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from mycielski import generators
from mycielski.errors import (
    DisconnectedError,
    EdgeListParseError,
    InvalidParameterError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from mycielski.generators import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    erdos_renyi_connected,
    path,
    petersen,
    star,
)
from mycielski.graph import (
    _EXACT_ORDER_LIMIT,
    Graph,
    _canonical_rows,
    _cuts,
    _numpy_word_levels,
    _word_level_budget,
    all_pairs_distances,
    diameter,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
)
from mycielski.transform import mycielskian

from conftest import bfs_distances, connected_graphs


def giant_component(n, p, seed):
    """Largest component of a seeded G(n, p), relabelled in vertex order.

    Unlike ``erdos_renyi_connected``, this never redraws, so it also gives
    sparse graphs of large diameter, where G(n, p) is almost never connected.
    """
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    g = Graph(n, zip(iu[keep].tolist(), iv[keep].tolist()))
    d = bfs_distances(g)
    largest = np.flatnonzero(d[np.argmax((d >= 0).sum(axis=1))] >= 0)
    label = {int(v): i for i, v in enumerate(largest)}
    return Graph(len(largest), [(label[u], label[v]) for u, v in g.edges if u in label])


def lollipop(clique, tail):
    """K_clique with a path of ``tail`` more vertices hanging off its last vertex."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v, v + 1) for v in range(clique - 1, clique + tail - 1)]
    return Graph(clique + tail, edges)


def barbell(clique, bar):
    """Two copies of K_clique joined by a path through ``bar`` more vertices."""
    n = 2 * clique + bar
    second = [(u, v) for u in range(clique + bar, n) for v in range(u + 1, n)]
    return Graph(n, lollipop(clique, bar + 1).edges + tuple(second))


def broom(clique, handle, leaves):
    """A lollipop on a ``handle``-vertex path with ``leaves`` leaves on its end."""
    end = clique + handle - 1
    bristles = tuple((end, end + i) for i in range(1, leaves + 1))
    return Graph(end + 1 + leaves, lollipop(clique, handle).edges + bristles)


def clique_chain(cliques, size):
    """``cliques`` copies of K_size in a row, each joined to the next by one edge."""
    starts = range(0, cliques * size, size)
    edges = [(u, v) for c in starts for u in range(c, c + size) for v in range(u + 1, c + size)]
    edges += [(c - 1, c) for c in range(size, cliques * size, size)]
    return Graph(cliques * size, edges)


SHAPES = {
    "path": path,
    "cycle": cycle,
    "star": lambda n: star(n - 1),
    "complete": complete,
    "gnp": lambda n: erdos_renyi_connected(n, 0.3, n),
    "lollipop": lambda n: lollipop((n + 1) // 2, n // 2),
}


def word_bound_cases():
    """Every shape at n = 2, 24 and 25, and K1: small graphs, each one word per row."""
    yield pytest.param(lambda: Graph(1), id="K1")
    for n in (2, 24, 25):
        for name, build in SHAPES.items():
            if n >= 3 or name != "cycle":
                yield pytest.param(lambda build=build, n=n: build(n), id=f"{name}{n}")


def unlimited_budget(n, m):
    """A word-level budget no graph reaches: every diameter is below n."""
    return n


def floyd_warshall(g):
    """Independent min-plus reference for the BFS distances."""
    big = 10**9
    d = np.full((g.n, g.n), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v in g.edges:
        d[u, v] = d[v, u] = 1
    for k in range(g.n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


class TestConstruction:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert (g.n, g.m) == (2, 1)

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3
        assert g.degrees == (2, 2, 2)

    def test_degree_sequence_by_hand(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert g.degrees == (3, 2, 3, 2)

    def test_duplicates_and_orientation_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(1, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(0, 3)])

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(0)

    @pytest.mark.parametrize(
        "pairs,bad",
        [
            ([(False, True), (1, 2)], "(False, True)"),
            ([(0.0, 1.0)], "(0.0, 1.0)"),
            ([(0, 1), (1, 2.0), ("a", 1)], "(1, 2.0)"),
        ],
    )
    def test_non_integer_ids_rejected_at_the_first_bad_pair(self, pairs, bad):
        with pytest.raises(InvalidParameterError) as excinfo:
            Graph(3, pairs)
        assert str(excinfo.value).startswith(f"edge {bad} ")

    @pytest.mark.parametrize("pair", [(0, 1, 2), (0,), 5])
    def test_malformed_pair_rejected(self, pair):
        with pytest.raises(InvalidParameterError) as exc:
            Graph(3, [(0, 1), pair])
        assert str(exc.value) == f"edge {pair!r} is not a (u, v) pair"
        assert isinstance(exc.value.__cause__, (TypeError, ValueError))

    def test_earlier_bad_pair_error_comes_first(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(1, 1), (0.0, 1.0)])
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(3, 0), (False, True)])

    def test_numpy_integer_ids_are_stored_as_python_ints(self):
        g = Graph(3, [(np.int64(0), np.int64(1)), (np.uint8(2), 1)])
        assert g == Graph(3, [(0, 1), (1, 2)])
        assert all(type(x) is int for e in g.edges for x in e)
        assert all(type(x) is int for row in g.adjacency for x in row)

    @pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
    def test_non_integer_order_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="order must be an integer"):
            Graph(n)

    def test_numpy_integer_order_is_stored_as_a_python_int(self):
        g = Graph(np.int64(2), [(0, 1)])
        assert type(g.n) is int and g == Graph(2, [(0, 1)])
        assert type(mycielskian(g).mu.n) is int

    def test_connectivity(self):
        assert Graph(1).is_connected()
        assert not Graph(2).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degrees) == 2 * g.m


def assert_forms_agree(n, pairs, dtype=np.int64):
    """Graph(n, array) equals the iterable reference, attribute for attribute."""
    ref = Graph(n, [(int(u), int(v)) for u, v in pairs])
    got = Graph(n, np.array(pairs, dtype=dtype).reshape(-1, 2))
    assert (got.n, got.edges, got.adjacency, got.degrees) == (
        ref.n, ref.edges, ref.adjacency, ref.degrees
    )
    assert type(got.n) is int
    assert all(type(x) is int for e in got.edges for x in e)
    assert all(type(x) is int for x in got.degrees)
    assert all(
        type(s) is tuple and all(type(x) is int for x in s) and list(s) == sorted(set(s))
        for s in got.adjacency
    )


def array_error(n, pairs, dtype=np.int64):
    with pytest.raises((SelfLoopError, VertexOutOfRangeError)) as info:
        Graph(n, np.array(pairs, dtype=dtype))
    return type(info.value), str(info.value)


def iterable_error(n, pairs):
    with pytest.raises((SelfLoopError, VertexOutOfRangeError)) as info:
        Graph(n, pairs)
    return type(info.value), str(info.value)


class TestArrayForm:
    """The numpy (m, 2) input form against the iterable reference form."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_connected_graph_up_to_five_vertices(self, n):
        for g in enumerate_connected(n):
            pairs = list(g.edges)
            assert_forms_agree(n, pairs)
            assert_forms_agree(n, [(v, u) for u, v in reversed(pairs)])

    @pytest.mark.parametrize(
        "build",
        [lambda: path(30), lambda: cycle(30), lambda: complete(12), lambda: star(9),
         lambda: complete_bipartite(3, 4), petersen],
        ids=["path", "cycle", "complete", "star", "kbipartite", "petersen"],
    )
    def test_families(self, build):
        g = build()
        assert_forms_agree(g.n, list(g.edges))
        assert_forms_agree(g.n, [(v, u) for u, v in reversed(g.edges)])

    @pytest.mark.parametrize("n,p", [(25, 0.1), (25, 0.3), (25, 0.8), (300, 0.02), (300, 0.3)])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_gnp_draws(self, n, p, seed):
        kept = generators._kept_pairs(n, p, seed)
        assert _canonical_rows(n, kept) == [tuple(r) for r in kept.tolist()]  # taken as is
        assert _canonical_rows(n, kept[::-1]) is None  # left to the pair-by-pair form
        assert_forms_agree(n, [tuple(r) for r in kept.tolist()])
        g = erdos_renyi_connected(n, p, seed)
        assert_forms_agree(n, list(g.edges))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.int8, np.uint16])
    def test_built_inputs(self, dtype):
        assert_forms_agree(4, [(3, 0), (2, 1), (1, 0), (3, 2)], dtype)  # reversed, unsorted
        assert_forms_agree(4, [(0, 1), (1, 0), (0, 1), (2, 3), (3, 2), (3, 2)], dtype)
        assert_forms_agree(4, [(1, 2), (2, 1), (0, 3), (1, 2)], dtype)
        assert_forms_agree(3, [], dtype)
        assert_forms_agree(1, [], dtype)
        assert_forms_agree(6, [(0, 5)], dtype)

    def test_large_vertex_ids_stay_exact(self):
        # the array form compares ids, with no u * n + v key to overflow; an
        # order where such a key would (n > 3.04e9) allocates more than
        # either form can hold, so this checks ids near a large n instead
        n = 200_000
        pairs = [(n - 1, 0), (n - 2, n - 1), (n - 1, 0), (1, n - 1), (n - 2, 1)]
        canonical = sorted({(min(p), max(p)) for p in pairs})
        for dtype in (np.int64, np.uint64, np.int32):
            assert_forms_agree(n, pairs, dtype)
            assert_forms_agree(n, canonical, dtype)

    @pytest.mark.parametrize(
        "n,pairs",
        [
            (5, [(0, 1), (2, 2), (0, 7)]),  # self-loop before out-of-range
            (5, [(0, 1), (0, 7), (2, 2)]),  # out-of-range before self-loop
            (5, [(0, 1), (3, -1)]),  # negative vertex
            (5, [(0, 1), (5, 2)]),  # vertex == n
            (5, [(1, 2), (5, 5)]),  # both at once: the self-loop check comes first
            (1, [(0, 0)]),
        ],
    )
    def test_bad_rows_raise_the_reference_error(self, n, pairs):
        assert array_error(n, pairs) == iterable_error(n, pairs)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int8, np.uint64])
    def test_bad_rows_in_other_dtypes(self, dtype):
        for pairs in ([(0, 1), (4, 6)], [(3, 3), (0, 9)]):
            assert array_error(5, pairs, dtype) == iterable_error(5, pairs)

    def test_huge_unsigned_vertex_is_reported_exactly(self):
        pairs = [(0, 1), (0, 2**63 + 1)]
        assert array_error(5, pairs, np.uint64) == iterable_error(5, pairs)
        assert "9223372036854775809" in array_error(5, pairs, np.uint64)[1]

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.array([0, 1]),
            np.array([[True, False]]),
            np.empty((0, 3), dtype=np.int64),
        ],
        ids=["float", "three-columns", "one-dimensional", "bool", "empty-three-columns"],
    )
    def test_other_arrays_are_rejected(self, arr):
        with pytest.raises(InvalidParameterError):
            Graph(3, arr)


class TestDistances:
    def test_path_endpoints(self):
        d = all_pairs_distances(path(3))
        assert d[0, 2] == 2

    def test_cycle_antipodal(self):
        d = all_pairs_distances(cycle(6))
        assert d[0, 3] == 3

    def test_petersen_entries(self):
        d = all_pairs_distances(petersen())
        off_diagonal = d[~np.eye(10, dtype=bool)]
        assert set(np.unique(off_diagonal)) == {1, 2}

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))

    def test_order_limit_is_checked_before_anything_is_read(self):
        # a stand-in with no degrees or edges: any allocation would read them first
        too_large = SimpleNamespace(n=_EXACT_ORDER_LIMIT + 1)
        with pytest.raises(InvalidParameterError, match="exact int64 limit"):
            all_pairs_distances(too_large)

    def test_matches_floyd_warshall(self):
        for seed in range(20):
            g = erdos_renyi_connected(9, 0.3, seed)
            assert np.array_equal(all_pairs_distances(g), floyd_warshall(g))

    def test_single_vertex(self):
        assert all_pairs_distances(Graph(1)).tolist() == [[0]]

    def test_matches_references_on_small_graphs_and_their_mu(self):
        graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
        for g in graphs + [mycielskian(g).mu for g in graphs]:
            d = all_pairs_distances(g)
            assert np.array_equal(d, bfs_distances(g))
            assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize("n", [127, 128, 129, 257])
    def test_matches_references_across_block_boundaries(self, n):
        for g in (erdos_renyi_connected(n, 0.05, n), cycle(n), giant_component(n, 0.02, n)):
            d = all_pairs_distances(g)
            assert d.dtype == np.int64 and not d.flags.writeable
            assert np.array_equal(d, bfs_distances(g))
            assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize(
        "build",
        [lambda: erdos_renyi_connected(1000, 0.02, 7), lambda: giant_component(1000, 0.005, 7)],
        ids=["gnp1000_0.02", "giant_gnp1000_0.005"],
    )
    def test_matches_references_at_n1000(self, build):
        g = build()
        d = all_pairs_distances(g)
        assert np.array_equal(d, bfs_distances(g))
        assert np.array_equal(d, floyd_warshall(g))

    def test_disconnected_rejected_across_blocks(self):
        g = Graph(200, [(v, v + 1) for v in range(199) if v != 149])
        with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
            all_pairs_distances(g)

    @pytest.mark.parametrize("build", word_bound_cases())
    def test_matches_references_around_the_word_bound(self, build):
        g = build()
        d = all_pairs_distances(g)
        assert d.dtype == np.int64 and d.shape == (g.n, g.n) and not d.flags.writeable
        assert np.array_equal(d, bfs_distances(g))
        assert np.array_equal(d, floyd_warshall(g))

    def test_disconnected_small_graphs_rejected(self):
        for g in (
            Graph(24, [(v, v + 1) for v in range(23) if v != 5]),
            Graph(3, [(1, 2)]),
            Graph(64, [(v, v + 1) for v in range(63) if v != 40]),
        ):
            with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
                all_pairs_distances(g)

    def test_word_form_is_exact_up_to_64_vertices(self, monkeypatch):
        # every row is one uint64 word, and at 64 vertices its top bit is set;
        # with no budget every level runs in words, none in the blocked kernel
        monkeypatch.setattr("mycielski.graph._word_level_budget", unlimited_budget)
        graphs = [mycielskian(g).mu for g in enumerate_connected(4)]
        graphs += [build(n) for n in (31, 32, 33, 63, 64) for build in SHAPES.values()]
        graphs += [lollipop(32, 32), giant_component(64, 0.05, 3)]
        for g in graphs:
            assert np.array_equal(all_pairs_distances(g), bfs_distances(g))
        with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
            all_pairs_distances(Graph(64, [(v, v + 1) for v in range(63) if v != 40]))

    @pytest.mark.parametrize("n", [25, 63, 64, 65, 127, 128, 129])
    def test_numpy_words_match_references_at_word_widths(self, n):
        graphs = [build(n) for build in SHAPES.values()] + [giant_component(n, 0.05, n)]
        for g in graphs:
            d = all_pairs_distances(g)
            assert d.dtype == np.int64 and d.shape == (g.n, g.n) and not d.flags.writeable
            assert np.array_equal(d, bfs_distances(g))
            assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize("in_words", [True, False], ids=["in_words", "handed_off"])
    def test_disconnected_rejected_across_a_word_boundary(self, in_words, monkeypatch):
        # two stars, on 0..63 and 64..127: the split falls between two uint64
        # words. With no budget the word levels see a level change nothing;
        # stopped after 2 levels, the blocked kernel sees its frontier empty.
        monkeypatch.setattr(
            "mycielski.graph._word_level_budget", unlimited_budget if in_words else lambda n, m: 2
        )
        raised = []

        def recorded(*args):
            try:
                return _numpy_word_levels(*args)
            except DisconnectedError:
                raised.append(args[0])
                raise

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", recorded)
        edges = [(0, v) for v in range(1, 64)] + [(64, v) for v in range(65, 128)]
        for n in (128, 129):
            with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
                all_pairs_distances(Graph(n, edges + [(127, 128)] * (n - 128)))
        assert raised == ([128, 129] if in_words else [])

    @pytest.mark.parametrize("isolated", [0, 12, 29])
    def test_isolated_vertex_rejected_before_any_level(self, isolated, monkeypatch):
        # reduceat reads an empty neighbour list as the next vertex's list,
        # so the word levels must never see an isolated vertex
        def no_levels(*args):
            raise AssertionError("a word level ran")

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", no_levels)
        others = [v for v in range(30) if v != isolated]
        g = Graph(30, zip(others, others[1:]))
        with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
            all_pairs_distances(g)

    @pytest.mark.parametrize(
        "budget", [0, 1, 2, None], ids=["budget0", "budget1", "budget2", "unlimited"]
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda: path(300),
            lambda: cycle(257),
            lambda: star(130),
            lambda: lollipop(100, 30),
            lambda: erdos_renyi_connected(257, 0.05, 257),
            lambda: barbell(100, 100),
            lambda: broom(150, 100, 50),
            lambda: clique_chain(6, 50),
        ],
        ids=[
            "path300",
            "cycle257",
            "star130",
            "lollipop100_30",
            "gnp257",
            "barbell100_100",
            "broom150_100_50",
            "chain6x50",
        ],
    )
    def test_blocked_kernel_resumes_after_the_word_levels(self, build, budget, monkeypatch):
        monkeypatch.setattr(
            "mycielski.graph._word_level_budget",
            unlimited_budget if budget is None else (lambda n, m: budget),
        )
        handoffs = []

        def recorded(*args):
            d, k = _numpy_word_levels(*args)
            handoffs.append((k, bool((d < 0).any())))
            return d, k

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", recorded)
        g = build()
        d = all_pairs_distances(g)
        assert d.dtype == np.int64 and not d.flags.writeable
        assert np.array_equal(d, bfs_distances(g))
        assert np.array_equal(d, floyd_warshall(g))
        # the word levels stop at the budget, or at the diameter with every row full
        diam = int(d.max())
        if budget is None or budget >= diam:
            assert handoffs == [(diam, False)]
        else:
            assert handoffs == [(budget, True)]

    def test_default_budget_finishes_small_diameters_in_words(self, monkeypatch):
        # gnp(1000, 0.02) has diameter 4 and a budget of 15 levels, so the word
        # levels do it all; a path of 300 gets 2 levels before the hand-off
        handoffs = []

        def recorded(*args):
            d, k = _numpy_word_levels(*args)
            handoffs.append((k, bool((d < 0).any())))
            return d, k

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", recorded)
        g = erdos_renyi_connected(1000, 0.02, 7)
        assert _word_level_budget(g.n, g.m) == 15
        all_pairs_distances(g)
        all_pairs_distances(path(300))
        assert handoffs == [(4, False), (2, True)]

    @pytest.mark.parametrize("gather_edges", [None, 1], ids=["default_gather", "tiny_gather"])
    def test_blocked_kernel_alone_is_exact(self, gather_edges, monkeypatch):
        # a word-level budget of 0 sends every graph through the kernel
        # alone. With a gather of n ceil(n/64) edges instead of 8 times that,
        # most levels go in parts, and a pair found by one part must not be
        # found again by the next.
        monkeypatch.setattr("mycielski.graph._word_level_budget", lambda n, m: 0)
        calls = []

        def recorded(*args):
            calls.append(args)
            return _cuts(*args)

        monkeypatch.setattr("mycielski.graph._cuts", recorded)
        if gather_edges is not None:
            monkeypatch.setattr("mycielski.graph._GATHER_EDGES", gather_edges)
        graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
        graphs += [mycielskian(g).mu for g in graphs]
        graphs += [Graph(1), star(130), cycle(129), erdos_renyi_connected(257, 0.05, 1)]
        graphs += [giant_component(257, 0.02, 1), barbell(30, 20), clique_chain(5, 12)]
        for g in graphs:
            before = len(calls)
            assert np.array_equal(all_pairs_distances(g), bfs_distances(g))
            # the word levels cut their chunks once; every later call is a
            # kernel level gathered in parts, which the tiny gather forces
            # on any graph of 3 or more vertices
            if gather_edges and g.n >= 3:
                assert len(calls) - before > 1
        with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
            all_pairs_distances(Graph(200, [(v, v + 1) for v in range(199) if v != 149]))

    @pytest.mark.parametrize("build", [path, cycle])
    def test_long_diameter_stays_fast(self, build):
        # a kernel level costs its frontier's edges, O(n) per block here, so
        # the whole APSP stays near n^2; a level costing n^2 would take minutes
        n = 2000
        start = time.perf_counter()
        d = all_pairs_distances(build(n))
        elapsed = time.perf_counter() - start
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        expected = gap if build is path else np.minimum(gap, n - gap)
        assert np.array_equal(d, expected)
        assert elapsed < 30.0

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_matrix_invariants(self, g):
        d = all_pairs_distances(g)
        assert d.dtype == np.int64 and d.shape == (g.n, g.n) and not d.flags.writeable
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        # d == 1 exactly on edges
        ones = {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d[u, v] == 1}
        assert ones == set(g.edges)
        # triangle inequality via one min-plus step
        assert np.all(d <= (d[:, :, None] + d[None, :, :]).min(axis=1))


class TestDiameterAndDegrees:
    @pytest.mark.parametrize(
        "g,expected",
        [(complete(5), 1), (path(5), 4), (star(4), 2)],
        ids=["K5", "P5", "K1_4"],
    )
    def test_diameter(self, g, expected):
        assert diameter(g) == expected
        assert type(diameter(g)) is int

    @given(connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_diameter_is_max_entry(self, g):
        assert diameter(g) == all_pairs_distances(g).max()

    @pytest.mark.parametrize(
        "g,expected",
        [(cycle(7), (2, 2)), (star(4), (1, 4)), (path(4), (1, 2))],
        ids=["C7", "K1_4", "P4"],
    )
    def test_degree_extremes(self, g, expected):
        assert (min(g.degrees), max(g.degrees)) == expected


class TestEdgeListFormat:
    def test_format(self):
        text = format_edge_list(path(3))
        assert text == "3 2\n0 1\n1 2\n"

    def test_comment_line(self):
        text = format_edge_list(path(3), comment="roles: whatever")
        assert text.splitlines()[1] == "# roles: whatever"
        assert parse_edge_list(text) == path(3)

    def test_multi_line_comment_round_trips(self):
        text = format_edge_list(path(3), comment="made by\nhand\n")
        assert text == "3 2\n# made by\n# hand\n# \n0 1\n1 2\n"
        assert parse_edge_list(text) == path(3)

    def test_trailing_whitespace_tolerated(self):
        assert parse_edge_list("2 1 \n0 1\t\n\n") == path(2)

    @given(connected_graphs())
    @settings(max_examples=40)
    def test_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text",
        ["", "2\n", "2 2\n0 1\n", "2 1\n0 one\n", "3 1\n1 1\n", "2 1\n0 5\n"],
        ids=["empty", "short-header", "edge-count", "non-int", "loop", "range"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(text)

    def test_unreadable_file_rejected_with_its_path(self, tmp_path):
        undecodable = tmp_path / "bytes.txt"
        undecodable.write_bytes(b"\xff\xfe\x00garbage\n")
        for target in (undecodable, tmp_path / "missing.txt", tmp_path):
            with pytest.raises(EdgeListParseError) as exc:
                read_edge_list(str(target))
            assert str(exc.value).startswith(f"cannot read {target}: ")
