import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    connected_classes,
    cycle,
    enumerate_connected,
    erdos_renyi_connected,
    path,
    petersen,
    star,
)
from mycielski.graph import (
    _EXACT_ORDER_LIMIT,
    _UNSEEN,
    Graph,
    _canonical_rows,
    _cuts,
    _numpy_word_levels,
    _popcount,
    all_pairs_distances,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
)
from mycielski.indices import index_report
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


def grid(rows, cols):
    """The rows x cols grid graph, vertex (i, j) at i * cols + j."""
    right = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    down = [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph(rows * cols, right + down)


def perfect_matching(n):
    """n / 2 disjoint edges: every frontier after level 0 is n, and no pair is
    reached after level 1."""
    return Graph(n, [(v, v + 1) for v in range(0, n, 2)])


def two_stars(n):
    """Stars on 0..63 and 64..127, the split between two uint64 words, and
    on 129 vertices a pendant vertex 128 on leaf 127."""
    edges = [(0, v) for v in range(1, 64)] + [(64, v) for v in range(65, 128)]
    return Graph(n, edges + [(127, 128)] * (n - 128))


def sparse_gnp():
    """gnp(1000, 0.005, 3): its first 720 draws are disconnected, so the graph
    it returns is the first draw from state 723, taken here with no redraws."""
    return erdos_renyi_connected(1000, 0.005, 723)


def _reference_levels(budget):
    """A stand-in for ``_numpy_word_levels`` that hands off at level ``budget``.

    It keeps the word levels' contract from boolean reachability powers,
    R_{k+1} = R_k | (R_k A > 0) with A the 0/1 adjacency rebuilt from ``nbr``
    and ``first_nbr``, and shares no code with them: it raises at the first
    level that reaches no pair more, returns ``(None, k)`` once every pair is
    reached, and at level ``budget`` returns ``((R_k, R_{k-1}), k)`` with
    ``count`` at min(d, k), each R packed words-major as the word levels
    pack it. The rule never hands off at level 0, and at level 1 only on a
    perfect matching of 68 or more vertices, so the kernel tests force any
    level here.
    """

    def words(reach):
        packed = np.packbits(reach, axis=1, bitorder="little")
        packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
        return np.ascontiguousarray(packed.view(np.uint64).T)

    def levels(n, nbr, first_nbr, count):
        adjacency = np.zeros((n, n), dtype=np.float32)  # exact: every product sum is below 2^24
        adjacency[np.repeat(np.arange(n), np.diff(first_nbr, append=nbr.size)), nbr] = 1
        reach, last = np.eye(n, dtype=bool), np.zeros((n, n), dtype=bool)
        for k in range(n + 1):
            if k and np.count_nonzero(reach) == np.count_nonzero(last):
                raise DisconnectedError("vertex 0 cannot reach the whole graph")
            if reach.all():
                return None, k
            if k == budget:
                return (words(reach), words(last)), k
            count += ~reach if count.ndim == 2 else np.count_nonzero(~reach, axis=1)
            reach, last = reach | (reach.astype(np.float32) @ adjacency > 0), reach

    return levels


def patch_word_levels(monkeypatch, budget=None):
    """Patch in the word levels, by the rule with None or the stand-in
    ``_reference_levels(budget)`` with an int, and record every call:
    ``handoffs`` gets each (k, handed off) and ``raised`` the order n of
    each DisconnectedError raised there."""
    levels = _numpy_word_levels if budget is None else _reference_levels(budget)
    calls = SimpleNamespace(handoffs=[], raised=[])

    def recorded(n, *args):
        try:
            state, k = levels(n, *args)
        except DisconnectedError:
            calls.raised.append(n)
            raise
        calls.handoffs.append((k, state is not None))
        return state, k

    monkeypatch.setattr("mycielski.graph._numpy_word_levels", recorded)
    return calls


@st.composite
def graphs_without_isolated_vertices(draw, max_n=64):
    """Graphs of 2..max_n vertices, connected or not: each vertex is joined
    to one drawn other vertex, and up to n more drawn pairs are added."""
    n = draw(st.integers(2, max_n))
    steps = draw(st.lists(st.integers(1, n - 1), min_size=n, max_size=n))
    pairs = [(v, (v + step) % n) for v, step in enumerate(steps)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    return Graph(n, pairs + [(u, v) for u, v in extra if u != v])


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
            assert d.dtype == np.uint16 and not d.flags.writeable
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
        assert d.dtype == np.uint16 and d.shape == (g.n, g.n) and not d.flags.writeable
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
        # by the rule every level runs in words, none in the blocked kernel
        patch_word_levels(monkeypatch)
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
            assert d.dtype == np.uint16 and d.shape == (g.n, g.n) and not d.flags.writeable
            assert np.array_equal(d, bfs_distances(g))
            assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize("in_words", [True, False], ids=["in_words", "handed_off"])
    def test_disconnected_rejected_across_a_word_boundary(self, in_words, monkeypatch):
        # two stars, on 0..63 and 64..127: the split falls between two uint64
        # words. By the rule the word levels see a level change nothing on 128
        # vertices and hand off at level 3 on 129, whose pendant vertex 128 keeps
        # the frontier growing one level longer; handed off at level 2, the
        # blocked kernel sees its frontier empty. Perfect matchings hand off by
        # the rule at level 1 from 68 vertices on, and raise in words below that.
        calls = patch_word_levels(monkeypatch, None if in_words else 2)
        graphs = [two_stars(128), two_stars(129)]
        if in_words:
            graphs += [perfect_matching(n) for n in (66, 68, 200)]
        for g in graphs:
            with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
                all_pairs_distances(g)
        if in_words:
            assert calls.raised == [128, 66]
            assert calls.handoffs == [(3, True), (1, True), (1, True)]
        else:
            assert calls.raised == []

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
        calls = patch_word_levels(monkeypatch, budget)
        g = build()
        d = all_pairs_distances(g)
        assert d.dtype == np.uint16 and not d.flags.writeable
        assert np.array_equal(d, bfs_distances(g))
        assert np.array_equal(d, floyd_warshall(g))
        # the stand-in stops at the budget and the rule at its own level k, or
        # either at the diameter with every row full
        diam = int(d.max())
        k = calls.handoffs[0][0] if budget is None else min(budget, diam)
        assert calls.handoffs == [(k, k < diam)] and k <= diam

    def test_default_budget_finishes_small_diameters_in_words(self, monkeypatch):
        # gnp(1000, 0.02) has diameter 4, and the word levels do it all; a path
        # of 300 stops growing its frontier at level 2 and hands off there. A
        # graph of at most 64 vertices, one word per row, runs every level in words.
        calls = patch_word_levels(monkeypatch)
        g = erdos_renyi_connected(1000, 0.02, 7)
        all_pairs_distances(g)
        all_pairs_distances(path(300))
        all_pairs_distances(path(6))
        all_pairs_distances(path(64))
        assert calls.handoffs == [(4, False), (2, True), (5, False), (63, False)]

    @pytest.mark.parametrize(
        "build,handoff",
        [
            (sparse_gnp, (9, False)),
            (lambda: grid(30, 30), (58, False)),
            (lambda: path(300), (2, True)),
            (lambda: cycle(257), (2, True)),
            (lambda: broom(150, 100, 50), (3, True)),
            (lambda: grid(3, 300), (4, True)),
            (lambda: grid(5, 200), (6, True)),
        ],
        ids=[
            "gnp1000_0.005_3",
            "grid30x30",
            "path300",
            "cycle257",
            "broom150_100_50",
            "grid3x300",
            "grid5x200",
        ],
    )
    def test_default_rule_hands_off_once_the_frontier_stops_growing(
        self, build, handoff, monkeypatch
    ):
        # the sparse gnp graph's and the grid's frontiers still grow, or leave
        # fewer pairs than 64 levels at their width, until every row is full;
        # a path's or a cycle's stops growing at level 2, with most pairs left,
        # and a broom's at 3, once its clique is full, and a grid of r rows at
        # r + 1, once its frontier has crossed the rows
        calls = patch_word_levels(monkeypatch)
        g = build()
        expected = summed_from_the_matrix(g)
        report = index_report(g)
        assert (report.diameter, report.wiener, report.degree_distance) == expected
        assert calls.handoffs == [handoff, handoff]

    @pytest.mark.parametrize("matrix", [True, False], ids=["matrix", "sums"])
    @pytest.mark.parametrize(
        "build,level",
        [
            (lambda: perfect_matching(66), None),
            (lambda: perfect_matching(68), 1),
            (lambda: perfect_matching(200), 1),
            (lambda: path(300), 2),
            (lambda: cycle(257), 2),
            (lambda: barbell(100, 100), 2),
            (lambda: clique_chain(6, 50), 2),
            (lambda: broom(150, 100, 50), 3),
            (lambda: two_stars(129), 3),
            (lambda: grid(3, 300), 4),
            (lambda: grid(5, 200), 6),
        ],
        ids=[
            "matching66",
            "matching68",
            "matching200",
            "path300",
            "cycle257",
            "barbell100_100",
            "chain6x50",
            "broom150_100_50",
            "two_stars129",
            "grid3x300",
            "grid5x200",
        ],
    )
    def test_reference_levels_hand_off_what_the_word_levels_do(self, build, level, matrix):
        # the kernel tests force hand-offs through _reference_levels, so at
        # each natural hand-off of the rule the stand-in must give the same
        # level, the same two word arrays and the same count, in either sink;
        # None: both raise at the level that grows no row
        g = build()
        deg = np.asarray(g.degrees, dtype=np.int64)
        nbr = np.array([v for adjacent in g.adjacency for v in adjacent], dtype=np.int64)
        args = (g.n, nbr, np.cumsum(deg) - deg)
        counts = [np.zeros((g.n, g.n) if matrix else g.n, np.uint16 if matrix else np.int64)]
        counts.append(counts[0].copy())
        if level is None:
            for levels, count in zip((_numpy_word_levels, _reference_levels(None)), counts):
                with pytest.raises(DisconnectedError, match=r"^vertex 0 cannot reach the whole"):
                    levels(*args, count)
        else:
            state, k = _numpy_word_levels(*args, counts[0])
            assert k == level and state is not None
            reference, k = _reference_levels(level)(*args, counts[1])
            assert k == level and len(reference) == len(state) == 2
            for ours, theirs in zip(state, reference):
                assert ours.dtype == theirs.dtype == np.uint64 and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
        assert counts[0].dtype == counts[1].dtype and np.array_equal(*counts)

    @given(graphs_without_isolated_vertices())
    @settings(max_examples=60, deadline=None)
    def test_default_rule_keeps_up_to_64_vertices_in_words(self, g):
        # at most n^2 <= 64 n pairs are ever left, so no level hands off: a
        # connected graph finishes in words and a disconnected one raises there
        connected = g.is_connected()
        with pytest.MonkeyPatch.context() as mp:
            calls = patch_word_levels(mp)
            for run in (all_pairs_distances, index_report):
                if connected:
                    run(g)
                else:
                    with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
                        run(g)
        assert [handed_off for _, handed_off in calls.handoffs] == ([False] * 2 if connected else [])
        assert calls.raised == ([] if connected else [g.n, g.n])

    def test_small_class_graphs_and_their_mu_run_no_kernel_level(self, monkeypatch):
        # the 224 APSP calls of verify --enumerate 6: the order-6 class graphs
        # and their order-13 Mycielskians each finish in the word levels
        calls = patch_word_levels(monkeypatch)
        graphs = [g for g, _ in connected_classes(6)]
        graphs += [mycielskian(g).mu for g in graphs]
        assert len(graphs) == 224
        for g in graphs:
            d = all_pairs_distances(g)
            assert np.array_equal(d, bfs_distances(g))
            assert calls.handoffs[-1] == (int(d.max()), False)
        assert len(calls.handoffs) == 224

    def test_disconnected_one_word_graphs_rejected_in_words(self, monkeypatch):
        # with the default budget a one-word graph never reaches the blocked
        # kernel: a level that grows no row raises inside the word levels. At
        # n = 3 every disconnected graph has an isolated vertex, which is
        # rejected before any level, so the smallest case here is n = 4.
        calls = patch_word_levels(monkeypatch)
        for n, cut in ((4, 1), (24, 5), (64, 40)):
            g = Graph(n, [(v, v + 1) for v in range(n - 1) if v != cut])
            with pytest.raises(DisconnectedError, match=r"vertex 0 cannot reach"):
                all_pairs_distances(g)
        assert calls.raised == [4, 24, 64]

    @pytest.mark.parametrize("gather_edges", [None, 1], ids=["default_gather", "tiny_gather"])
    def test_blocked_kernel_alone_is_exact(self, gather_edges, monkeypatch):
        # a hand-off at level 0 sends every graph through the kernel
        # alone. With a gather of n ceil(n/64) edges instead of 8 times that,
        # most levels go in parts, and a pair found by one part must not be
        # found again by the next.
        patch_word_levels(monkeypatch, 0)
        calls = []

        def recorded(*args):
            calls.append(_cuts(*args))
            return calls[-1]

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
            # the stand-in cuts no chunks, so every call is a kernel level,
            # and the tiny gather forces at least one of them into parts on
            # any graph of 3 or more vertices
            if gather_edges and g.n >= 3:
                assert any(len(cuts) > 2 for cuts in calls[before:])
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: erdos_renyi_connected(1000, 0.02, 7),
            lambda: cycle(1000),
            lambda: path(600),
            sparse_gnp,
        ],
        ids=["gnp1000_0.02", "cycle1000", "path600", "gnp1000_0.005_3"],
    )
    def test_result_is_the_uint16_level_count(self, build):
        # the level count is the result: it holds 2 n^2 bytes of numpy data,
        # and with no int64 copy of it (8 n^2 more) the traced peak stays
        # within 4 n^2 (about 3.6 n^2; 3.47 n^2 on the sparse gnp graph, whose
        # wide frontiers stay in words). Neither a distance nor a level count
        # reaches _UNSEEN.
        assert _EXACT_ORDER_LIMIT - 1 < _UNSEEN
        g = build()
        n = g.n
        tracemalloc.start()
        try:
            d = all_pairs_distances(g)
            peak = tracemalloc.get_traced_memory()[1]
            numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            held = tracemalloc.take_snapshot().filter_traces([numpy_data])
        finally:
            tracemalloc.stop()
        assert d.dtype == np.uint16 and d.nbytes == 2 * n * n and not d.flags.writeable
        assert sum(trace.size for trace in held.traces) == 2 * n * n
        assert peak <= 4 * n * n

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_matrix_invariants(self, g):
        d = all_pairs_distances(g)
        assert d.dtype == np.uint16 and d.shape == (g.n, g.n) and not d.flags.writeable
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        # d == 1 exactly on edges
        ones = {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d[u, v] == 1}
        assert ones == set(g.edges)
        # triangle inequality via one min-plus step
        assert np.all(d <= (d[:, :, None] + d[None, :, :]).min(axis=1))


def summed_from_the_matrix(g):
    """Diameter, W and DD of g summed from its distance matrix."""
    d = all_pairs_distances(g)
    rows = d.sum(axis=1, dtype=np.int64)
    return int(d.max()), int(rows.sum()) // 2, int(np.asarray(g.degrees) @ rows)


def distance_sum_cases():
    """The SHAPES around the word and block widths, and four graphs of long diameter."""
    for n in (25, 63, 64, 65, 127, 128, 129):
        for name, build in SHAPES.items():
            yield pytest.param(lambda build=build, n=n: build(n), id=f"{name}{n}")
    yield pytest.param(lambda: erdos_renyi_connected(1000, 0.02, 7), id="gnp1000_0.02")
    yield pytest.param(lambda: path(300), id="path300")
    yield pytest.param(lambda: barbell(100, 100), id="barbell100_100")
    yield pytest.param(lambda: broom(150, 100, 50), id="broom150_100_50")


class TestDistanceSums:
    """``index_report`` sums each source's distances inside the BFS, with no matrix."""

    @pytest.mark.parametrize(
        "budget", [0, 1, 2, None], ids=["budget0", "budget1", "budget2", "unlimited"]
    )
    @pytest.mark.parametrize("build", distance_sum_cases())
    def test_sums_match_the_matrix(self, build, budget, monkeypatch):
        g = build()
        expected = summed_from_the_matrix(g)
        calls = patch_word_levels(monkeypatch, budget)
        report = index_report(g)
        assert (report.diameter, report.wiener, report.degree_distance) == expected
        assert all(type(x) is int for x in (report.diameter, report.wiener, report.degree_distance))
        # the word levels hand R_k and R_{k-1} to the kernel, or finish every row
        diam = expected[0]
        k = calls.handoffs[0][0] if budget is None else min(budget, diam)
        assert calls.handoffs == [(k, k < diam)] and k <= diam

    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize(
        "build",
        [lambda: path(300), lambda: barbell(100, 100), lambda: erdos_renyi_connected(257, 0.05, 1)],
        ids=["path300", "barbell100_100", "gnp257"],
    )
    def test_kernel_gathers_what_the_matrix_kernel_gathers(self, build, budget, monkeypatch):
        # each kernel level starts from the pairs at distance k alone, in
        # either sink, so every level gathers as many edges in both
        patch_word_levels(monkeypatch, budget)
        gathered = []

        def recorded(ends, step):
            gathered[-1].append(int(ends[-1]))
            return _cuts(ends, step)

        monkeypatch.setattr("mycielski.graph._cuts", recorded)
        g = build()
        for run in (all_pairs_distances, index_report):
            gathered.append([])
            run(g)
        assert gathered[0] == gathered[1] and len(gathered[0]) > 1

    def test_order_limit_is_checked_before_anything_is_read(self):
        too_large = SimpleNamespace(n=_EXACT_ORDER_LIMIT + 1)
        with pytest.raises(InvalidParameterError, match="exact int64 limit"):
            index_report(too_large)

    @pytest.mark.parametrize("isolated", [0, 12, 29])
    def test_isolated_vertex_rejected_before_any_level(self, isolated, monkeypatch):
        def no_levels(*args):
            raise AssertionError("a word level ran")

        monkeypatch.setattr("mycielski.graph._numpy_word_levels", no_levels)
        others = [v for v in range(30) if v != isolated]
        with pytest.raises(DisconnectedError, match=r"^vertex 0 cannot reach the whole graph$"):
            index_report(Graph(30, zip(others, others[1:])))

    @pytest.mark.parametrize("budget", [None, 2], ids=["in_words", "kernel"])
    @pytest.mark.parametrize(
        "build,handoffs",
        [
            (lambda: Graph(24, [(v, v + 1) for v in range(23) if v != 5]), (None, 2)),
            (lambda: Graph(200, [(v, v + 1) for v in range(199) if v != 149]), (2, 2)),
            (lambda: two_stars(128), (None, 2)),
            (lambda: two_stars(129), (3, 2)),
            (lambda: perfect_matching(66), (None, None)),
            (lambda: perfect_matching(68), (1, None)),
            (lambda: perfect_matching(200), (1, None)),
        ],
        ids=[
            "path24_cut",
            "path200_cut",
            "two_stars128",
            "two_stars129",
            "matching66",
            "matching68",
            "matching200",
        ],
    )
    def test_disconnected_rejected(self, build, handoffs, budget, monkeypatch):
        # handoffs holds the level the word levels hand off at by the rule
        # (in_words) and by the stand-in stopped at level 2 (kernel); a kernel
        # block then sees its frontier empty. None: a word level grows no row,
        # as a matching's level 2 does. By the rule a path of 200 hands off at
        # level 2, and a matching at level 1 from 68 vertices on, since 66
        # leave 4224 = 64 n pairs; path24 fills no row by level 2.
        calls = patch_word_levels(monkeypatch, budget)
        g = build()
        with pytest.raises(DisconnectedError, match=r"^vertex 0 cannot reach the whole graph$"):
            index_report(g)
        by_rule, at_level2 = handoffs
        k = by_rule if budget is None else at_level2
        assert calls.raised == ([g.n] if k is None else [])
        assert calls.handoffs == ([] if k is None else [(k, True)])

    @pytest.mark.parametrize(
        "build",
        [lambda: erdos_renyi_connected(1000, 0.02, 7), lambda: cycle(1000), lambda: path(600)],
        ids=["gnp1000_0.02", "cycle1000", "path600"],
    )
    def test_index_report_holds_no_matrix(self, build):
        # two word arrays of n^2/8 bytes, one vertex chunk's gathered words
        # and the popcount's temporaries: about 0.85 n^2 on the gnp graph,
        # where a uint16 matrix alone would be 2 n^2
        g = build()
        n = g.n
        tracemalloc.start()
        try:
            index_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n

    @pytest.mark.parametrize(
        "build",
        [lambda: erdos_renyi_connected(1000, 0.02, 7), lambda: path(2000), sparse_gnp],
        ids=["gnp1000_0.02", "path2000", "gnp1000_0.005_3"],
    )
    def test_index_report_peak_is_below_one_and_a_quarter_n2(self, build):
        # the two word arrays (n^2/4 bytes), the popcount's few temporaries
        # of n^2/8 and one gather of 2m words: traced at about 0.85 n^2
        # on the gnp graph, 0.74 n^2 on the path, whose kernel blocks are
        # O(128 n), and 0.73 n^2 on the sparse gnp graph, whose wide
        # frontiers stay in words. Counting bits through a byte table gave
        # 1.58 and 1.17 n^2 on the first two.
        g = build()
        n = g.n
        tracemalloc.start()
        try:
            index_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n


uint64_words = st.integers(min_value=0, max_value=2**64 - 1)


class TestPopcount:
    """The sums sink counts each level's bits by ``_popcount``, so T(s) is exact only if it is."""

    @given(st.lists(uint64_words, min_size=1, max_size=40))
    def test_drawn_words(self, values):
        counts = _popcount(np.array(values, dtype=np.uint64))
        assert counts.dtype == np.uint64
        assert counts.tolist() == [bin(w).count("1") for w in values]

    @given(st.integers(1, 4), st.integers(1, 70), st.data())
    def test_words_by_sources(self, words, n, data):
        values = data.draw(st.lists(uint64_words, min_size=words * n, max_size=words * n))
        x = np.array(values, dtype=np.uint64).reshape(words, n)
        before = x.copy()
        counts = _popcount(x)
        assert counts.shape == (words, n)
        assert counts.tolist() == [[bin(w).count("1") for w in row] for row in x.tolist()]
        assert np.array_equal(x, before)  # the input is left as it was

    def test_extremes_and_single_bits(self):
        values = [0, 2**64 - 1] + [1 << i for i in range(64)]
        counts = _popcount(np.array(values, dtype=np.uint64))
        assert counts.tolist() == [0, 64] + [1] * 64


class TestDiameterAndDegrees:
    @pytest.mark.parametrize(
        "g,expected",
        [(complete(5), 1), (path(5), 4), (star(4), 2)],
        ids=["K5", "P5", "K1_4"],
    )
    def test_diameter(self, g, expected):
        diameter = index_report(g).diameter
        assert diameter == expected
        assert type(diameter) is int

    @given(connected_graphs(max_n=7))
    @settings(max_examples=30)
    def test_diameter_is_max_entry(self, g):
        assert index_report(g).diameter == all_pairs_distances(g).max()

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
