import math

import pytest
from hypothesis import given, settings

from mycielski.errors import (
    DiameterNotTwoError,
    DisconnectedError,
    InvalidParameterError,
    NoEdgesError,
)
from mycielski.generators import (
    build_family,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    path,
    petersen,
    star,
)
from mycielski.graph import Graph, all_pairs_distances
from mycielski.indices import (
    dd_mycielskian_closed,
    degree_distance,
    distance2_degree_sum,
    first_zagreb,
    index_report,
    randic,
    randic_bounds,
    wiener,
)
from mycielski.transform import mycielskian
from mycielski.verify import verify_graph

from conftest import bfs_distances, connected_graphs


class TestWiener:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(3), 4), (complete(4), 6), (cycle(6), 27)],
        ids=["P3", "K4", "C6"],
    )
    def test_values(self, g, expected):
        assert wiener(g) == expected

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            wiener(Graph(3, [(0, 1)]))


class TestZagreb:
    @pytest.mark.parametrize(
        "g,expected",
        [(complete(3), 12), (star(4), 20), (path(3), 6)],
        ids=["K3", "K1_4", "P3"],
    )
    def test_values(self, g, expected):
        assert first_zagreb(g) == expected

    @given(connected_graphs())
    @settings(max_examples=50)
    def test_edge_form_equals_square_form(self, g):
        assert first_zagreb(g) == sum(g.degrees[u] + g.degrees[v] for u, v in g.edges)


class TestRandic:
    def test_regular_is_half_order(self):
        assert randic(petersen()) == pytest.approx(5.0, abs=1e-9)

    def test_path_four(self):
        assert randic(path(4)) == pytest.approx(math.sqrt(2) + 0.5, abs=1e-9)

    def test_star(self):
        assert randic(star(4)) == pytest.approx(2.0, abs=1e-9)

    def test_no_edges(self):
        with pytest.raises(NoEdgesError):
            randic(Graph(2))

    def test_deterministic_accumulation(self):
        g = cycle(9)
        assert randic(g) == randic(g)

    def test_bits_equal_the_reference_loop(self):
        # the edge loop as first written; randic may bind names locally but
        # must add the same terms in the same order, never by sum()
        def reference(g):
            total = 0.0
            for u, v in g.edges:
                total += 1.0 / math.sqrt(g.degrees[u] * g.degrees[v])
            return total

        graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
        graphs += [path(7), cycle(9), complete(6), star(5), complete_bipartite(3, 4), petersen()]
        graphs += [build_family("gnp:300,0.3,7"), build_family("gnp:1000,0.02,7")]
        wrong = [g for g in graphs if randic(g).hex() != reference(g).hex()]
        assert (len(graphs), wrong) == (771 + 6 + 2, [])


class TestDegreeDistance:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(3), 10), (cycle(4), 32), (star(4), 44)],
        ids=["P3", "C4", "K1_4"],
    )
    def test_values(self, g, expected):
        assert degree_distance(g) == expected

    @given(connected_graphs())
    @settings(max_examples=40)
    def test_pair_loop_and_transmission_forms_agree(self, g):
        d = all_pairs_distances(g)
        pair_loop = sum(
            int(d[u, v]) * (g.degrees[u] + g.degrees[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        transmission = sum(
            g.degrees[v] * int(d[v].sum()) for v in range(g.n)
        )
        assert degree_distance(g) == pair_loop == transmission


class TestDistance2DegreeSum:
    @pytest.mark.parametrize(
        "g,expected",
        [(star(4), 12), (cycle(4), 8), (complete(4), 0), (cycle(5), 20)],
        ids=["K1_4", "C4", "K4", "C5"],
    )
    def test_values(self, g, expected):
        assert distance2_degree_sum(g) == expected

    @pytest.mark.parametrize(
        "g", [star(4), cycle(4), complete(4), cycle(5), petersen()],
        ids=["K1_4", "C4", "K4", "C5", "Petersen"],
    )
    def test_identity_when_diameter_two_or_less(self, g):
        assert distance2_degree_sum(g) == 2 * (g.n - 1) * g.m - first_zagreb(g)


class TestRowSumForms:
    @given(connected_graphs())
    @settings(max_examples=50)
    def test_equal_definitional_pair_loops(self, g):
        d = bfs_distances(g)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        weight = {(u, v): g.degrees[u] + g.degrees[v] for u, v in pairs}
        assert degree_distance(g) == sum(int(d[p]) * weight[p] for p in pairs)
        assert distance2_degree_sum(g) == sum(weight[p] for p in pairs if d[p] == 2)


def closed_form(g):
    return dd_mycielskian_closed(g.n, g.m, first_zagreb(g), degree_distance(g))


class TestClosedFormDegreeDistance:
    # values reproduced by brute force (BFS on the constructed Mycielskian)
    # before being pinned here
    @pytest.mark.parametrize(
        "g,expected",
        [(cycle(4), 396), (cycle(5), 650), (star(4), 534), (petersen(), 3780)],
        ids=["C4", "C5", "K1_4", "Petersen"],
    )
    def test_pinned_regressions(self, g, expected):
        assert closed_form(g) == expected
        assert degree_distance(mycielskian(g).mu) == expected

    def test_wrong_diameter_rejected_with_payload(self):
        # the diameter-2 hypothesis lives in verify's claim table
        with pytest.raises(DiameterNotTwoError) as info:
            verify_graph("thm_dd", path(4))
        assert info.value.diameter == 3
        with pytest.raises(DiameterNotTwoError) as info:
            verify_graph("thm_dd", complete(4))
        assert info.value.diameter == 1

    def test_unchecked_mode_on_k2(self):
        # diameter 1, yet the polynomial happens to match mu(K2) = C5
        value = closed_form(complete(2))
        assert value == 60 == degree_distance(mycielskian(complete(2)).mu)

    def test_unchecked_mode_can_diverge(self):
        # diameter 4: polynomial gives 604, brute force 614
        g = path(5)
        assert closed_form(g) == 604
        assert degree_distance(mycielskian(g).mu) == 614

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            verify_graph("thm_dd", Graph(3, [(0, 1)]))


class TestRandicBounds:
    def test_k2_equality(self):
        b = randic_bounds(complete(2))
        assert b.is_regular
        assert b.lower == pytest.approx(2.5, abs=1e-9)
        assert b.upper == pytest.approx(2.5, abs=1e-9)
        assert randic(mycielskian(complete(2)).mu) == pytest.approx(2.5, abs=1e-9)

    def test_c4_equality(self):
        b = randic_bounds(cycle(4))
        expected = 1.0 + 2.0 * math.sqrt(3.0)
        assert b.lower == pytest.approx(expected, abs=1e-9)
        assert b.upper == pytest.approx(expected, abs=1e-9)
        assert randic(mycielskian(cycle(4)).mu) == pytest.approx(expected, abs=1e-9)

    def test_star_strict_sandwich(self):
        g = star(4)
        b = randic_bounds(g)
        assert not b.is_regular
        assert b.lower == pytest.approx(3.264911064, abs=1e-8)
        assert b.upper == pytest.approx(6.581138830, abs=1e-8)
        r_mu = randic(mycielskian(g).mu)
        assert b.lower + 1e-6 < r_mu < b.upper - 1e-6

    def test_no_edges(self):
        with pytest.raises(NoEdgesError):
            randic_bounds(Graph(2))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(InvalidParameterError):
            randic_bounds(Graph(3, [(0, 1)]))

    def test_given_randic_index_gives_identical_bounds(self):
        graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
        specs = ["path:6", "cycle:7", "complete:5", "star:5", "kbipartite:3,4", "petersen",
                 "gnp:300,0.3,7"]
        graphs += [build_family(spec) for spec in specs]
        for g in graphs:
            given, computed = randic_bounds(g, randic(g)), randic_bounds(g)
            assert given.lower == computed.lower  # exact: the same arithmetic
            assert given.upper == computed.upper
            assert given.is_regular == computed.is_regular

    @given(connected_graphs())
    @settings(max_examples=50)
    def test_sandwich_holds(self, g):
        b = randic_bounds(g)
        r_mu = randic(mycielskian(g).mu)
        assert b.lower - 1e-9 <= r_mu <= b.upper + 1e-9
        if b.is_regular:
            assert b.lower == b.upper  # identical arithmetic on both sides
        else:
            assert b.lower < b.upper


class TestExactOrderGuard:
    # a small stand-in limit; a real order past 55,000 would allocate gigabytes
    @pytest.mark.parametrize(
        "fn",
        [all_pairs_distances, wiener, degree_distance, distance2_degree_sum, index_report],
        ids=lambda fn: fn.__name__,
    )
    def test_orders_past_the_limit_are_refused(self, fn, monkeypatch):
        monkeypatch.setattr("mycielski.graph._EXACT_ORDER_LIMIT", 10)
        fn(path(10))
        with pytest.raises(InvalidParameterError, match="exact int64 limit of 10"):
            fn(path(11))


class TestIndexReport:
    def test_p3(self):
        r = index_report(path(3))
        assert r.as_dict() == {
            "n": 3, "m": 2, "diameter": 2, "wiener": 4, "zagreb_m1": 6,
            "randic": pytest.approx(1.414213562, abs=1e-9), "degree_distance": 10,
        }

    def test_k2(self):
        r = index_report(complete(2))
        assert (r.n, r.m, r.diameter, r.wiener, r.zagreb_m1, r.degree_distance) == (
            2, 1, 1, 1, 2, 2,
        )
        assert r.randic == pytest.approx(1.0, abs=1e-9)

    def test_c5(self):
        r = index_report(cycle(5))
        assert (r.wiener, r.zagreb_m1, r.degree_distance) == (15, 20, 60)
        assert r.randic == pytest.approx(2.5, abs=1e-9)

    @given(connected_graphs(max_n=7))
    @settings(max_examples=25)
    def test_matches_individual_operations(self, g):
        r = index_report(g)
        assert r.wiener == wiener(g)
        assert r.zagreb_m1 == first_zagreb(g)
        assert r.degree_distance == degree_distance(g)
        assert r.randic == randic(g)


class TestRegularGraphIdentities:
    @pytest.mark.parametrize(
        "g,k",
        [(cycle(5), 2), (cycle(8), 2), (complete(6), 5), (petersen(), 3)],
        ids=["C5", "C8", "K6", "Petersen"],
    )
    def test_dd_and_randic_closed_forms(self, g, k):
        assert degree_distance(g) == 2 * k * wiener(g)
        assert randic(g) == pytest.approx(g.n / 2, abs=1e-9)
