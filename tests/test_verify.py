import json

import pytest

from mycielski.cli import main
from mycielski.errors import (
    DiameterNotTwoError,
    DisconnectedError,
    InvalidParameterError,
    TooSmallError,
)
from mycielski.generators import (
    build_family,
    complete,
    connected_classes,
    cycle,
    enumerate_connected,
    erdos_renyi_connected,
    path,
    petersen,
    star,
)
from mycielski.graph import Graph
from mycielski.transform import mu_degrees, mu_distance_matrix
from mycielski.verify import CLAIM_IDS, verify_corpus, verify_graph


class TestSingleGraphChecks:
    def test_obs1_counts_vertices(self):
        out = verify_graph("obs1", cycle(4))
        assert out.passed and out.checked == 9
        assert verify_graph("obs1", petersen()).checked == 21
        assert verify_graph("obs1", complete(2)).checked == 5
        # degrees need no distances, so a disconnected graph without an
        # isolated vertex is checked too
        assert verify_graph("obs1", Graph(4, [(0, 1), (2, 3)])).checked == 9

    @pytest.mark.parametrize("g", [path(5), path(6), complete(3)], ids=["P5", "P6", "K3"])
    def test_obs2(self, g):
        out = verify_graph("obs2", g)
        assert out.passed
        assert out.checked == (2 * g.n + 1) ** 2

    @pytest.mark.parametrize("g", [star(4), cycle(4), cycle(5)], ids=["K1_4", "C4", "C5"])
    def test_lemma3(self, g):
        assert verify_graph("lemma3", g).passed

    def test_lemma3_needs_diameter_two(self):
        with pytest.raises(DiameterNotTwoError):
            verify_graph("lemma3", path(4))
        with pytest.raises(DiameterNotTwoError):
            verify_graph("lemma3", complete(4))

    @pytest.mark.parametrize("g", [cycle(5), cycle(4)], ids=["C5", "C4"])
    def test_theorem_dd(self, g):
        assert verify_graph("thm_dd", g).passed

    def test_theorem_dd_strict_rejects_k2(self):
        with pytest.raises(DiameterNotTwoError):
            verify_graph("thm_dd", complete(2))

    def test_theorem_dd_relaxed_on_k2_matches(self):
        out = verify_graph("thm_dd", complete(2), relax_diameter=True)
        assert out.passed

    def test_theorem_dd_relaxed_records_divergence(self):
        out = verify_graph("thm_dd", path(5), relax_diameter=True)
        assert not out.passed
        failure = out.failures[0]
        assert failure.expected == 614  # brute force
        assert failure.actual == 604  # polynomial outside its hypothesis
        assert failure.edges == path(5).edges

    @pytest.mark.parametrize("g", [cycle(4), star(4), complete(2)], ids=["C4", "K1_4", "K2"])
    def test_randic_bounds(self, g):
        assert verify_graph("randic_bounds", g).passed

    @pytest.mark.parametrize("claim", ["randic_bounds", "randic_equality"])
    def test_a_nan_randic_fails_both_randic_claims(self, monkeypatch, claim):
        monkeypatch.setattr("mycielski.verify.randic", lambda g: float("nan"))
        assert not verify_graph(claim, cycle(5)).passed

    def test_randic_checked_counts_regular_equalities(self):
        assert verify_graph("randic_bounds", cycle(4)).checked == 2
        assert verify_graph("randic_equality", cycle(4)).checked == 2
        assert verify_graph("randic_bounds", star(4)).checked == 2
        with pytest.raises(InvalidParameterError):
            verify_graph("randic_equality", star(4))

    @pytest.mark.parametrize(
        "claim,g,error",
        [
            ("obs1", Graph(3, [(0, 1)]), TooSmallError),
            ("obs1", Graph(1), TooSmallError),
            ("obs2", Graph(4, [(0, 1), (2, 3)]), DisconnectedError),
            ("obs2", Graph(3, [(0, 1)]), DisconnectedError),
            ("lemma3", Graph(4, [(0, 1), (2, 3)]), DisconnectedError),
            ("lemma3", path(4), DiameterNotTwoError),
            ("thm_dd", Graph(4, [(0, 1), (2, 3)]), DisconnectedError),
            ("randic_bounds", Graph(3, [(0, 1)]), TooSmallError),
            ("randic_equality", Graph(3), TooSmallError),
        ],
        ids=["obs1-isolated", "obs1-K1", "obs2-2K2", "obs2-isolated", "lemma3-2K2",
             "lemma3-P4", "thm_dd-2K2", "randic-isolated", "equality-edgeless"],
    )
    def test_outside_hypothesis_raises(self, claim, g, error):
        # relax_diameter widens thm_dd's hypothesis alone, and only to connected graphs
        with pytest.raises(error):
            verify_graph(claim, g, relax_diameter=True)

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            verify_graph("obs3", cycle(4))


class TestCorpus:
    def test_thm_dd_exhaustive_n5(self):
        (out,) = verify_corpus(["thm_dd"], enumerate_connected(5))
        assert out.passed
        assert out.checked + out.skipped == 728

    def test_obs2_exhaustive_n4(self):
        (out,) = verify_corpus(["obs2"], enumerate_connected(4))
        assert out.passed
        assert out.skipped == 0
        assert out.checked == 38 * 81

    def test_randic_bounds_random_corpus(self):
        corpus = (erdos_renyi_connected(10, 0.3, seed) for seed in range(100))
        (out,) = verify_corpus(["randic_bounds"], corpus)
        assert out.passed
        assert out.checked == 200

    def test_equality_claim_skips_irregular(self):
        outs = verify_corpus(["randic_equality"], [cycle(5), star(3), petersen()])
        (out,) = outs
        assert out.passed
        assert out.skipped == 1

    def test_lemma3_skips_wrong_diameter(self):
        (out,) = verify_corpus(["lemma3"], [path(4), cycle(4), complete(3)])
        assert out.checked == 1  # only C4 has diameter exactly 2
        assert out.skipped == 2

    def test_claims_run_in_canonical_order(self):
        outs = verify_corpus(["thm_dd", "obs1"], [cycle(4)])
        assert [o.claim for o in outs] == ["obs1", "thm_dd"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            verify_corpus(["obs3"], [cycle(4)])

    def test_relaxed_failures_sorted_and_replayable(self):
        corpus = [path(6), path(5), cycle(7)]
        (out,) = verify_corpus(["thm_dd"], corpus, relax_diameter=True)
        assert out.checked == 3 and not out.passed
        sorted_edges = [f.edges for f in out.failures]
        assert sorted_edges == sorted(sorted_edges)
        for failure in out.failures:
            n = max(v for e in failure.edges for v in e) + 1
            replay = verify_graph("thm_dd", Graph(n, failure.edges), relax_diameter=True)
            assert replay.failures[0].expected == failure.expected
            assert replay.failures[0].actual == failure.actual

    def test_disconnected_graphs_are_skipped_not_fatal(self):
        isolated = Graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
        outs = verify_corpus(list(CLAIM_IDS), [isolated, cycle(4)])
        by_claim = {o.claim: o for o in outs}
        assert all(o.passed for o in outs)
        # an isolated vertex makes mu disconnected, so even obs1 skips it
        assert by_claim["obs1"].skipped == 1
        assert by_claim["obs2"].skipped == 1
        assert by_claim["lemma3"].skipped == 1
        assert by_claim["randic_bounds"].skipped == 1  # minimum degree 0

    def test_degree_only_claims_accept_disconnected_positive_degrees(self):
        # two disjoint edges: the bounds are degree-based and still apply
        two_edges = Graph(4, [(0, 1), (2, 3)])
        (out,) = verify_corpus(["randic_bounds"], [two_edges])
        assert out.passed and out.skipped == 0

    def test_outcome_serialization(self):
        (out,) = verify_corpus(["thm_dd"], [path(5)], relax_diameter=True)
        record = out.as_dict(include_timing=False)
        assert record["claim"] == "thm_dd"
        assert record["elapsed_ms"] == 0
        assert record["failures"][0]["edges"] == [[0, 1], [1, 2], [2, 3], [3, 4]]
        assert record["failures"][0]["expected"] == 614
        timed = out.as_dict(include_timing=True)
        assert timed["elapsed_ms"] > 0


def _record_calls(monkeypatch, name):
    """Wrap ``mycielski.verify.<name>`` so each call appends (argument, result)."""
    import mycielski.verify as verify

    original, calls = getattr(verify, name), []

    def recorded(g):
        result = original(g)
        calls.append((g, result))
        return result

    monkeypatch.setattr(verify, name, recorded)
    return calls


class TestClasses:
    """One check per isomorphism class gives the labeled corpus's report."""

    @pytest.mark.parametrize("relax", [False, True], ids=["strict", "relaxed"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_class_path_matches_the_labeled_path(self, n, relax):
        labeled = verify_corpus(CLAIM_IDS, enumerate_connected(n), relax_diameter=relax)
        by_class = verify_corpus(CLAIM_IDS, connected_classes(n), relax_diameter=relax)
        assert [o.as_dict(include_timing=False) for o in by_class] == [
            o.as_dict(include_timing=False) for o in labeled
        ]
        # the relaxed thm_dd fails on some classes, and all their members are listed
        failures = sum(len(o.failures) for o in labeled)
        assert failures == {(5, True): 360, (4, True): 12}.get((n, relax), 0)

    @pytest.mark.parametrize("relax", [False, True], ids=["strict", "relaxed"])
    def test_a_bare_graph_is_a_class_of_one(self, relax):
        graphs = [g for g, _ in connected_classes(4)]
        bare = verify_corpus(CLAIM_IDS, graphs, relax_diameter=relax)
        singletons = verify_corpus(CLAIM_IDS, [(g, (g,)) for g in graphs], relax_diameter=relax)
        assert [o.as_dict(include_timing=False) for o in bare] == [
            o.as_dict(include_timing=False) for o in singletons
        ]

    def test_a_mixed_corpus_counts_each_class_per_member_and_a_graph_once(self):
        classes = connected_classes(4)
        mixed = verify_corpus(CLAIM_IDS, [*classes, path(5)])
        apart = zip(verify_corpus(CLAIM_IDS, classes), verify_corpus(CLAIM_IDS, [path(5)]))
        assert [(o.checked, o.skipped) for o in mixed] == [
            (a.checked + b.checked, a.skipped + b.skipped) for a, b in apart
        ]

    def test_members_are_built_only_for_a_failing_check(self):
        class Counted:
            def __init__(self, members):
                self.members, self.reads = members, 0

            def __len__(self):
                return len(self.members)

            def __iter__(self):
                self.reads += 1
                return iter(self.members)

        classes = [(g, Counted(members)) for g, members in connected_classes(4)]
        verify_corpus(CLAIM_IDS, classes)
        assert [c.reads for _, c in classes] == [0] * 6
        (out,) = verify_corpus(["thm_dd"], classes, relax_diameter=True)
        failing = {f.edges for f in out.failures}
        assert [c.reads for _, c in classes] == [
            int(any(h.edges in failing for h in c.members)) for _, c in classes
        ]


class TestSharedWork:
    """Each graph builds mu(G) and runs BFS on G and on the built mu at most once."""

    def test_all_claims_share_one_mu_and_one_bfs_each_per_graph(self, monkeypatch):
        built = _record_calls(monkeypatch, "mycielskian")
        bfs = _record_calls(monkeypatch, "all_pairs_distances")
        corpus = list(enumerate_connected(5))
        c = len(corpus)
        assert all(o.passed for o in verify_corpus(CLAIM_IDS, corpus))
        assert len(built) == c and len(bfs) == 2 * c
        on_g = [g for g, _ in bfs if g.n == 5]
        on_mu = [g for g, _ in bfs if g.n == 11]
        assert on_g == corpus
        assert [id(g) for g in on_mu] == [id(layout.mu) for _, layout in built]

    @pytest.mark.parametrize(
        "run",
        [
            lambda g: verify_corpus(["thm_dd"], [g], relax_diameter=True),
            lambda g: [verify_graph("thm_dd", g, relax_diameter=True)],
        ],
        ids=["verify_corpus", "verify_graph"],
    )
    def test_a_failing_graph_reuses_its_own_mu_and_bfs(self, monkeypatch, run):
        built = _record_calls(monkeypatch, "mycielskian")
        bfs = _record_calls(monkeypatch, "all_pairs_distances")
        (out,) = run(path(5))
        assert len(out.failures) == 1
        assert len(built) == 1 and len(bfs) == 2

    def test_only_the_other_members_of_a_failing_class_get_their_own_mu(self, monkeypatch):
        classes = connected_classes(5)
        built = _record_calls(monkeypatch, "mycielskian")
        bfs = _record_calls(monkeypatch, "all_pairs_distances")
        outcomes = verify_corpus(CLAIM_IDS, classes, relax_diameter=True)
        failing = {f.edges for o in outcomes for f in o.failures}
        others = sum(len(m) - 1 for _, m in classes if any(h.edges in failing for h in m))
        assert len(built) == len(classes) + others == 375
        assert len(bfs) == 2 * len(built)

    def test_lemma3_alone_builds_no_mu(self, monkeypatch):
        built = _record_calls(monkeypatch, "mycielskian")
        bfs = _record_calls(monkeypatch, "all_pairs_distances")
        corpus = list(enumerate_connected(5))
        (out,) = verify_corpus(["lemma3"], corpus)
        assert out.passed and out.checked + out.skipped == len(corpus)
        assert built == [] and [g for g, _ in bfs] == corpus

    @pytest.mark.parametrize(
        "claim,g,error,bfs_runs",
        [
            ("obs1", Graph(3, [(0, 1)]), TooSmallError, 0),
            ("obs2", Graph(4, [(0, 1), (2, 3)]), DisconnectedError, 0),
            ("thm_dd", path(4), DiameterNotTwoError, 1),
            ("randic_equality", star(3), InvalidParameterError, 0),
        ],
        ids=["obs1", "obs2", "thm_dd", "randic_equality"],
    )
    def test_strict_mode_raises_before_the_shared_work(
        self, monkeypatch, claim, g, error, bfs_runs
    ):
        built = _record_calls(monkeypatch, "mycielskian")
        bfs = _record_calls(monkeypatch, "all_pairs_distances")
        with pytest.raises(error):
            verify_graph(claim, g)
        # only the diameter needs G's distances
        assert built == [] and [h for h, _ in bfs] == [g] * bfs_runs


def _off_by_one_root_degree(g):
    degrees = list(mu_degrees(g))
    degrees[2 * g.n] += 1
    return tuple(degrees)


def _off_by_one_root_distance(dg):
    d = mu_distance_matrix(dg).copy()
    d[0, 2 * len(dg)] += 1
    return d


class TestFailureReports:
    """A wrong closed form must surface as a replayable, serialisable failure."""

    def test_obs1_reports_corrupted_degree(self, monkeypatch):
        monkeypatch.setattr("mycielski.verify.mu_degrees", _off_by_one_root_degree)
        (out,) = verify_corpus(["obs1"], [path(3), cycle(4)])
        assert not out.passed
        assert out.checked == 7 + 9
        assert [f.edges for f in out.failures] == [cycle(4).edges, path(3).edges]
        failure = out.failures[1]
        assert failure.expected == [2, 4, 2, 2, 3, 2, 3]
        assert failure.actual == [2, 4, 2, 2, 3, 2, 4]
        record = json.loads(json.dumps(out.as_dict(include_timing=False)))
        assert record["failures"][1] == {
            "edges": [[0, 1], [1, 2]],
            "expected": [2, 4, 2, 2, 3, 2, 3],
            "actual": [2, 4, 2, 2, 3, 2, 4],
        }
        assert all(type(v) is int for v in out.failures[0].actual)

    def test_obs2_reports_corrupted_entry(self, monkeypatch):
        monkeypatch.setattr("mycielski.verify.mu_distance_matrix", _off_by_one_root_distance)
        (out,) = verify_corpus(["obs2"], [cycle(4)])
        assert not out.passed
        assert out.checked == 81
        (failure,) = out.failures
        assert failure.edges == cycle(4).edges
        assert failure.expected == [[0, 8, 2]]  # BFS on the built mu
        assert failure.actual == [[0, 8, 3]]
        assert all(type(x) is int for row in failure.expected + failure.actual for x in row)
        record = json.loads(json.dumps(out.as_dict(include_timing=False)))
        assert record["failures"][0]["actual"] == [[0, 8, 3]]

    def test_cli_exits_4_on_corrupted_distances(self, monkeypatch, capsys):
        monkeypatch.setattr("mycielski.verify.mu_distance_matrix", _off_by_one_root_distance)
        assert main(["verify", "--claims", "obs2", "--family", "cycle:4"]) == 4
        (record,) = json.loads(capsys.readouterr().out)
        assert record["failures"][0]["expected"] == [[0, 8, 2]]
        monkeypatch.undo()
        assert main(["verify", "--claims", "obs2", "--family", "cycle:4"]) == 0

    @pytest.mark.parametrize(
        "claim,name,fake,spec,checked,expected,actual",
        [
            # the brute-force sum is the oracle, so it lands in expected
            ("lemma3", "_degree_distance", lambda f: lambda g, rows: f(g, rows) + 1,
             "petersen", 1, 181, 180),
            # brute force on the built mu is the oracle, the closed form the actual
            ("thm_dd", "dd_mycielskian_closed", lambda f: lambda *a: f(*a) + 1,
             "petersen", 1, 3780, 3781),
            # the bounds of G are expected, R(mu) is the actual
            ("randic_bounds", "randic", lambda f: lambda g: 1e9,
             "cycle:5", 2, {"lower": 5.42774579468, "upper": 5.42774579468}, 1e9),
            ("randic_equality", "randic", lambda f: lambda g: 1e9,
             "cycle:5", 2, {"lower": 5.42774579468, "upper": 5.42774579468}, 1e9),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_scalar_claims_report_replayable_failures(
        self, monkeypatch, capsys, claim, name, fake, spec, checked, expected, actual
    ):
        import mycielski.verify as verify

        monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
        g = build_family(spec)
        (out,) = verify_corpus([claim], [g])
        assert out.checked == checked
        (failure,) = out.failures
        assert failure.edges == g.edges
        assert type(failure.actual) is type(actual)
        if isinstance(expected, dict):
            assert set(failure.expected) == {"lower", "upper"}
            assert all(type(v) is float for v in failure.expected.values())
        else:
            assert type(failure.expected) is int and failure.expected == expected
            assert failure.actual == actual
        record = {
            "edges": [list(e) for e in g.edges],
            "expected": expected,
            "actual": actual,
        }
        as_json = json.loads(json.dumps(out.as_dict(include_timing=False)))
        assert as_json["failures"] == [record]
        assert main(["verify", "--claims", claim, "--family", spec]) == 4
        (report,) = json.loads(capsys.readouterr().out)
        assert report["checked"] == checked
        assert report["failures"] == [record]

    def test_diameter_errors_carry_plain_ints(self):
        with pytest.raises(DiameterNotTwoError) as excinfo:
            verify_graph("lemma3", path(4))
        assert type(excinfo.value.diameter) is int and excinfo.value.diameter == 3
        with pytest.raises(DiameterNotTwoError) as excinfo:
            verify_graph("thm_dd", path(4))
        assert type(excinfo.value.diameter) is int and excinfo.value.diameter == 3
