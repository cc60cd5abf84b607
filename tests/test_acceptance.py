"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every closed-form
value asserted here was first reproduced by the brute-force oracle (BFS
distances on the explicitly constructed Mycielskian) before being pinned.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

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
from mycielski.graph import all_pairs_distances, diameter
from mycielski.indices import (
    dd_mycielskian_closed,
    degree_distance,
    first_zagreb,
    randic,
    randic_bounds,
    wiener,
)
from mycielski.transform import mycielskian
from mycielski.verify import CLAIM_IDS, verify_corpus

EXPECTED = Path(__file__).resolve().parent / "expected"


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


def small_corpus(orders):
    for n in orders:
        yield from enumerate_connected(n)


@pytest.fixture(scope="module")
def exhaustive_n6_results():
    # one streaming pass of every claim over all 26704 labeled graphs serves
    # criteria 2 and 3 and the labeled n=6 report
    outcomes = verify_corpus(CLAIM_IDS, enumerate_connected(6))
    return {o.claim: o for o in outcomes}


def test_criterion_1_observation_formulas_exhaustive():
    with criterion("1 degree+distance formulas, all connected graphs n=2..5"):
        seen = 0

        def counted():
            nonlocal seen
            for g in small_corpus(range(2, 6)):
                seen += 1
                yield g

        outcomes = verify_corpus(["obs1", "obs2"], counted())
        assert seen == 1 + 4 + 38 + 728
        by_claim = {o.claim: o for o in outcomes}
        assert by_claim["obs1"].failures == []
        assert by_claim["obs1"].skipped == 0
        assert by_claim["obs1"].checked == 8383  # sum of 2n+1 over the corpus
        assert by_claim["obs2"].failures == []
        assert by_claim["obs2"].skipped == 0
        assert by_claim["obs2"].checked == 91387  # sum of (2n+1)^2


def test_criterion_2_degree_distance_closed_form_exhaustive(exhaustive_n6_results):
    with criterion("2 DD closed form vs brute force, diameter-2 graphs n=2..6"):
        (out,) = verify_corpus(["thm_dd"], small_corpus(range(2, 6)))
        assert out.failures == []
        assert out.checked + out.skipped == 771
        assert out.checked == 395  # diameter-2 subset of n=2..5 (0+3+25+367)
        extended = exhaustive_n6_results["thm_dd"]
        assert extended.failures == []
        assert extended.checked + extended.skipped == 26704
        assert extended.checked == 10923  # diameter-2 subset of n=6


def test_criterion_3_distance2_identity_exhaustive(exhaustive_n6_results):
    with criterion("3 distance-2 degree-sum identity, same diameter-2 corpus"):
        (out,) = verify_corpus(["lemma3"], small_corpus(range(2, 6)))
        assert out.failures == []
        assert out.checked == 395
        extended = exhaustive_n6_results["lemma3"]
        assert extended.failures == []
        assert extended.checked == 10923


def test_labeled_n6_report_matches_the_pinned_class_report(exhaustive_n6_results):
    # verify --enumerate 6 checks one labeling per isomorphism class; every
    # labeling must give the same report, byte for byte
    with criterion("labeled n=6 report equals the pinned verify --enumerate 6 report"):
        outcomes = exhaustive_n6_results.values()
        report = json.dumps([o.as_dict(include_timing=False) for o in outcomes], indent=2) + "\n"
        assert report.encode() == (EXPECTED / "verify_enumerate_6.json").read_bytes()


def test_criterion_4_named_case_regressions():
    with criterion("4 pinned DD(mu) regressions"):
        for g, expected in [
            (cycle(4), 396),
            (cycle(5), 650),
            (star(4), 534),
            (petersen(), 3780),
        ]:
            assert degree_distance(mycielskian(g).mu) == expected  # brute force
            dd = degree_distance(g)
            assert dd_mycielskian_closed(g.n, g.m, first_zagreb(g), dd) == expected


def test_criterion_5_randic_bounds_corpus():
    with criterion("5 Randic bounds: sandwich, equality, strict gaps"):
        families = (
            [cycle(n) for n in range(3, 13)]
            + [complete(n) for n in range(2, 7)]
            + [petersen()]
            + [star(k) for k in range(2, 7)]
            + [path(n) for n in range(3, 11)]
            + [complete_bipartite(2, 3), complete_bipartite(3, 3)]
        )
        corpus = [erdos_renyi_connected(12, 0.4, seed) for seed in range(1000)]
        for g in corpus + families:
            bounds = randic_bounds(g)
            r_mu = randic(mycielskian(g).mu)
            assert bounds.lower - 1e-9 <= r_mu <= bounds.upper + 1e-9

        regular = [cycle(n) for n in range(3, 13)] + [complete(n) for n in range(2, 7)] + [petersen()]
        for g in regular:
            bounds = randic_bounds(g)
            r_mu = randic(mycielskian(g).mu)
            assert bounds.is_regular
            assert abs(r_mu - bounds.lower) <= 1e-9
            assert abs(r_mu - bounds.upper) <= 1e-9

        lopsided = [star(k) for k in range(2, 7)] + [path(n) for n in range(3, 11)]
        for g in lopsided:
            bounds = randic_bounds(g)
            r_mu = randic(mycielskian(g).mu)
            assert r_mu - bounds.lower > 1e-6
            assert bounds.upper - r_mu > 1e-6


def test_criterion_6_smallest_mycielskian_smoke():
    with criterion("6 mu(K2) is the 5-cycle"):
        mu = mycielskian(complete(2)).mu
        assert (mu.n, mu.m) == (5, 5)
        assert set(mu.degrees) == {2}
        assert diameter(mu) == 2
        assert degree_distance(mu) == 60
        assert abs(randic(mu) - 2.5) <= 1e-9


def test_criterion_7_family_identities():
    with criterion("7 closed-form family identities up to n=50"):
        for n in range(2, 51):
            assert wiener(path(n)) == n * (n * n - 1) // 6
        regular = (
            [(cycle(n), 2) for n in range(3, 51)]
            + [(complete(n), n - 1) for n in range(2, 51)]
            + [(petersen(), 3)]
        )
        corpus = [g for g, _ in regular] + [path(n) for n in range(2, 51)]
        for g, k in regular:
            assert abs(randic(g) - g.n / 2) <= 1e-9
            assert degree_distance(g) == 2 * k * wiener(g)
        for g in corpus:
            edge_form = sum(g.degrees[u] + g.degrees[v] for u, v in g.edges)
            assert first_zagreb(g) == edge_form == sum(d * d for d in g.degrees)


def test_criterion_8_cli_determinism():
    with criterion("8 byte-identical CLI output across reruns"):
        commands = [
            ["compute", "--family", "cycle:5", "--format", "json"],
            ["compute", "--family", "gnp:12,0.4,42", "--format", "csv"],
            ["mycielskian", "--family", "petersen"],
            ["verify", "--enumerate", "4"],
            ["verify", "--claims", "randic_bounds,randic_equality",
             "--gnp", "10,0.3,0", "--trials", "20"],
            ["enumerate", "--enumerate", "4"],
        ]
        for command in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "mycielski", *command],
                    capture_output=True,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout
