#!/usr/bin/env python3
"""The closed form for the degree distance of a Mycielskian.

For a connected graph with diameter exactly 2 the degree distance of
mu(G) is a polynomial in base-graph invariants:

    DD(mu) = 4*DD(G) - M1(G) + (7n - 1)n + (8n + 12)m

The identity needs diameter 2: beyond it, original-original distances in
mu get capped at values the shortest paths in G no longer predict.
``dd_mycielskian_closed`` evaluates the bare polynomial from the four
numbers, here taken from ``index_report``, and checks no diameter; the
caller decides whether it applies. This script checks the formula
exhaustively on small graphs, then probes what happens outside the
hypothesis.
"""

from collections import Counter

from mycielski import (
    cycle,
    dd_mycielskian_closed,
    enumerate_connected,
    index_report,
    mycielskian,
    petersen,
    verify_corpus,
)


def closed_form(report):
    return dd_mycielskian_closed(report.n, report.m, report.zagreb_m1, report.degree_distance)


print("Named diameter-2 graphs, closed form vs brute force over BFS on mu:")
for name, g in [("C4", cycle(4)), ("C5", cycle(5)), ("Petersen", petersen())]:
    closed = closed_form(index_report(g))
    brute = index_report(mycielskian(g).mu).degree_distance
    print(f"  {name:<9} closed={closed:<5} brute={brute:<5} match={closed == brute}")

print()
print("Exhaustive check over every labeled connected graph on 5 vertices:")
(outcome,) = verify_corpus(["thm_dd"], enumerate_connected(5))
print(f"  diameter-2 graphs checked: {outcome.checked}, "
      f"others skipped: {outcome.skipped}, failures: {len(outcome.failures)}")

print()
print("Outside the hypothesis the polynomial is not a theorem. Evaluating it")
print("anyway on every connected 5-vertex graph, grouped by diameter:")
tally = Counter()
for g in enumerate_connected(5):
    report = index_report(g)
    brute = index_report(mycielskian(g).mu).degree_distance
    tally[(report.diameter, closed_form(report) == brute)] += 1
for diam in sorted({d for d, _ in tally}):
    hits, misses = tally[(diam, True)], tally[(diam, False)]
    print(f"  diameter {diam}: formula matched {hits:>3}, diverged {misses:>3}")
print("(diameter 1 happens to match; the divergence starts at diameter 3)")
