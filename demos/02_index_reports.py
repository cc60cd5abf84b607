#!/usr/bin/env python3
"""Topological index reports across graph families.

Four invariants per graph: the Wiener index (sum of all pairwise
distances), the first Zagreb index (sum of squared degrees), the Randic
index (sum over edges of 1/sqrt(deg u * deg v)), and the degree distance
(distance-weighted degree sums over all pairs). For a k-regular graph the
degree distance collapses to 2k times the Wiener index and the Randic
index to n/2; the table shows both identities in action.
"""

from mycielski import (
    complete,
    complete_bipartite,
    cycle,
    index_report,
    path,
    petersen,
    star,
)

FAMILIES = [
    ("P5", path(5)),
    ("C6", cycle(6)),
    ("K5", complete(5)),
    ("K1,4 star", star(4)),
    ("K2,3", complete_bipartite(2, 3)),
    ("Petersen", petersen()),
]

header = f"{'graph':<10} {'n':>3} {'m':>3} {'diam':>4} {'W':>5} {'M1':>5} {'DD':>6} {'R':>12}"
print(header)
print("-" * len(header))
for name, g in FAMILIES:
    r = index_report(g)
    print(f"{name:<10} {r.n:>3} {r.m:>3} {r.diameter:>4} {r.wiener:>5} "
          f"{r.zagreb_m1:>5} {r.degree_distance:>6} {r.randic:>12.9f}")

print()
print("k-regular identities: DD = 2k*W exactly, R = n/2")
for name, g, k in [("C8", cycle(8), 2), ("K6", complete(6), 5), ("Petersen", petersen(), 3)]:
    r = index_report(g)
    print(f"  {name:<9} DD={r.degree_distance:<5} 2k*W={2 * k * r.wiener:<5} "
          f"R={r.randic:.9f} n/2={g.n / 2}")
    assert r.degree_distance == 2 * k * r.wiener
