#!/usr/bin/env python3
"""Tour of the Mycielskian construction.

Starting from a graph G on vertices 0..n-1, the Mycielskian mu(G) adds a
shadow copy of every vertex (shadow i sits at index n+i, adjacent to the
neighbors of i) plus one root vertex at 2n adjacent to every shadow. The
result has 2n+1 vertices and 3m+n edges, never contains a triangle that G
did not already have, and its diameter never exceeds 4.
"""

import numpy as np

from mycielski import (
    all_pairs_distances,
    complete,
    cycle,
    format_edge_list,
    index_report,
    mu_degrees,
    mu_distance_matrix,
    mycielskian,
)

print("=" * 64)
print("The smallest case: mu(K2) is the 5-cycle")
print("=" * 64)
layout = mycielskian(complete(2))
print(format_edge_list(layout.mu, comment="roles: original 0..1, shadow 2..3, root 4"))
print("degrees:", layout.mu.degrees, " diameter:", index_report(layout.mu).diameter)

print()
print("=" * 64)
print("mu(C5) is the Grotzsch graph: 11 vertices, 20 edges")
print("=" * 64)
g = cycle(5)
layout = mycielskian(g)
print("vertices:", layout.mu.n, " edges:", layout.mu.m)
degrees = mu_degrees(g)
print("root degree:", degrees[2 * 5], "(always n)")
print("shadow degrees:", [degrees[5 + i] for i in range(5)],
      "(always 1 + base degree)")
print("original degrees:", [degrees[i] for i in range(5)],
      "(always twice the base degree)")

print()
print("=" * 64)
print("Distances in mu(G) come from G alone, no BFS on mu needed")
print("=" * 64)
g = cycle(4)
layout = mycielskian(g)
closed_form = mu_distance_matrix(all_pairs_distances(g))
by_bfs = all_pairs_distances(layout.mu)
print("closed-form matrix for mu(C4):")
print(closed_form)
print("entrywise equal to BFS on the built graph:",
      np.array_equal(closed_form, by_bfs))
