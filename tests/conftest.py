from collections import deque

import numpy as np
from hypothesis import strategies as st

from mycielski.generators import erdos_renyi_connected
from mycielski.graph import Graph

_MASK64 = (1 << 64) - 1

# Labeled connected graphs on 2..6 vertices (OEIS A001187): the enumeration
# tests count enumerate_connected against them, and the atlas test its orbit sums.
CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


@st.composite
def connected_graphs(draw, min_n=2, max_n=9):
    """Seeded random connected graphs; coverage comes from the seed spread."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.sampled_from([0.25, 0.4, 0.6, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return erdos_renyi_connected(n, p, seed)


def bfs_distances(g):
    """Reference APSP: one deque BFS per source, -1 where unreachable."""
    rows = []
    for source in range(g.n):
        dist = [-1] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return np.array(rows, dtype=np.int64)


def splitmix64(state):
    """Reference splitmix64 stream: one Python-int step per draw."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def scalar_pairs(n, p, state):
    """Reference attempt: one scalar draw per pair, in lexicographic order."""
    stream = splitmix64(state)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (next(stream) >> 11) * 2.0**-53 < p
    ]


def scalar_gnp(n, p, seed):
    """Reference seeded connected G(n, p): redraw from seed + 1, seed + 2, ...
    while disconnected, without an attempt cap."""
    attempt = seed & _MASK64
    while True:
        g = Graph(n, scalar_pairs(n, p, attempt))
        if g.is_connected():
            return g
        attempt = (attempt + 1) & _MASK64
