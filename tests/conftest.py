from collections import deque

import numpy as np
from hypothesis import strategies as st

from mycielski.generators import erdos_renyi_connected


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
