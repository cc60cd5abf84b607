"""Mycielskian construction and its closed-form degrees and distances.

The Mycielskian of a graph G on vertices ``0..n-1`` lives on ``2n+1``
vertices with a fixed index layout: originals keep their labels,
shadow ``i`` sits at ``n+i``, and the root sits at ``2n``. The role of
any vertex is therefore decidable by integer comparison alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixMismatchError, TooSmallError, VertexOutOfRangeError
from .graph import DistanceMatrix, Graph

__all__ = ["MycielskianLayout", "mycielskian", "mu_degree", "mu_distance",
           "mu_distance_matrix"]


@dataclass(frozen=True)
class MycielskianLayout:
    """A base graph together with its Mycielskian under the fixed layout."""

    base: Graph
    mu: Graph

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def root(self) -> int:
        return 2 * self.base.n

    def shadow(self, i: int) -> int:
        return self.base.n + i

    def is_original(self, v: int) -> bool:
        return 0 <= v < self.base.n

    def is_shadow(self, v: int) -> bool:
        return self.base.n <= v < 2 * self.base.n


def mycielskian(g: Graph) -> MycielskianLayout:
    """Construct the Mycielskian of ``g``.

    Edges are the base edges, one ``(u, shadow(v))`` and ``(v, shadow(u))``
    pair per base edge, and the root joined to every shadow, giving
    ``3m + n`` edges on ``2n + 1`` vertices. mu(G) is connected exactly
    when G has no isolated vertex, so an input with one (K1 and edgeless
    graphs included) raises TooSmallError.
    """
    n = g.n
    if 0 in g.degrees:
        raise TooSmallError(f"vertex {g.degrees.index(0)} is isolated, so mu(G) is disconnected")
    pairs: list[tuple[int, int]] = list(g.edges)
    for u, v in g.edges:
        pairs.append((u, n + v))
        pairs.append((v, n + u))
    root = 2 * n
    pairs.extend((root, n + j) for j in range(n))
    return MycielskianLayout(base=g, mu=Graph(2 * n + 1, pairs))


def mu_degree(layout: MycielskianLayout, v: int) -> int:
    """Degree of ``v`` in the Mycielskian, from base degrees alone.

    Root has degree n, shadow i has ``1 + deg(i)``, original i has
    ``2 * deg(i)``.
    """
    n = layout.base.n
    if not 0 <= v <= 2 * n:
        raise VertexOutOfRangeError(f"vertex {v} outside 0..{2 * n}")
    if v == 2 * n:
        return n
    if v >= n:
        return 1 + layout.base.degree(v - n)
    return 2 * layout.base.degree(v)


def mu_distance(layout: MycielskianLayout, dg: DistanceMatrix, u: int, v: int) -> int:
    """Distance between two Mycielskian vertices, from base distances alone.

    Case table (u, v in either order):
      root    - shadow            1
      root    - original          2
      shadow  - shadow            2
      original- original          d(i, j) if d(i, j) <= 3 else 4
      original- shadow, same i    2
      original- shadow, i != j    d(i, j) if d(i, j) <= 2 else 3

    ``dg`` must be the all-pairs distance matrix of the base graph.
    """
    n = layout.base.n
    if dg.d.shape[0] != n:
        raise MatrixMismatchError(f"distance matrix is {dg.d.shape}, base has n={n}")
    root = 2 * n
    if not (0 <= u <= root and 0 <= v <= root):
        raise VertexOutOfRangeError(f"pair ({u}, {v}) outside 0..{root}")
    if u == v:
        return 0
    if u > v:
        u, v = v, u
    if v == root:
        return 1 if u >= n else 2
    if u >= n:  # both shadows, distinct
        return 2
    if v < n:  # both originals
        d = dg[u, v]
        return d if d <= 3 else 4
    # original u, shadow of j
    j = v - n
    if u == j:
        return 2
    d = dg[u, j]
    return d if d <= 2 else 3


def mu_distance_matrix(layout: MycielskianLayout, dg: DistanceMatrix) -> DistanceMatrix:
    """Full (2n+1)-square distance matrix of the Mycielskian.

    Built blockwise from the same case table as :func:`mu_distance`;
    agrees entrywise with BFS on the constructed Mycielskian.
    """
    n = layout.base.n
    if dg.d.shape[0] != n:
        raise MatrixMismatchError(f"distance matrix is {dg.d.shape}, base has n={n}")
    size = 2 * n + 1
    d = np.zeros((size, size), dtype=np.int64)
    d[:n, :n] = np.minimum(dg.d, 4)
    cross = np.where(dg.d <= 2, dg.d, 3)
    np.fill_diagonal(cross, 2)
    d[:n, n : 2 * n] = cross
    d[n : 2 * n, :n] = cross  # symmetric: d(v_i, x_j) = d(v_j, x_i)
    d[n : 2 * n, n : 2 * n] = 2
    np.fill_diagonal(d[n : 2 * n, n : 2 * n], 0)
    d[2 * n, :n] = 2
    d[:n, 2 * n] = 2
    d[2 * n, n : 2 * n] = 1
    d[n : 2 * n, 2 * n] = 1
    d.setflags(write=False)
    return DistanceMatrix(d)
