"""Mycielskian construction and its closed-form degrees and distances.

The Mycielskian of a graph G on vertices ``0..n-1`` lives on ``2n+1``
vertices with a fixed index layout: originals keep their labels,
shadow ``i`` sits at ``n+i``, and the root sits at ``2n``. The role of
any vertex is therefore decidable by integer comparison alone.

Observations 1 and 2 of the paper each have one whole-graph form here,
which reads G's data and never a built mu(G): ``mu_degrees`` gives every
degree of mu(G) from the degrees of G, and ``mu_distance_matrix`` every
distance of mu(G) from the distance matrix of G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TooSmallError
from .graph import Graph


@dataclass(frozen=True)
class MycielskianLayout:
    """mu(G) as a Graph under this module's layout."""

    mu: Graph


def mycielskian(g: Graph) -> MycielskianLayout:
    """Construct the Mycielskian of ``g``.

    Edges are the base edges, one ``(u, n + v)`` and ``(v, n + u)``
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
    return MycielskianLayout(mu=Graph(2 * n + 1, pairs))


def mu_degrees(g: Graph) -> tuple[int, ...]:
    """Degrees of the Mycielskian of ``g`` in layout order, from its degrees alone.

    Original i has ``2 * deg(i)``, shadow i has ``1 + deg(i)`` and the
    root has n. This holds for every G, isolated vertices included.
    """
    return tuple(2 * k for k in g.degrees) + tuple(1 + k for k in g.degrees) + (g.n,)


def mu_distance_matrix(dg: np.ndarray) -> np.ndarray:
    """Full (2n+1)-square distance matrix of the Mycielskian, from base distances.

    ``dg`` is the all-pairs distance matrix of a connected G of order n.
    Blocks follow the case table (u, v in either order, u != v):

      root    - shadow            1
      root    - original          2
      shadow  - shadow            2
      original- original          d(i, j) if d(i, j) <= 3 else 4
      original- shadow, same i    2
      original- shadow, i != j    d(i, j) if d(i, j) <= 2 else 3

    The result agrees entrywise with BFS on the constructed Mycielskian
    and is a read-only uint16 array. A ``dg`` that is no numpy array (a
    nested list is not read as one), a non-square one, one not all
    non-negative integers below n, or one not symmetric with zeros on its
    diagonal alone, raises InvalidParameterError, and K1's ``[[0]]``
    TooSmallError: mu(K1) has an isolated vertex.
    """
    if not isinstance(dg, np.ndarray):
        raise InvalidParameterError(f"distance matrix is a {type(dg).__name__}, not a numpy array")
    if dg.ndim != 2 or dg.shape[0] != dg.shape[1]:
        raise InvalidParameterError(f"distance matrix is {dg.shape}, not square")
    if dg.dtype.kind not in "iu" or dg.dtype.kind == "i" and (dg < 0).any():
        raise InvalidParameterError(f"distances must be non-negative integers, got {dg.dtype}")
    n = dg.shape[0]
    # no pair of a connected order-n graph is n apart, so a foreign matrix's 0xFFFF
    # for an unreached pair is refused (APSP raises DisconnectedError instead)
    if dg.max(initial=0) >= n:
        raise InvalidParameterError(f"distances must be non-negative integers below the order {n}")
    # d(u, v) = d(v, u), and it is 0 exactly when u = v
    zero_apart = np.count_nonzero(dg) < n * n - n  # read with the diagonal test
    if zero_apart or np.count_nonzero(dg.diagonal()) or np.count_nonzero(dg != dg.T):
        raise InvalidParameterError("distances must be symmetric, and 0 on the diagonal alone")
    if n == 1:
        raise TooSmallError("vertex 0 is isolated, so mu(G) is disconnected")
    size = 2 * n + 1
    d = np.full((size, size), 2, dtype=np.uint16)  # root-original, shadow-shadow
    d[:n, :n] = np.minimum(dg, 4)
    cross = np.minimum(dg, 3)
    np.fill_diagonal(cross, 2)
    d[:n, n : 2 * n] = cross
    d[n : 2 * n, :n] = cross  # symmetric: d(v_i, x_j) = d(v_j, x_i)
    d[2 * n, n : 2 * n] = 1
    d[n : 2 * n, 2 * n] = 1
    np.fill_diagonal(d, 0)
    d.setflags(write=False)
    return d
