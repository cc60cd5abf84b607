"""Degree- and distance-based topological indices.

Distance-based indices are exact integers, summed in int64 over the
distances of ``all_pairs_distances``, which refuses any order too large
for those sums to stay exact. Randić-type quantities are doubles
accumulated left to right over the canonically sorted edge list, so
repeated runs produce bit-identical values.

``dd_mycielskian_closed`` is the paper's degree-distance theorem as a
bare polynomial of four indices of G. It runs no BFS and checks no
hypothesis: the callers that already know the diameter decide whether it
applies (the claim table of ``verify`` and the diameter-2 branch of
``mycielski compute``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParameterError, NoEdgesError
from .graph import Graph, all_pairs_distances

__all__ = [
    "IndexReport",
    "RandicBounds",
    "wiener",
    "first_zagreb",
    "randic",
    "degree_distance",
    "distance2_degree_sum",
    "dd_mycielskian_closed",
    "randic_bounds",
    "index_report",
]


def _wiener(d: np.ndarray) -> int:
    return int(d.sum(dtype=np.int64)) // 2


def _degree_distance(g: Graph, d: np.ndarray) -> int:
    """Pair sum of d(u, v) (deg u + deg v), regrouped by the symmetric rows of d."""
    deg = np.asarray(g.degrees, dtype=np.int64)
    return int(deg @ d.sum(axis=1, dtype=np.int64))


def wiener(g: Graph) -> int:
    """Sum of hop distances over all unordered vertex pairs."""
    return _wiener(all_pairs_distances(g))


def first_zagreb(g: Graph) -> int:
    """Degree-square sum, equal to the sum over edges of endpoint degrees."""
    return sum(d * d for d in g.degrees)


def randic(g: Graph) -> float:
    """Sum over edges of ``1 / sqrt(deg(u) * deg(v))``."""
    if g.m == 0:
        raise NoEdgesError("Randic index needs at least one edge")
    degrees, sqrt = g.degrees, math.sqrt
    total = 0.0  # left to right: sum() compensates on Python >= 3.12
    for u, v in g.edges:
        total += 1.0 / sqrt(degrees[u] * degrees[v])
    return total


def degree_distance(g: Graph) -> int:
    """Sum over unordered pairs of ``d(u, v) * (deg(u) + deg(v))``."""
    return _degree_distance(g, all_pairs_distances(g))


def _distance2_degree_sum(g: Graph, d: np.ndarray) -> int:
    """Pair sum over d(u, v) == 2 of (deg u + deg v), regrouped by the symmetric rows of d."""
    deg = np.asarray(g.degrees, dtype=np.int64)
    return int(deg @ (d == 2).sum(axis=1, dtype=np.int64))


def distance2_degree_sum(g: Graph) -> int:
    """Sum of endpoint degrees over unordered pairs at distance exactly 2.

    On diameter-2 graphs this equals ``2(n-1)m - M1``: a vertex of degree d
    has exactly ``n - 1 - d`` vertices at distance two.
    """
    return _distance2_degree_sum(g, all_pairs_distances(g))


def dd_mycielskian_closed(n: int, m: int, m1: int, dd: int) -> int:
    """The polynomial ``4*dd - m1 + (7n-1)n + (8n+12)m``.

    Given the order n, size m, first Zagreb index M1(G) and degree
    distance DD(G) of a graph G of diameter 2, it equals the degree
    distance of the Mycielskian, DD(mu(G)). The identity is proved for
    diameter 2 only; the function evaluates the polynomial for any
    integers and checks nothing, so the caller must know the diameter.
    """
    return 4 * dd - m1 + (7 * n - 1) * n + (8 * n + 12) * m


@dataclass(frozen=True)
class RandicBounds:
    """Sandwich bounds for the Randić index of the Mycielskian.

    ``lower == upper`` exactly when the base graph is regular, and then
    both equal the Mycielskian's Randić index.
    """

    lower: float
    upper: float
    is_regular: bool


def randic_bounds(g: Graph, r: float | None = None) -> RandicBounds:
    """Bounds ``R(G)/2 + (sqrt(2) m + sqrt(n D)) / sqrt(D^2 + D)`` with D the
    maximum degree (lower) or minimum degree (upper); ``r`` is R(G) for a
    caller that already holds it."""
    if g.m == 0:
        raise NoEdgesError("Randic bounds need at least one edge")
    n, m, delta, big_delta = g.n, g.m, min(g.degrees), max(g.degrees)
    if delta == 0:
        # only reachable on disconnected inputs; the upper bound divides by
        # sqrt(delta^2 + delta)
        raise InvalidParameterError("bounds undefined at minimum degree 0")
    half_r = (randic(g) if r is None else r) / 2.0
    lower = half_r + (math.sqrt(2.0) * m + math.sqrt(n * big_delta)) / math.sqrt(
        big_delta * big_delta + big_delta
    )
    upper = half_r + (math.sqrt(2.0) * m + math.sqrt(n * delta)) / math.sqrt(
        delta * delta + delta
    )
    return RandicBounds(lower=lower, upper=upper, is_regular=delta == big_delta)


@dataclass(frozen=True)
class IndexReport:
    """Named bundle of the computed invariants of one connected graph."""

    n: int
    m: int
    diameter: int
    wiener: int
    zagreb_m1: int
    randic: float
    degree_distance: int

    def as_dict(self) -> dict[str, int | float]:
        return asdict(self)


def index_report(g: Graph) -> IndexReport:
    """Compute all indices from one shared distance matrix."""
    d = all_pairs_distances(g)
    return IndexReport(
        n=g.n,
        m=g.m,
        diameter=int(d.max()),
        wiener=_wiener(d),
        zagreb_m1=first_zagreb(g),
        randic=randic(g),
        degree_distance=_degree_distance(g, d),
    )
