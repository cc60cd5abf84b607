"""Degree- and distance-based topological indices.

Distance-based indices are exact integers, summed in int64 from the
per-source distance sums of the package's one BFS, which refuses any order
too large for those sums to stay exact. ``index_report`` gives the
diameter, W and DD from one run of it that builds no distance matrix;
``verify`` gets DD, and lemma3's distance-2 degree sum, from the one pair
sum ``_degree_distance`` on row sums of the matrices it already holds.
Randić-type quantities are doubles accumulated left to right over the
canonically sorted edge list, so repeated runs produce bit-identical
values.

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
from .graph import Graph, _distance_levels


def _degree_distance(g: Graph, rows: np.ndarray) -> int:
    """Pair sum of w(u, v) (deg u + deg v), regrouped by ``rows``, the row sums of symmetric w.

    With w = d it is DD; with w the indicator of d == 2, lemma3's distance-2 degree sum."""
    return int(np.asarray(g.degrees, dtype=np.int64) @ rows)


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

    def bound(d: int) -> float:
        return half_r + (math.sqrt(2.0) * m + math.sqrt(n * d)) / math.sqrt(d * d + d)

    return RandicBounds(lower=bound(big_delta), upper=bound(delta), is_regular=delta == big_delta)


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
    """Compute all indices; the diameter, W and DD come from one BFS that sums
    each source's distances level by level and builds no distance matrix."""
    rows, diameter = _distance_levels(g, matrix=False)
    return IndexReport(
        n=g.n,
        m=g.m,
        diameter=diameter,
        wiener=int(rows.sum()) // 2,
        zagreb_m1=first_zagreb(g),
        randic=randic(g),
        degree_distance=_degree_distance(g, rows),
    )
