"""Deterministic graph families and seeded random connected graphs.

Everything here is reproducible: named families have one canonical
labeling each, and the random generator is a fixed 64-bit splitmix
stream, so equal inputs give bit-identical edge sets on any platform.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError, TooLargeError
from .graph import Graph

ENUMERATION_CAP = 6


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1), n >= 2."""
    if n < 2:
        raise InvalidParameterError(f"path needs n >= 2, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0, n >= 3."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise InvalidParameterError(f"complete needs n >= 2, got {n}")
    return Graph(n, combinations(range(n), 2))


def star(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves (>= 1)."""
    if leaves < 1:
        raise InvalidParameterError(f"star needs at least one leaf, got {leaves}")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise InvalidParameterError(f"bipartite sides must be >= 1, got {a}, {b}")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Petersen graph: outer cycle 0..4, inner 5..9 stepping by 2, spokes i-(i+5)."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Pair draws evaluated per numpy step; bounds the generator's extra memory.
_CHUNK = 1 << 16
# Attempts before a gnp spec is rejected; gnp:12,0.1,0 needs 396.
_MAX_ATTEMPTS = 10_000


def _kept_pairs(n: int, p: float, state: int) -> np.ndarray:
    """Pairs one attempt keeps: draw k decides the k-th pair in lexicographic order.

    Returns them as one ``(m, 2)`` int64 array, in that order, for the
    array form of ``Graph``. splitmix64 is counter-based, so its k-th
    output is the mix of ``state + k * gamma`` (mod 2^64), evaluated here
    in place, a chunk at a time, on uint64 arrays. Every operand of the
    stream is uint64, which wraps mod 2^64 the same way under numpy 1.x and
    NEP 50 promotion.

    Pair k is kept when its draw's top 53 bits j satisfy
    ``j < ceil(p * 2^53)`` in uint64, exactly the scalar stream's
    ``j * 2^-53 < p``: scaling a double by 2^53 is exact, and an integer
    lies below a real number exactly when it lies below its ceiling.
    """
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of pair (u, u + 1)
    base = np.uint64(state)
    threshold = np.uint64(math.ceil(p * 2**53))
    kept = []
    for lo in range(0, total, _CHUNK):
        z = np.arange(lo + 1, min(lo + _CHUNK, total) + 1, dtype=np.uint64)
        z *= _GAMMA
        z += base
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        flat = np.flatnonzero(z < threshold) + lo
        u = np.searchsorted(starts, flat, side="right") - 1
        kept.append(np.stack((u, flat - starts[u] + u + 1), axis=1))
    return np.concatenate(kept)


def erdos_renyi_connected(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) conditioned on connectivity.

    Each of the C(n, 2) pairs is kept with probability ``p``, drawing one
    splitmix64 value per pair in lexicographic pair order. The pair is kept
    when the draw's top 53 bits, an integer j, satisfy
    ``j < ceil(p * 2^53)``, which is exactly ``j * 2^-53 < p`` for the
    uniform double ``j * 2^-53``. Disconnected samples are discarded and
    the whole graph is redrawn from ``seed + 1``, ``seed + 2``, and so on,
    so the result is a pure function of ``(n, p, seed)``.

    splitmix64 is counter-based, so the stream is evaluated as numpy
    uint64 arithmetic in chunks of ``_CHUNK`` draws, with no float
    conversion: extra memory is O(chunk) rather than O(n^2), and the edges
    are bit-identical to the scalar one-draw-at-a-time loop. After
    ``_MAX_ATTEMPTS`` disconnected samples InvalidParameterError is raised
    (CLI exit 1), so a p far below the connectivity threshold fails fast
    instead of redrawing forever.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")
    attempt = seed & _MASK64
    for _ in range(_MAX_ATTEMPTS):
        pairs = _kept_pairs(n, p, attempt)
        # with n >= 2 an isolated vertex means disconnected: skip the Graph build
        if np.bincount(pairs.ravel(), minlength=n).all():
            g = Graph(n, pairs)
            if g.is_connected():
                return g
        attempt = (attempt + 1) & _MASK64
    raise InvalidParameterError(
        f"gnp(n={n}, p={p}, seed={seed}) drew no connected graph in "
        f"{_MAX_ATTEMPTS} attempts"
    )


# Family spec name -> (builder, parameter types). The builder is held by
# name and looked up when a spec is built, so a later rebinding of the
# module attribute (a tracer wrapping it, say) is the one that runs.
FAMILIES = {
    "path": ("path", (int,)),
    "cycle": ("cycle", (int,)),
    "complete": ("complete", (int,)),
    "star": ("star", (int,)),
    "kbipartite": ("complete_bipartite", (int, int)),
    "petersen": ("petersen", ()),
    "gnp": ("erdos_renyi_connected", (int, float, int)),
}


def build_family(spec: str) -> Graph:
    """Build the graph a family spec names: ``NAME`` or ``NAME:P1,P2,...``.

    For example ``cycle:5``, ``kbipartite:2,3``, ``petersen`` or
    ``gnp:12,0.4,42`` (n, p, seed). An unknown name, a wrong parameter
    count or a parameter of the wrong type raises InvalidParameterError,
    as does a builder rejecting its parameters.
    """
    kind, _, arg = spec.partition(":")
    if kind not in FAMILIES:
        raise InvalidParameterError(
            f"unknown family {kind!r}; available: {', '.join(FAMILIES)}"
        )
    builder, types = FAMILIES[kind]
    params = [s for s in arg.split(",") if s]
    if len(params) != len(types):
        raise InvalidParameterError(
            f"{kind} takes {len(types)} parameter(s), got {len(params)}"
        )
    try:
        values = [t(s) for t, s in zip(types, params)]
    except ValueError as exc:
        raise InvalidParameterError(f"bad parameter in {spec!r}: {exc}") from None
    return globals()[builder](*values)


def connected_classes(n: int) -> list[tuple[Graph, _Labeled]]:
    """The connected graphs on n vertices, 2 <= n <= 6, by isomorphism class.

    Bit k of an edge mask is the k-th pair in lexicographic order. A class is its
    smallest-mask ``Graph`` and its members, whose uint16 masks are ``members.masks``,
    increasing; classes come in increasing mask order. A mask's canonical form, its
    smallest image under the n! relabellings, is found for all masks at once: per
    permutation, two 256-entry tables map the low and the high byte to their images.
    """
    if n > ENUMERATION_CAP:
        raise TooLargeError(f"enumeration capped at n = {ENUMERATION_CAP}, got {n}")
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    u, v = np.triu_indices(n, 1)  # pair k is (u[k], v[k])
    index = np.zeros((n, n), dtype=np.intp)
    index[u, v] = index[v, u] = np.arange(u.size, dtype=np.intp)
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    # weights[p, k]: the bit that pair k moves to under permutation p
    weights = np.zeros((len(perms), 16), dtype=np.uint16)
    weights[:, : u.size] = np.uint16(1) << index[perms[:, u], perms[:, v]].astype(np.uint16)
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    # a byte's image is the sum, that is the OR, of its set bits' distinct powers of two
    low, high = weights[:, :8] @ bits.T, weights[:, 8:] @ bits.T
    canon = np.arange(1 << u.size, dtype=np.uint16)
    hi, lo = np.divmod(canon.astype(np.intp), 256)  # intp, which numpy gathers unconverted
    for low_p, high_p in zip(low, high):
        np.minimum(canon, low_p[lo] | high_p[hi], out=canon)
    # a stable sort keeps each class's masks increasing, its smallest first
    masks = np.argsort(canon, kind="stable").astype(np.uint16)
    groups = np.split(masks, np.flatnonzero(np.diff(canon[masks])) + 1)
    graphs = _Labeled(n=n, masks=np.array([m[0] for m in groups], dtype=np.uint16))
    return [(g, _Labeled(n=n, masks=m)) for g, m in zip(graphs, groups) if g.is_connected()]


class _Labeled(SimpleNamespace):
    """The labeled graphs on ``n`` vertices of the edge ``masks``, built only when iterated."""

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Graph]:
        pairs = list(combinations(range(self.n), 2))
        for mask in self.masks.tolist():
            yield Graph(self.n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield every labeled connected graph on n vertices, 2 <= n <= 6, in increasing
    edge-mask order (see ``connected_classes``): 1, 4, 38, 728 and 26704 graphs.
    The order is checked at the call, before anything is yielded."""
    classes = connected_classes(n)
    return iter(_Labeled(n=n, masks=np.sort(np.concatenate([m.masks for _, m in classes]))))
