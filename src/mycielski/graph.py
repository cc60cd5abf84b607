"""Simple undirected graphs with exact hop distances.

Vertices are dense 0-based integers. Graphs are immutable after
construction and all operations here are pure functions, so shared
instances are safe to use concurrently.

A ``Graph`` is built from an iterable of ``(u, v)`` pairs or from a numpy
``(m, 2)`` integer array such as ``gnp``'s. Either input is reduced to the
canonical edge list (an array already in canonical order with no sort),
and one loop over that list builds the sorted neighbour tuples, so both
give equal graphs of Python ints and the same errors.

``all_pairs_distances`` is the package's one APSP, a breadth-first search
from every source at once: on uint64 word bitsets, and past a level budget
in a blocked kernel of bounded neighbour-list gathers. It does integer and
bitwise arithmetic only and returns the exact distances as a read-only
``(n, n)`` int64 array. The brute-force oracles of ``verify`` (obs2,
thm_dd) run it on the explicitly built Mycielskian.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DisconnectedError,
    EdgeListParseError,
    InvalidParameterError,
    SelfLoopError,
    VertexOutOfRangeError,
)


class Graph:
    """Immutable simple graph on vertices ``0..n-1``.

    Edge input order and duplicates are normalised away: ``edges`` is a
    lexicographically sorted tuple of ``(u, v)`` pairs with ``u < v``,
    which gives every graph one canonical encoding. ``adjacency[v]`` is the
    strictly increasing tuple of v's neighbours and ``degrees[v]`` its
    length.

    ``pairs`` comes in two forms that build equal graphs, attribute for
    attribute and all of Python ints:

    - any iterable of ``(u, v)`` pairs, checked one pair at a time and
      canonicalised by one sort;
    - a numpy integer array of shape ``(m, 2)``, as the large ``gnp``
      graphs use, taken as the edge list with no sort when its rows are
      already canonical (``_canonical_rows``) and as a list of pairs
      otherwise. Any other array (float, bool, another shape) raises
      InvalidParameterError.

    Either form raises SelfLoopError or VertexOutOfRangeError, with the
    same message, for the first bad pair in input order; the pair-by-pair
    form raises InvalidParameterError for an item that is not a pair and for
    a bool or non-integer vertex id, and stores numpy integer ids as Python
    ints. The order ``n`` is checked the same way, before anything else.
    """

    __slots__ = ("n", "edges", "adjacency", "degrees")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] | np.ndarray = ()):
        if type(n) is not int:
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise InvalidParameterError(f"a graph's order must be an integer, got {n!r}")
            n = int(n)
        if n < 1:
            raise InvalidParameterError("a graph needs at least one vertex")
        edges: list[tuple[int, int]] | None = None
        if isinstance(pairs, np.ndarray):
            edges = _canonical_rows(n, pairs)
            if edges is None:
                pairs = pairs.tolist()  # Python ints, so no numpy scalar reaches edges
        if edges is None:
            seen: set[tuple[int, int]] = set()
            for pair in pairs:
                try:
                    u, v = pair
                except (TypeError, ValueError) as exc:
                    raise InvalidParameterError(f"edge {pair!r} is not a (u, v) pair") from exc
                if not (type(u) is int is type(v)):
                    u, v = _vertex_ids(u, v)
                if u < v:
                    lo, hi = u, v
                elif v < u:
                    lo, hi = v, u
                else:
                    raise SelfLoopError(f"self-loop at vertex {u}")
                if lo < 0 or hi >= n:
                    raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
                seen.add((lo, hi))
            edges = sorted(seen)
        # in canonical edge order every neighbour list fills in increasing order
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, neighbors))
        self.degrees: tuple[int, ...] = tuple(map(len, neighbors))

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """Whether a depth-first search from vertex 0 reaches every vertex: the package's
        one connectivity test, used by the enumeration, ``gnp`` and ``verify``."""
        adjacency = self.adjacency
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        while stack:
            for v in adjacency[stack.pop()]:
                if not seen[v]:
                    seen[v] = 1
                    stack.append(v)
        return 0 not in seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _vertex_ids(u, v) -> tuple[int, int]:
    """A pair's vertex ids as Python ints: numpy integers are converted, and
    bools and non-integers raise InvalidParameterError."""
    if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (u, v)):
        return int(u), int(v)
    raise InvalidParameterError(f"edge ({u!r}, {v!r}) has a vertex id that is not an integer")


def _canonical_rows(n: int, pairs: np.ndarray) -> list[tuple[int, int]] | None:
    """The rows of an edge array as Python int pairs, if already canonical.

    Canonical rows are ``(u, v)`` with ``0 <= u < v < n`` in strictly
    increasing order, as ``gnp`` hands over; any other integer array, with
    bad, reversed, repeated or unsorted rows, gives None and is left to the
    pair-by-pair form, which canonicalises it and raises its errors. An
    array that is not integer of shape ``(m, 2)`` raises
    InvalidParameterError.
    """
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer):
        raise InvalidParameterError(
            f"an edge array must be integer of shape (m, 2), got {pairs.dtype} {pairs.shape}"
        )
    # uint64 ids of 2^63 and above wrap to negative and so fail the check
    u, v = pairs.astype(np.int64, copy=False).T
    if not (
        (u >= 0).all()
        and (u < v).all()
        and (v < n).all()
        and ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all()
    ):
        return None
    return list(zip(u.tolist(), v.tolist()))


# Every distance sum in the package is accumulated in int64 from this
# APSP. The largest, the degree distance, is bounded by n^4, and
# 55000^4 < 2^63, so anything at or below this order stays exact.
_EXACT_ORDER_LIMIT = 55_000
# Sources per block: a block's working arrays stay O(128 n).
_BLOCK_ROWS = 128
# One gather holds about n^2 bytes, an eighth of the int64 result, on a graph
# of any density: a numpy word level gathers the ceil(n/64)-word rows of this
# many times n neighbours, a blocked-kernel level that many words of pair keys.
_GATHER_EDGES = 8


def all_pairs_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances by a level-synchronous BFS from every source.

    Returns a read-only ``(n, n)`` int64 array of exact distances.

    Each source s keeps the set R_k[s] of vertices within k hops as a
    bitset, and every row advances at once:
    ``R_{k+1}[s] = R_k[s] | OR over v in N(s) of R_k[v]``. This is exact on
    an undirected graph, since a vertex within k + 1 hops of s is s itself
    or within k hops of a neighbour of s. ``d[s, v]`` is the number of
    levels whose row lacks v, which is ``min(dist(s, v), k)`` after k levels
    and the distance once every row is full. Two forms run this BFS:

    - In the numpy word levels a row is ``ceil(n/64)`` uint64 words of an
      ``(n, ceil(n/64))`` array, a level is one gather of the neighbours' rows
      and one ``bitwise_or.reduceat`` over the neighbour tuples of ``g.adjacency``
      laid end to end, and each level's missing bits are added into a level
      count. A level costs 2m ceil(n/64) word operations plus n^2 for reading
      the bits, so these levels run only while their total stays within
      n (n + 2m), one sparse BFS from every source (``_word_level_budget``).
      On a small-diameter graph that is every level.
    - Rows still incomplete after that go on in the blocked kernel, 128
      source rows at a time, from the last word level k: the frontier is
      the pairs at distance k and the next level is k + 1 (with no word
      levels, k = 0 and the frontier is the diagonal). A level gathers the
      frontier vertices' neighbour lists, in parts of at most one gather
      (``_GATHER_EDGES``) cut at cumulative degree, and keeps the pairs not
      seen before. It costs the frontier's edge count, so the kernel stays
      within O(n (n + m)) for any diameter.

    Memory is the n x n int64 result. The numpy word levels add two word
    arrays of n^2/8 bytes, a uint16 level count of 2 n^2 bytes (freed
    before the kernel runs), the n^2 bytes of one level's unpacked bits and
    the gathered rows of one vertex chunk (see ``_GATHER_EDGES``). The
    blocked kernel adds O(128 n) per level and a few int64 arrays over one
    part's gathered edges, about n^2 / 8 of them.

    Raises InvalidParameterError, before allocating anything, when n
    exceeds ``_EXACT_ORDER_LIMIT``, the order up to which every int64
    distance sum stays exact. Raises DisconnectedError, whose message names
    vertex 0 (on a disconnected graph its row never completes), as soon as
    that shows: a vertex with no neighbour, a level that grows no row or a
    block whose frontier empties; the matrix never contains infinities.
    """
    n = g.n
    if n > _EXACT_ORDER_LIMIT:
        raise InvalidParameterError(
            f"n={n} exceeds the exact int64 limit of {_EXACT_ORDER_LIMIT}"
        )
    deg = np.asarray(g.degrees, dtype=np.int64)
    if n > 1 and not deg.all():
        # checked first: reduceat would read an empty neighbour list as the next one
        raise DisconnectedError("vertex 0 cannot reach the whole graph")
    nbr = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.int64, count=2 * g.m)
    first_nbr = np.cumsum(deg) - deg
    d, last = _numpy_word_levels(n, nbr, first_nbr, _word_level_budget(n, g.m))
    gather = _GATHER_EDGES * n * -(-n // 64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = d[lo : lo + _BLOCK_ROWS]
        b = len(rows)
        flat = rows.reshape(-1)  # a view: rows of d are contiguous
        reached = np.count_nonzero(flat >= 0)
        if reached == b * n:
            continue
        keys = np.flatnonzero(flat == last)  # pair (s, v) is (s - lo)*n + v
        k = last
        while keys.size and reached < b * n:
            k += 1
            v = keys % n
            cnt = deg[v]
            ends = np.cumsum(cnt)  # frontier pair i gathers edges ends[i] - cnt[i] .. ends[i] - 1
            # a frontier with more edges than one gather holds goes in parts, each
            # written into flat before the next is gathered, so none repeats a pair
            cuts = (0, keys.size) if ends[-1] <= gather else _cuts(ends - cnt, ends[-1], gather)
            found = []
            for a, z in zip(cuts, cuts[1:]):
                # each gathered edge's place in nbr, then its pair (s, w)
                cand = np.repeat(first_nbr[v[a:z]] - ends[a:z] + cnt[a:z], cnt[a:z])
                cand += np.arange(ends[a] - cnt[a], ends[z - 1])
                cand = nbr[cand]
                cand += np.repeat(keys[a:z] - v[a:z], cnt[a:z])
                # sorted and deduplicated in place, not by np.unique (see _cuts)
                new = cand[flat[cand] < 0]
                new.sort()
                first = np.ones(new.size, dtype=bool)
                first[1:] = new[1:] != new[:-1]
                found.append(new[first])
                flat[found[-1]] = k
            keys = found[0] if len(found) == 1 else np.concatenate(found)
            reached += keys.size
        if reached < b * n:
            raise DisconnectedError("vertex 0 cannot reach the whole graph")
    d.setflags(write=False)
    return d


def _word_level_budget(n: int, m: int) -> int:
    """Numpy word levels that cost no more than one sparse BFS from every source.

    A level gathers ``ceil(n/64)`` words per edge end and reads n^2 bits;
    a sparse BFS from every source visits n (n + 2m) vertices and edge ends.
    """
    return n * (n + 2 * m) // (2 * m * -(-n // 64) + n * n)


def _numpy_word_levels(
    n: int, nbr: np.ndarray, first_nbr: np.ndarray, budget: int
) -> tuple[np.ndarray, int]:
    """At most ``budget`` levels of the word recurrence on a uint64 array.

    Row s of ``r`` holds R_k[s] as ``ceil(n/64)`` uint64 words, vertex v at
    bit v % 8 of byte v // 8 (only bitwise operations touch them), and a
    level ORs each row with the rows of its neighbours: one gather of
    ``r[nbr]`` and one ``bitwise_or.reduceat`` over the neighbour lists
    (none may be empty), in vertex chunks of about ``_GATHER_EDGES`` * n
    gathered rows. Before each level the bits missing from R_k are added
    into a uint16 count, so it holds ``min(dist(s, v), k)``; the count is
    read into the int64 ``d`` once, after the last level.

    Returns ``(d, k)`` with ``d`` exact where the distance is at most k and
    -1 elsewhere: the whole matrix once every row is full, else the state
    after ``budget`` levels for the blocked kernel to resume from.
    """
    words = -(-n // 64)
    r = np.zeros((n, 8 * words), dtype=np.uint8)
    r[np.arange(n), np.arange(n) // 8] = 1 << (np.arange(n) % 8)
    r = r.view(np.uint64)  # R_0[s] = {s}
    full = np.bitwise_or.reduce(r, axis=0)
    grown = np.empty_like(r)
    bounds = np.append(first_nbr, nbr.size)  # vertex v's neighbours: bounds[v]..bounds[v+1]
    cuts = _cuts(first_nbr, nbr.size, _GATHER_EDGES * n)
    chunks = [
        (a, b, nbr[bounds[a] : bounds[b]], first_nbr[a:b] - bounds[a])
        for a, b in zip(cuts, cuts[1:])
    ]

    def missing(r: np.ndarray) -> np.ndarray:
        return np.unpackbits((~r).view(np.uint8), axis=1, count=n, bitorder="little")

    counts = np.zeros((n, n), dtype=np.uint16)  # fewer than n <= 55,000 levels run
    k = 0
    while not (r == full).all() and k < budget:
        counts += missing(r)
        for a, b, chunk_nbr, offsets in chunks:
            gathered = np.take(r, chunk_nbr, axis=0)
            np.bitwise_or(r[a:b], np.bitwise_or.reduceat(gathered, offsets), out=grown[a:b])
        if np.array_equal(grown, r):
            raise DisconnectedError("vertex 0 cannot reach the whole graph")
        r, grown = grown, r
        k += 1
    d = counts.astype(np.int64)
    del counts
    if k == budget:
        np.copyto(d, -1, where=missing(r).view(bool))
    return d, k


def _cuts(starts: np.ndarray, total: int, step: int) -> list[int]:
    """Cuts from 0 to len(starts) into parts of about ``step`` of ``total``
    entries laid end to end from the offsets ``starts``, at most one item more."""
    # not np.unique: its first call imports numpy.ma, tens of ms in a fresh process
    return sorted({*np.searchsorted(starts, np.arange(0, total, step)).tolist(), starts.size})


def diameter(g: Graph) -> int:
    """Largest hop distance over all vertex pairs."""
    return int(all_pairs_distances(g).max())


# Edge-list text format: first line "n m", then m lines "u v", LF endings.
# Comment lines start with '#'; readers tolerate them and trailing blanks.


def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: non-integer field in {raw!r}") from None
    if not rows:
        raise EdgeListParseError("missing 'n m' header line")
    n, m = rows[0]
    if len(rows) - 1 != m:
        raise EdgeListParseError(f"header declares {m} edges, found {len(rows) - 1}")
    try:
        return Graph(n, rows[1:])
    except (SelfLoopError, VertexOutOfRangeError, InvalidParameterError) as exc:
        raise EdgeListParseError(str(exc)) from exc


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    lines = [f"{g.n} {g.m}"]
    if comment is not None:
        lines.extend(f"# {line}" for line in comment.split("\n"))
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    """Parse the file at ``path``; one not readable as UTF-8 text raises EdgeListParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)
