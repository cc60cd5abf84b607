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
from every source at once: on uint64 word bitsets, stored words-major as
one ``(ceil(n/64), n)`` array whose row w holds word w of every source's
bitset, and once the frontier stops growing with many pairs left, in a
blocked kernel of bounded neighbour-list gathers. It does integer and
bitwise arithmetic only and returns the exact distances as a read-only
``(n, n)`` uint16 array, the level count itself. The brute-force oracles
of ``verify`` (obs2, thm_dd) run it on the explicitly built Mycielskian.
``index_report`` runs the same search with its second sink, which adds
each level's missing bits into the per-source distance sums and builds no
``(n, n)`` array; both sinks hand the kernel the same two word levels.
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
# A pair the blocked kernel has not reached: above every distance and level count
_UNSEEN = np.uint16(0xFFFF)
# Sources per block: a block's working arrays stay O(128 n).
_BLOCK_ROWS = 128
# One gather holds about n^2 bytes, half the uint16 result, on a graph of
# any density: up to this many times n ceil(n/64) words of one word row in a
# numpy word level, or int64 pair keys in a blocked-kernel level.
_GATHER_EDGES = 8
# R_0's 64 words: word i holds bit i alone
_UNIT = np.packbits(np.eye(64, dtype=bool), axis=1, bitorder="little").view(np.uint64).ravel()


def all_pairs_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances by a level-synchronous BFS from every source.

    Returns a read-only ``(n, n)`` uint16 array of exact distances, each
    below n <= ``_EXACT_ORDER_LIMIT`` < 2^16; cast it before signed arithmetic.

    Each source s keeps the set R_k[s] of vertices within k hops as a
    bitset, and every row advances at once:
    ``R_{k+1}[s] = R_k[s] | OR over v in N(s) of R_k[v]``. This is exact on
    an undirected graph, since a vertex within k + 1 hops of s is s itself
    or within k hops of a neighbour of s. ``d[s, v]`` is the number of
    levels whose row lacks v, which is ``min(dist(s, v), k)`` after k levels
    and the distance once every row is full. Two forms run this BFS:

    - In the numpy word levels R_k is one ``(ceil(n/64), n)`` uint64 array
      whose row w holds word w of every source, a level is one gather of each
      word row at the neighbours and one ``bitwise_or.reduceat`` over the
      neighbour tuples of ``g.adjacency`` laid end to end, and each level's
      missing bits are counted and added into a level count. A word operation
      covers 64 pairs and a kernel level pays per frontier edge, so these
      levels hand off only once the frontier (the pairs at distance k) is no
      larger than the one before and the pairs left exceed 64 max(frontier, n),
      more than 64 levels at that rate. At most 64 vertices leave at most
      n^2 <= 64 n pairs, so such a graph never hands off.
    - Rows still incomplete at the hand-off go on in the blocked kernel, 128
      source rows at a time, from R_k and R_{k-1} (R_{-1} empty) and a count
      of min(dist(s, v), k), which makes it exact for a hand-off at any level
      k >= 0: the frontier is the pairs at distance k, the next level is
      k + 1, and the result takes each block's distances outside R_{k-1} by
      ``np.maximum``. A level gathers the frontier vertices' neighbour lists,
      in parts of at most one gather (``_GATHER_EDGES``) cut at cumulative
      degree, and keeps the pairs not seen before. It costs the frontier's
      edge count, so the kernel stays within O(n (n + m)) for any diameter.

    Memory is the 2 n^2 bytes of the uint16 result, which is the word
    levels' level count, with no int64 copy. The numpy word levels add two
    word arrays of n^2/8 bytes, each level's bits by source (an n^2/8 copy,
    freed once unpacked), the n^2 bytes of one level's unpacked bits and one
    word row's gathered words of one vertex chunk (see ``_GATHER_EDGES``).
    The blocked kernel keeps the two word arrays and adds a 128-row block,
    O(128 n) per level and a few int64 arrays over one part's gathered
    edges, about n^2 / 8 of them.

    Raises InvalidParameterError, before allocating anything, when n
    exceeds ``_EXACT_ORDER_LIMIT``, the order up to which every int64
    distance sum stays exact. Raises DisconnectedError, whose message names
    vertex 0 (on a disconnected graph its row never completes), as soon as
    that shows: a vertex with no neighbour, a level that grows no row or a
    block whose frontier empties; the matrix never contains infinities.
    """
    return _distance_levels(g, matrix=True)[0]


def _distance_levels(g: Graph, matrix: bool) -> tuple[np.ndarray, int]:
    """The BFS of ``all_pairs_distances``, and the diameter.

    Returns the read-only uint16 matrix with ``matrix``, else the int64
    distance sums T(s) = sum over v of d(s, v) with no (n, n) array. Either
    holds min(d(s, v), last) after the word levels; each kernel block runs
    on a 128-row scratch of the distances outside R_{last-1}, which the
    matrix takes by ``np.maximum`` and T as k - last per pair found at k.
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
    # the matrix is a uint16 level count: fewer than n <= 55,000 levels run
    out = np.zeros((n, n), dtype=np.uint16) if matrix else np.zeros(n, dtype=np.int64)
    state, last = _numpy_word_levels(n, nbr, first_nbr, out)
    top = last
    gather = _GATHER_EDGES * n * -(-n // 64)
    for lo in range(0, n, _BLOCK_ROWS) if state else ():  # None: every row is full
        # _UNSEEN outside R_last, last on its frontier and 0 inside R_{last-1}
        rows = np.full((min(_BLOCK_ROWS, n - lo), n), _UNSEEN)
        for words, value in zip(state, (last, 0)):  # R_{last-1}'s 0 over R_last's last
            # the block's sources by row: a copy of at most n^2/8 bytes, a view for one word
            bits = np.ascontiguousarray(words[:, lo : lo + _BLOCK_ROWS].T).view(np.uint8)
            bits = np.unpackbits(bits, axis=1, count=n, bitorder="little").view(bool)
            np.copyto(rows, np.uint16(value), where=bits)
            del bits  # freed before the next unpack and the level loop
        flat = rows.reshape(-1)  # pair (s, v) is (s - lo)*n + v
        reached = np.count_nonzero(flat != _UNSEEN)
        keys = np.flatnonzero(flat == last)
        k = last
        while keys.size and reached < flat.size:
            k += 1
            v = keys % n
            cnt = deg[v]
            ends = np.cumsum(cnt)  # frontier pair i gathers edges ends[i] - cnt[i] .. ends[i] - 1
            # a frontier with more edges than one gather holds goes in parts, each
            # written into flat before the next is gathered, so none repeats a pair
            cuts = _cuts(ends, gather)
            found = []
            for a, z in zip(cuts, cuts[1:]):
                # each gathered edge's place in nbr, then its pair (s, w)
                cand = np.repeat(first_nbr[v[a:z]] - ends[a:z] + cnt[a:z], cnt[a:z])
                cand += np.arange(ends[a] - cnt[a], ends[z - 1])
                cand = nbr[cand]
                cand += np.repeat(keys[a:z] - v[a:z], cnt[a:z])
                # sorted and deduplicated in place, not by np.unique (see _cuts)
                new = cand[flat[cand] == _UNSEEN]
                new.sort()
                first = np.ones(new.size, dtype=bool)
                first[1:] = new[1:] != new[:-1]
                found.append(new[first])
                flat[found[-1]] = k
            keys = found[0] if len(found) == 1 else np.concatenate(found)
            reached += keys.size
        if reached < flat.size:
            raise DisconnectedError("vertex 0 cannot reach the whole graph")
        top = max(top, k)
        block = out[lo : lo + _BLOCK_ROWS]
        if matrix:  # block holds min(d, last); rows 0 inside R_{last-1} and d outside
            np.maximum(block, rows, out=block)
        else:  # T holds min(d, last) per pair, so a pair found at k adds k - last
            block += np.maximum(rows, last).sum(axis=1, dtype=np.int64) - n * last
        del rows, flat  # freed before the next block's np.full, so no two blocks are held
    out.setflags(write=not matrix)  # the matrix is read-only
    return out, top


def _numpy_word_levels(n: int, nbr: np.ndarray, first_nbr: np.ndarray, count: np.ndarray) -> tuple:
    """Levels of the word recurrence on a uint64 array, until the stop test.

    ``r`` is words-major, ``(ceil(n/64), n)``: column s holds R_k[s], vertex
    v at the bit ``_UNIT[v % 64]`` sets in word v // 64 (only bitwise
    operations touch them), seeded one word row at a time with no n^2
    transient. A level ORs each column with its neighbours' columns: per
    vertex chunk and word row, one gather of ``row[nbr]`` and one
    ``bitwise_or.reduceat`` over the neighbour lists (none may be empty),
    the chunks cut at about ``_GATHER_EDGES`` * n * ceil(n/64) edges. Before
    each level the bits missing from R_k are counted (none: every row is
    full; as many as a level before: DisconnectedError; see
    ``all_pairs_distances`` for the hand-off) and added into
    ``count``, which then holds min(dist(s, v), k): unpacked from an n^2/8
    copy by source into the ``(n, n)`` uint16 matrix, or counted by
    ``np.bitwise_count`` and summed per column, with no n^2 unpack, into the
    ``(n,)`` int64 sums T.

    Returns ``(None, k)`` once every row is full, at the diameter k, else
    ``((R_k, R_{k-1}), k)`` at the hand-off for the blocked kernel.
    """
    words = -(-n // 64)
    r = np.zeros((words, n), np.uint64)
    for w in range(words):  # R_0[s] = {s}
        r[w, 64 * w : 64 * w + 64] = _UNIT[: n - 64 * w]
    grown = np.zeros(r.shape, r.dtype)  # R_{-1} is empty
    bounds = np.append(first_nbr, nbr.size)  # vertex v's neighbours: bounds[v]..bounds[v+1]
    cuts = _cuts(bounds[1:], _GATHER_EDGES * n * words)
    chunks = [
        (a, b, nbr[bounds[a] : bounds[b]], first_nbr[a:b] - bounds[a])
        for a, b in zip(cuts, cuts[1:])
    ]
    k, before, grew = 0, n * n, 0
    while True:
        if count.ndim == 2:
            bits = np.invert(r.T, order="C").view(np.uint8)  # by source: an n^2/8 copy
            missing = np.unpackbits(bits, axis=1, count=n, bitorder="little")
            del bits
            left = np.count_nonzero(missing)
        else:  # the padding bits past n are never set
            missing = n - np.bitwise_count(r).sum(axis=0, dtype=np.int64)
            left = int(missing.sum())
        if left == before:  # no row grew
            raise DisconnectedError("vertex 0 cannot reach the whole graph")
        frontier = before - left  # pairs at distance exactly k
        # full comes first: rows that fill at the hand-off finish here
        if not left or frontier <= grew and left > 64 * max(frontier, n):
            return ((r, grown) if left else None), k
        grew = frontier
        count += missing
        del missing  # freed before the gather, which holds about as much
        for a, b, chunk_nbr, offsets in chunks:
            for row, out in zip(r, grown):
                # the gathered words are freed at once, before the next row or unpack
                ored = np.bitwise_or.reduceat(np.take(row, chunk_nbr), offsets)
                np.bitwise_or(row[a:b], ored, out=out[a:b])
        r, grown = grown, r
        k, before = k + 1, left


def _cuts(ends: np.ndarray, step: int) -> list[int]:
    """Cuts from 0 to len(ends) into parts of about ``step`` of the ``ends[-1]``
    entries laid end to end, item i ending at ``ends[i]``, at most one item more."""
    if ends[-1] <= step:
        return [0, ends.size]
    # not np.unique: its first call imports numpy.ma, tens of ms in a fresh process
    return sorted({*np.searchsorted(ends, np.arange(0, ends[-1], step)).tolist(), ends.size})


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
