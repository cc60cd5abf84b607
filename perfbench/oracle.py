"""Independent oracles for the benchmark's correctness gate.

Nothing here imports ``mycielski``. Seeded ``gnp`` graphs are regenerated
from the documented sampling rule (one splitmix64 draw per pair in
lexicographic order, redraw from ``seed + 1`` while disconnected); indices
come from scipy's BFS shortest paths and networkx's Mycielskian; the
exhaustive corpus is re-enumerated with batched numpy reachability.

As a program it reads one CLI stdout on stdin and prints the list of
problems it finds as JSON (``[]`` when the output is correct):

    python3 perfbench/oracle.py compute N P SEED DIAMETER_TWO(0|1) < out
    python3 perfbench/oracle.py verify N < out
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

def splitmix64(state: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the splitmix64 stream seeded with ``state``."""
    with np.errstate(over="ignore"):
        z = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + np.uint64(state & _MASK64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Edge array ``(m, 2)`` of the seeded connected G(n, p), lexicographic."""
    rows, cols = np.triu_indices(n, 1)
    attempt = seed & _MASK64
    while True:
        u = (splitmix64(attempt, len(rows)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        keep = u < p
        edges = np.stack([rows[keep], cols[keep]], axis=1)
        if connected_components(_adjacency(n, edges), directed=False)[0] == 1:
            return edges
        attempt = (attempt + 1) & _MASK64


def _adjacency(n: int, edges: np.ndarray) -> csr_matrix:
    ones = np.ones(len(edges), dtype=np.int8)
    return csr_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))


def _distances(n: int, edges: np.ndarray) -> np.ndarray:
    d = shortest_path(_adjacency(n, edges), directed=False, unweighted=True)
    if np.isinf(d).any():
        raise ValueError("oracle graph is disconnected")
    return d.astype(np.int64)


def _degree_distance(d: np.ndarray, deg: np.ndarray) -> int:
    # sum over pairs of d(u,v)(deg u + deg v) = sum over u of deg u * transmission u
    return int((deg * d.sum(axis=1)).sum())


def _canon(x: float) -> float:
    return float(f"{x:.12g}")


def compute_expected(n: int, edges: np.ndarray) -> dict[str, object]:
    """The ``compute`` record for a connected graph, key order included."""
    d = _distances(n, edges)
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
    m = len(edges)
    randic = 0.0
    for u, v in edges.tolist():  # left to right over the sorted edge list
        randic += 1.0 / math.sqrt(int(deg[u]) * int(deg[v]))
    record: dict[str, object] = {
        "n": n,
        "m": m,
        "diameter": int(d.max()),
        "wiener": int(d.sum()) // 2,
        "zagreb_m1": int((deg * deg).sum()),
        "randic": _canon(randic),
        "degree_distance": _degree_distance(d, deg),
    }
    if record["diameter"] == 2:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges.tolist())
        mu = nx.mycielskian(g)
        mu_edges = np.array(list(mu.edges()), dtype=np.int64)
        mu_n = mu.number_of_nodes()
        mu_deg = np.bincount(mu_edges.ravel(), minlength=mu_n).astype(np.int64)
        lo_d, hi_d = int(deg.min()), int(deg.max())
        half_r = randic / 2.0
        lower = half_r + (math.sqrt(2.0) * m + math.sqrt(n * hi_d)) / math.sqrt(hi_d * hi_d + hi_d)
        upper = half_r + (math.sqrt(2.0) * m + math.sqrt(n * lo_d)) / math.sqrt(lo_d * lo_d + lo_d)
        r_mu = float(np.sum(1.0 / np.sqrt(mu_deg[mu_edges[:, 0]] * mu_deg[mu_edges[:, 1]])))
        if not lower - 1e-9 <= r_mu <= upper + 1e-9:
            raise ValueError(f"oracle: R(mu)={r_mu} outside [{lower}, {upper}]")
        record["degree_distance_mu"] = _degree_distance(_distances(mu_n, mu_edges), mu_deg)
        record["randic_mu_lower"] = _canon(lower)
        record["randic_mu_upper"] = _canon(upper)
        record["is_regular"] = lo_d == hi_d
    return record


def check_compute(stdout: bytes, n: int, p: float, seed: int, diameter_two: bool) -> list[str]:
    """Problems with a ``compute --family gnp:n,p,seed`` JSON report; [] if none."""
    try:
        got = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(got, dict):
        return ["stdout is not a JSON object"]
    problems = []
    if ("degree_distance_mu" in got) != diameter_two:
        problems.append(
            f"degree_distance_mu {'missing' if diameter_two else 'present'}: "
            f"workload expects diameter {'2' if diameter_two else 'other than 2'}"
        )
    want = compute_expected(n, gnp_edges(n, p, seed))
    if list(got) != list(want):
        problems.append(f"keys {list(got)} != {list(want)}")
    for key, value in want.items():
        if key in got and (got[key] != value or type(got[key]) is not type(value)):
            problems.append(f"{key}: got {got[key]!r}, oracle {value!r}")
    return problems


def corpus_classes(n: int) -> dict[str, int]:
    """Connected, diameter-2 and regular counts over all labeled graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    adj = np.zeros((len(masks), n, n), dtype=np.int64)
    for k, (u, v) in enumerate(pairs):
        bit = (masks >> k) & 1
        adj[:, u, v] = bit
        adj[:, v, u] = bit
    reach = np.broadcast_to(np.eye(n, dtype=np.int64), adj.shape).copy()
    diameter = np.full(len(masks), -1)
    for k in range(1, n):
        reach = np.minimum(reach + reach @ adj, 1)
        full = reach.all(axis=(1, 2))
        diameter[(diameter < 0) & full] = k
    connected = diameter > 0
    deg = adj.sum(axis=2)
    regular = connected & (deg.min(axis=1) == deg.max(axis=1))
    return {
        "connected": int(connected.sum()),
        "diameter_two": int((diameter == 2).sum()),
        "regular": int(regular.sum()),
    }


def verify_expected(n: int) -> list[dict[str, object]]:
    """The zero-timing ``verify --enumerate n`` report with every claim passing.

    ``checked`` counts elementary comparisons per graph: 2n+1 vertex degrees
    for obs1, (2n+1)^2 matrix entries for obs2, one value for lemma3 and
    thm_dd, and two bounds for the Randic claims.
    """
    classes = corpus_classes(n)
    total = classes["connected"]
    size = 2 * n + 1
    applicable = {
        "obs1": (total, size),
        "obs2": (total, size * size),
        "lemma3": (classes["diameter_two"], 1),
        "thm_dd": (classes["diameter_two"], 1),
        "randic_bounds": (total, 2),
        "randic_equality": (classes["regular"], 2),
    }
    return [
        {
            "claim": claim,
            "checked": graphs * per_graph,
            "skipped": total - graphs,
            "failures": [],
            "elapsed_ms": 0,
        }
        for claim, (graphs, per_graph) in applicable.items()
    ]


def check_verify(stdout: bytes, n: int) -> list[str]:
    """Problems with a ``verify --enumerate n`` report over all claims; [] if none."""
    want = verify_expected(n)
    if stdout == (json.dumps(want, indent=2) + "\n").encode():
        return []
    return [f"report {stdout[:2000]!r} != oracle {want!r}"]


def main(argv: list[str]) -> int:
    kind, *params = argv
    stdout = sys.stdin.buffer.read()
    if kind == "compute":
        n, p, seed, diameter_two = params
        problems = check_compute(stdout, int(n), float(p), int(seed), diameter_two == "1")
    elif kind == "verify":
        (n,) = params
        problems = check_verify(stdout, int(n))
    else:
        raise SystemExit(f"unknown oracle kind {kind!r}")
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
