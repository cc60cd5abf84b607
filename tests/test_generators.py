import ast
import re
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest

from mycielski import generators
from mycielski.cli import main
from mycielski.errors import InvalidParameterError, TooLargeError
from mycielski.generators import (
    CONNECTED_COUNTS,
    FAMILIES,
    build_family,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    erdos_renyi_connected,
    path,
    petersen,
    star,
)
from mycielski.graph import diameter

# gnp(12, 0.4, 42), frozen at first build; the generator must reproduce it
# bit-identically forever
GNP_12_04_42 = (
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (0, 9), (0, 11),
    (1, 6), (1, 7), (1, 9),
    (2, 3), (2, 6), (2, 7),
    (3, 9), (3, 10), (3, 11),
    (4, 6), (4, 8), (4, 9),
    (5, 6), (5, 7), (5, 8), (5, 11),
    (6, 7), (6, 8), (6, 9), (6, 10),
    (7, 11),
    (8, 9),
    (9, 10), (9, 11),
)


DIRECT_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "kbipartite": complete_bipartite,
    "petersen": petersen,
    "gnp": erdos_renyi_connected,
}


def girth(g):
    """Shortest cycle length via BFS from every vertex."""
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


class TestFamilies:
    def test_cycle5(self):
        g = cycle(5)
        assert (g.n, g.m) == (5, 5)
        assert set(g.degrees) == {2}
        assert diameter(g) == 2

    def test_petersen(self):
        g = petersen()
        assert (g.n, g.m) == (10, 15)
        assert set(g.degrees) == {3}
        assert diameter(g) == 2
        assert girth(g) == 5

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert (g.n, g.m) == (5, 6)
        assert g.degrees == (3, 3, 2, 2, 2)
        assert diameter(g) == 2

    def test_canonical_labels(self):
        assert path(4).edges == ((0, 1), (1, 2), (2, 3))
        assert star(3).edges == ((0, 1), (0, 2), (0, 3))
        assert cycle(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: path(1),
            lambda: cycle(2),
            lambda: complete(1),
            lambda: star(0),
            lambda: complete_bipartite(0, 2),
        ],
        ids=["path", "cycle", "complete", "star", "bipartite"],
    )
    def test_family_minimums(self, call):
        with pytest.raises(InvalidParameterError):
            call()

    def test_generate_dispatch(self):
        # the README's list of --family specs is the registry, and each spec
        # builds what its builder builds
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme[readme.index("Input graphs come from"):].split("\n\n")[0]
        specs = re.findall(r"`([a-z]+(?::[^`]*)?)`", listed)
        assert sorted(spec.partition(":")[0] for spec in specs) == sorted(FAMILIES)
        for spec in specs:
            kind, _, arg = spec.partition(":")
            params = [ast.literal_eval(p) for p in arg.split(",") if p]
            assert build_family(spec) == DIRECT_BUILDERS[kind](*params), spec
        assert build_family("cycle:5,") == cycle(5)

    def test_registry_calls_builders_through_the_module(self, monkeypatch):
        # tracers rebind module attributes, and the registry must honour that
        monkeypatch.setattr(generators, "cycle", path)
        assert build_family("cycle:4") == path(4)

    def test_generate_rejects_bad_specs(self, capsys):
        for spec in [
            "moebius:5",  # unknown family
            "cycle",  # too few parameters
            "cycle:5,6",  # too many
            "petersen:3",
            "cycle:two",  # wrong type
            "gnp:12.0,0.4,42",
            "gnp:12,high,42",
            "cycle:2",  # the builder's own minimum
        ]:
            with pytest.raises(InvalidParameterError):
                build_family(spec)
            assert main(["compute", "--family", spec]) == 1, spec
            assert capsys.readouterr().out == ""


class TestErdosRenyi:
    def test_forced_complete(self):
        assert erdos_renyi_connected(2, 1.0, 7) == complete(2)
        assert erdos_renyi_connected(5, 1.0, 123) == complete(5)

    def test_frozen_sample(self):
        g = erdos_renyi_connected(12, 0.4, 42)
        assert g.edges == GNP_12_04_42

    def test_reproducible(self):
        a = erdos_renyi_connected(12, 0.4, 42)
        b = erdos_renyi_connected(12, 0.4, 42)
        assert a == b

    def test_seeds_vary(self):
        samples = {erdos_renyi_connected(10, 0.4, s).edges for s in range(8)}
        assert len(samples) > 1

    def test_always_connected(self):
        for seed in range(50):
            assert erdos_renyi_connected(8, 0.15, seed).is_connected()

    @pytest.mark.parametrize("p", [0.0, -0.2, 1.5])
    def test_bad_probability(self, p):
        with pytest.raises(InvalidParameterError):
            erdos_renyi_connected(5, p, 0)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidParameterError):
            erdos_renyi_connected(1, 0.5, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts(self, n):
        graphs = list(enumerate_connected(n))
        assert len(graphs) == CONNECTED_COUNTS[n]
        assert all(g.is_connected() for g in graphs)
        assert all(sum(g.degrees) == 2 * g.m for g in graphs)

    def test_count_n6(self):
        assert sum(1 for _ in enumerate_connected(6)) == CONNECTED_COUNTS[6]

    def test_bitmask_order_n3(self):
        # pairs in lexicographic order: (0,1), (0,2), (1,2); masks ascending
        seqs = [g.edges for g in enumerate_connected(3)]
        assert seqs == [
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
            ((0, 1), (0, 2), (1, 2)),
        ]

    def test_no_duplicates(self):
        graphs = [g.edges for g in enumerate_connected(4)]
        assert len(graphs) == len(set(graphs))

    def test_matches_independent_filter(self):
        # brute-force reference: all edge subsets, connectivity by set BFS
        def connected_subsets(n):
            found = []
            all_pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(all_pairs)):
                chosen = [all_pairs[k] for k in range(len(all_pairs)) if mask >> k & 1]
                adj = {v: set() for v in range(n)}
                for u, v in chosen:
                    adj[u].add(v)
                    adj[v].add(u)
                seen, stack = {0}, [0]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) == n:
                    found.append(tuple(sorted(chosen)))
            return found

        assert [g.edges for g in enumerate_connected(4)] == connected_subsets(4)

    def test_out_of_range(self):
        with pytest.raises(TooLargeError):
            next(enumerate_connected(7))
        with pytest.raises(InvalidParameterError):
            next(enumerate_connected(1))
