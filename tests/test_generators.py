import ast
import math
import re
import subprocess
import sys
import time
import warnings
from collections import deque
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycielski import generators
from mycielski.cli import main
from mycielski.errors import InvalidParameterError, TooLargeError
from mycielski.generators import (
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

from conftest import CONNECTED_COUNTS, scalar_gnp, scalar_pairs, splitmix64

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


# seeds at and past both ends of the 64-bit state, which is seed mod 2^64
ODD_SEEDS = [0, 2**64 - 1, 2**64 + 5, -1]
MASK64 = 2**64 - 1


class TestScalarStreamEquivalence:
    """The chunked numpy stream against the scalar splitmix64 reference.

    Each comparison runs with warnings as errors: numpy array arithmetic
    wraps silently, but scalar arithmetic warns on overflow, so a stream
    step done on scalars instead of arrays fails.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        seed=st.one_of(
            st.sampled_from(ODD_SEEDS), st.integers(min_value=-(2**70), max_value=2**70)
        ),
    )
    def test_attempt_matches_reference(self, n, p, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = generators._kept_pairs(n, p, seed & MASK64)
        assert kept.dtype == np.int64 and kept.shape[1:] == (2,)
        assert [tuple(r) for r in kept.tolist()] == scalar_pairs(n, p, seed & MASK64)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(1000, 0.02, 7), (1000, 0.02, 101), (12, 0.1, 0), (12, 0.4, 42)]
        + [(60, 0.08, seed) for seed in ODD_SEEDS],
    )
    def test_graph_matches_reference(self, n, p, seed):
        # (12, 0.1, 0) takes 396 attempts, so the redraw order is covered
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = erdos_renyi_connected(n, p, seed)
        assert g.edges == scalar_gnp(n, p, seed).edges

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(generators, "_CHUNK", chunk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, p, seed in [(2, 1.0, 0), (12, 0.4, 42), (17, 0.9, 2**64 - 1), (40, 0.3, 5)]:
                kept = generators._kept_pairs(n, p, seed)
                assert [tuple(r) for r in kept.tolist()] == scalar_pairs(n, p, seed)
            assert erdos_renyi_connected(12, 0.4, 42).edges == GNP_12_04_42
            assert erdos_renyi_connected(30, 0.1, 3) == scalar_gnp(30, 0.1, 3)

    @pytest.mark.parametrize("chunk", [1, 7, generators._CHUNK])
    def test_threshold_boundary(self, chunk, monkeypatch):
        # p = j * 2^-53 for the smallest draw j of the stream drops its pair,
        # and the next double toward 1 keeps it; below 1/2 that double times
        # 2^53 is no integer, so ceil and floor of it differ
        n, state = 12, 42
        pairs = list(combinations(range(n), 2))
        draws = [z >> 11 for z in islice(splitmix64(state), len(pairs))]
        k = draws.index(min(draws))
        at = math.ldexp(draws[k], -53)
        above = math.nextafter(at, 1.0)
        monkeypatch.setattr(generators, "_CHUNK", chunk)
        kept = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (at, above, 1.0, 2.0**-53, 5e-324):
                kept[p] = [tuple(r) for r in generators._kept_pairs(n, p, state).tolist()]
                assert kept[p] == scalar_pairs(n, p, state)
        assert (kept[at], kept[above]) == ([], [pairs[k]])
        assert kept[1.0] == pairs


class TestRedrawCap:
    # far below the connectivity threshold: these redrew forever before the cap
    HOPELESS = ["40,0.01,0", "5,1e-300,0"]

    def test_cap_raises_with_the_parameters(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_ATTEMPTS", 3)
        with pytest.raises(InvalidParameterError) as info:
            erdos_renyi_connected(12, 0.1, 0)  # needs 396 attempts
        message = str(info.value)
        assert all(s in message for s in ("n=12", "p=0.1", "seed=0", "3 attempts"))

    @pytest.mark.parametrize("spec", HOPELESS)
    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_hopeless_specs_exit_1_fast(self, command, spec):
        source = ["--family", f"gnp:{spec}"] if command == "compute" else ["--gnp", spec]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mycielski", command, *source],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "attempts" in proc.stderr
        assert elapsed < 2.0


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

    def test_order_is_checked_at_the_call(self):
        # so the CLI can map a bad order before it writes anything
        with pytest.raises(TooLargeError):
            enumerate_connected(7)
        with pytest.raises(InvalidParameterError):
            enumerate_connected(1)
