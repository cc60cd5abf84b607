"""Mutants of the closed forms and hypotheses that ``verify`` checks, each of which a claim
must catch.

Each mutant replaces one closed form in ``mycielski.verify``'s namespace, or one hypothesis
in its ``_COMPUTE`` table, runs only the claims that read it and must be killed, with at
least one failure, both by the labeled n = 5 corpus and by the class path that ``verify
--enumerate`` runs at n = 5 and n = 6: one check per isomorphism class, on its
smallest-mask graph. No mutant survives. The first five mutants run on the labeled corpus
itself; for the others a kill on the n = 5 class graphs, which are labeled graphs of that
corpus, is a kill on it, and running them on all 728 graphs would double the module's
time.

Three mutants of ``mu_distance_matrix`` are wrong only under some labelings: they add 1 to
the (0, n + 1) entry when the pair (0, 1) is an edge, when it is not, or when vertex 0 has
eccentricity 2 or more. The class path checks one labeling per class and expands a class
into its members only when that labeling fails, so under such a mutant it lists fewer
failures than the labeled corpus (at n = 5, 327 against 414, 85 against 314 and 472
against 664), and it misses a class whose smallest-mask graph happens to pass. So the gate
here is that each mutant is killed, not that the two reports agree; for the true closed
form, tests/test_verify.py checks that they do.
"""

import math

import numpy as np
import pytest

from mycielski import verify
from mycielski.generators import connected_classes, enumerate_connected
from mycielski.indices import RandicBounds, dd_mycielskian_closed, randic, randic_bounds
from mycielski.transform import mu_degrees, mu_distance_matrix
from mycielski.verify import verify_corpus


def _bumped_when(condition):
    """The closed form with 1 added to entry (0, n + 1) wherever ``condition(dg)`` holds."""

    def mutant(dg):
        d = mu_distance_matrix(dg).copy()
        if condition(dg):
            d[0, len(dg) + 1] += 1
        return d

    return mutant


def _capped(block, cap):
    """The closed form with the original-original or original-shadow block capped lower."""

    def mutant(dg):
        d = mu_distance_matrix(dg).copy()
        n = len(dg)
        rows = slice(0, n)
        cols = slice(0, n) if block == "original" else slice(n, 2 * n)
        d[rows, cols] = np.minimum(d[rows, cols], cap)
        d[cols, rows] = np.minimum(d[cols, rows], cap)
        return d

    return mutant


MUTANTS = {
    "edge_01": _bumped_when(lambda dg: dg[0, 1] == 1),
    "non_edge_01": _bumped_when(lambda dg: dg[0, 1] != 1),
    "eccentric_0": _bumped_when(lambda dg: dg[0].max() >= 2),
    "cross_cap_2": _capped("cross", 2),
    "original_cap_3": _capped("original", 3),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_obs2_kills_the_mutant_on_both_paths(name, monkeypatch):
    monkeypatch.setattr("mycielski.verify.mu_distance_matrix", MUTANTS[name])
    (labeled,) = verify_corpus(["obs2"], enumerate_connected(5))
    (by_class,) = verify_corpus(["obs2"], connected_classes(5))
    assert labeled.failures and by_class.failures
    # the class path lists members' own failures, each one the labeled path lists
    assert {f.edges for f in by_class.failures} <= {f.edges for f in labeled.failures}


def _set(entries, value):
    """The closed form with the entries that ``entries(n)`` indexes, and their mirror
    images, set to ``value``."""

    def mutant(dg):
        d = mu_distance_matrix(dg).copy()
        rows, cols = entries(len(dg))
        d[rows, cols] = d[cols, rows] = value
        return d

    return mutant


def _dd_term_off_by_one(term):
    """DD(mu)'s polynomial, 4 dd - m1 + (7n - 1) n + (8n + 12) m, with the coefficient of one
    term off by one."""

    def mutant(n, m, m1, dd):
        return dd_mycielskian_closed(n, m, m1, dd) + {"dd": dd, "m1": m1, "n": n, "m": m}[term]

    return mutant


def _randic_bounds_swapped(g, r=None):
    """The bounds with the minimum degree and the maximum degree swapped."""
    bounds = randic_bounds(g, r)
    return RandicBounds(lower=bounds.upper, upper=bounds.lower, is_regular=bounds.is_regular)


def _randic_bounds_without_sqrt2(g, r=None):
    """The bounds with m where the formula has sqrt(2) m."""
    half_r, delta, big_delta = randic(g) / 2.0, min(g.degrees), max(g.degrees)

    def bound(d):
        return half_r + (g.m + math.sqrt(g.n * d)) / math.sqrt(d * d + d)

    return RandicBounds(lower=bound(big_delta), upper=bound(delta), is_regular=delta == big_delta)


_diameter_two = verify._COMPUTE["diameter_two"]

# name -> (the claims that read the patched name, the name in verify or its _COMPUTE, mutant)
CLAIM_MUTANTS = {
    "same_index_1": (("obs2",), "mu_distance_matrix",
                     _set(lambda n: (np.arange(n), np.arange(n, 2 * n)), 1)),
    "root_shadow_2": (("obs2",), "mu_distance_matrix",
                      _set(lambda n: (2 * n, np.arange(n, 2 * n)), 2)),
    "root_degree_n_minus_1": (("obs1",), "mu_degrees", lambda g: mu_degrees(g)[:-1] + (g.n - 1,)),
    "shadow_degree_deg": (("obs1",), "mu_degrees",
                          lambda g: mu_degrees(g)[: g.n] + g.degrees + (g.n,)),
    **{f"dd_{term}_term": (("thm_dd",), "dd_mycielskian_closed", _dd_term_off_by_one(term))
       for term in ("dd", "m1", "n", "m")},
    "randic_swapped": (("randic_bounds", "randic_equality"), "randic_bounds",
                       _randic_bounds_swapped),
    "randic_without_sqrt2": (("randic_bounds", "randic_equality"), "randic_bounds",
                             _randic_bounds_without_sqrt2),
    "diameter_3_accepted": (("lemma3", "thm_dd"), "diameter_two",
                            lambda g, s: None if s["dg"].max() == 3 else _diameter_two(g, s)),
    "irregular_accepted": (("randic_equality",), "regular", lambda g, s: s["no_isolated"]),
}
ALL_MUTANTS = {
    **{name: (("obs2",), "mu_distance_matrix", mutant) for name, mutant in MUTANTS.items()},
    **CLAIM_MUTANTS,
}


def _patch(monkeypatch, target, mutant):
    if target in verify._COMPUTE:
        monkeypatch.setitem(verify._COMPUTE, target, mutant)
    else:
        monkeypatch.setattr(verify, target, mutant)


@pytest.fixture(scope="module")
def class_graphs():
    graphs = {n: [g for g, _ in connected_classes(n)] for n in (5, 6)}
    # the n = 5 class graphs are labeled graphs of the n = 5 corpus, so a mutant that one
    # of them fails is killed on the labeled corpus too
    assert set(graphs[5]) <= set(enumerate_connected(5))
    return graphs


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", ALL_MUTANTS)
def test_the_class_path_kills_the_mutant(name, n, class_graphs, monkeypatch):
    claims, target, mutant = ALL_MUTANTS[name]
    _patch(monkeypatch, target, mutant)
    # a class's own graph is the first of its members, so the class path lists a failure
    # exactly when one of these graphs fails; checking them alone spares expanding each
    # failing class into its members, a check per labeled graph
    assert any(out.failures for out in verify_corpus(claims, class_graphs[n]))
