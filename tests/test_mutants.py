"""Mutants of ``mu_distance_matrix``, each of which obs2 must catch.

Each mutant replaces the closed form in ``mycielski.verify``'s namespace
and must be killed, with at least one obs2 failure, both by the labeled
n = 5 corpus and by the class path that ``verify --enumerate`` runs: one
check per isomorphism class, on its smallest-mask graph.

Three mutants are wrong only under some labelings: they add 1 to the
(0, n + 1) entry when the pair (0, 1) is an edge, when it is not, or when
vertex 0 has eccentricity 2 or more. The class path checks one labeling
per class and expands a class into its members only when that labeling
fails, so under such a mutant it lists fewer failures than the labeled
corpus (at n = 5, 327 against 414, 85 against 314 and 472 against 664),
and it misses a class whose smallest-mask graph happens to pass. So the
gate here is that each mutant is killed, not that the two reports agree;
for the true closed form, tests/test_verify.py checks that they do.
"""

import numpy as np
import pytest

from mycielski.generators import connected_classes, enumerate_connected
from mycielski.transform import mu_distance_matrix
from mycielski.verify import verify_classes, verify_corpus


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
    (by_class,) = verify_classes(["obs2"], connected_classes(5))
    assert labeled.failures and by_class.failures
    # the class path lists members' own failures, each one the labeled path lists
    assert {f.edges for f in by_class.failures} <= {f.edges for f in labeled.failures}
